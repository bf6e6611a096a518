"""Built-in acceptance suite.

Ten end-to-end criteria covering derivative correctness, the two curvature
bounds, the convergence scenarios for each trainer family, factorization and
projection quality, the loss floors for sign-indefinite symmetric targets,
and artifact determinism.  Each criterion returns a ScenarioReport whose
status is ``pass`` or ``fail``; seeds and tolerances are pinned so the suite
is reproducible.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .factor import balanced_factorization
from .lab import (
    ScenarioConfig,
    ScenarioReport,
    TargetSpec,
    make_target,
    random_orthogonal,
    run_scenario,
    scenario_from_dict,
)
from .network import DeepLinearNet
from .project import IdentityBall, project_gamma_positive, project_identity_ball
from .trainers import (
    StepSchedule,
    TrainerConfig,
    run_gd,
    run_penalty_gd,
    run_power_projection,
    run_step_and_project,
    step_size_power_projection,
    step_size_symmetric_target,
)
from .verify import (
    check_commuting_normal,
    check_gradient_lower_bound,
    check_hessian_upper_bound,
    eigen_recurrence_check,
    fd_gradient_check,
    fd_hessian_check,
    trace_recurrence_check,
)


def _report(slug, ok, detail, checks=(), final_loss=None, iterations=None):
    return ScenarioReport(
        slug, "pass" if ok else "fail", final_loss, iterations, list(checks), 0.0, None, detail
    )


def _derivatives(workdir):
    """50 random instances, entries in [-1, 1]: analytic gradient within
    1e-6 relative of central differences, assembled second derivatives
    within 1e-4 absolute of second-order differences."""
    rng = np.random.default_rng(101)
    grad_bad = hess_bad = 0
    sample = []
    for _ in range(50):
        d = int(rng.integers(1, 5))
        L = int(rng.integers(1, 5))
        net = DeepLinearNet(tuple(rng.uniform(-1.0, 1.0, (d, d)) for _ in range(L)))
        phi = rng.uniform(-1.0, 1.0, (d, d))
        rg = fd_gradient_check(net, phi, h=1e-5, tol=1e-6)
        rh = fd_hessian_check(net, phi, h=1e-3, tol=1e-4)
        grad_bad += rg.violations
        hess_bad += rh.violations
        if rg.violations or rh.violations:
            sample += [rg, rh]
    ok = grad_bad == 0 and hess_bad == 0
    return _report(
        "01-derivatives", ok,
        f"gradient violations {grad_bad}/50, hessian violations {hess_bad}/50",
        sample[:4],
    )


def _gradient_lower_bound(workdir):
    """500 instances with controlled layer singular value floor 1 - a,
    a in [0, 0.5]: zero violations of the steepness bound."""
    rng = np.random.default_rng(202)
    bad = 0
    skipped = 0
    evidence = []
    for _ in range(500):
        d = int(rng.integers(1, 5))
        L = int(rng.integers(1, 7))
        a = float(rng.uniform(0.0, 0.5))
        layers = []
        for _ in range(L):
            b = rng.standard_normal((d, d))
            top = np.linalg.svd(b, compute_uv=False)[0]
            b *= a * rng.uniform(0.0, 1.0) / max(top, 1e-12)
            layers.append(np.eye(d) + b)
        phi = rng.uniform(0.5, 2.0) * rng.standard_normal((d, d))
        rep = check_gradient_lower_bound(DeepLinearNet(tuple(layers)), phi)
        if rep.status == "skipped":
            skipped += 1
        bad += rep.violations
        if rep.violations and len(evidence) < 3:
            evidence.append(rep)
    ok = bad == 0 and skipped == 0
    return _report(
        "02-gradient-lower-bound", ok,
        f"violations {bad}/500, skipped {skipped}",
        evidence,
    )


def _hessian_upper_bound(workdir):
    """200 instances (d <= 3, L <= 4) with targets inside the norm
    precondition: zero violations of the curvature bound."""
    rng = np.random.default_rng(303)
    bad = 0
    skipped = 0
    evidence = []
    for _ in range(200):
        d = int(rng.integers(1, 4))
        L = int(rng.integers(1, 5))
        layers = tuple(
            rng.uniform(0.3, 1.3) * rng.standard_normal((d, d)) for _ in range(L)
        )
        net = DeepLinearNet(layers)
        z = max(0.0, max(np.linalg.svd(m, compute_uv=False)[0] for m in layers) - 1.0)
        phi = rng.standard_normal((d, d))
        top = np.linalg.svd(phi, compute_uv=False)[0]
        cap = rng.uniform(0.1, 1.0) * (1.0 + z) ** L
        phi *= cap / max(top, 1e-12)
        rep = check_hessian_upper_bound(net, phi)
        if rep.status == "skipped":
            skipped += 1
        bad += rep.violations
        if rep.violations and len(evidence) < 3:
            evidence.append(rep)
    ok = bad == 0 and skipped == 0
    return _report(
        "03-hessian-upper-bound", ok,
        f"violations {bad}/200, skipped {skipped}",
        evidence,
    )


def _near_identity_gd(workdir):
    """Near-identity target (d=3, L=10): plain descent with the per-step
    admissible bound converges below 1e-10 inside the budget implied by the
    contraction factor, with both trace recurrences violation-free."""
    phi = make_target(TargetSpec("near_identity", 3, excess_loss=1e-3, seed=404))
    cfg = TrainerConfig(
        "gd", 3, 10, StepSchedule("admissible"), max_iters=20000, epsilon=1e-10
    )
    trace = run_gd(phi, cfg)
    rec = trace_recurrence_check(trace, phi)
    # iteration budget from the certified per-step factors
    losses = trace.losses
    radii = trace.radii
    bound = losses[0]
    t_star = None
    for t, eta in enumerate(trace.etas):
        bound *= 1.0 - eta * trace.L * (1.0 - radii[t]) ** (2 * trace.L)
        if bound <= 1e-10:
            t_star = t + 1
            break
    within_budget = t_star is None or trace.iterations <= t_star
    ok = (
        trace.status == "converged"
        and trace.final_loss <= 1e-10
        and rec.passed
        and within_budget
    )
    return _report(
        "04-near-identity-gd", ok,
        f"status {trace.status}, final loss {trace.final_loss:.3e} at "
        f"t={trace.iterations}, budget t*={t_star}, recurrence violations "
        f"{rec.violations}",
        [rec], trace.final_loss, trace.iterations,
    )


def _symmetric_pd_gd(workdir):
    """Symmetric positive definite target with eigenvalues (0.5, 1, 2) in a
    random basis, L=8, standard step: converges below 1e-8 with equal
    layers, and the product spectrum tracks the scalar recurrences."""
    phi = make_target(TargetSpec("spd", 3, eigenvalues=(0.5, 1.0, 2.0), seed=505))
    eta = step_size_symmetric_target(phi, 8)
    cfg = TrainerConfig(
        "gd", 3, 8, StepSchedule("constant", eta), max_iters=5000,
        epsilon=1e-8, record_spectra=True, record_layers=True,
    )
    trace = run_gd(phi, cfg)
    comm = check_commuting_normal(trace, phi, tol=1e-9)
    eig = eigen_recurrence_check(trace, phi, tol=1e-9)
    ok = (
        trace.status == "converged"
        and trace.final_loss <= 1e-8
        and comm.passed
        and eig.passed
    )
    return _report(
        "05-symmetric-pd-gd", ok,
        f"status {trace.status}, final loss {trace.final_loss:.3e} at "
        f"t={trace.iterations}; {comm.note}; {eig.note}",
        [comm, eig], trace.final_loss, trace.iterations,
    )


def _power_projection_run(workdir):
    """Scaled-rotation-plus-identity target (d=3, gamma=0.5, L=4) under the
    power projection trainer at the standard step: per-step contraction,
    singular value floor and norm cap all hold, and the loss reaches 1e-8."""
    phi = make_target(TargetSpec("rotation", 3, angles=(np.pi / 6,), scale=0.9))
    eta = step_size_power_projection(phi, 4)
    cfg = TrainerConfig(
        "power_projection", 3, 4, StepSchedule("constant", eta),
        gamma=0.5, max_iters=10**6, epsilon=1e-8,
    )
    trace = run_power_projection(phi, cfg)
    rec = trace_recurrence_check(trace, phi)
    ok = trace.status == "converged" and trace.final_loss <= 1e-8 and rec.passed
    return _report(
        "06-power-projection", ok,
        f"status {trace.status}, final loss {trace.final_loss:.3e} at "
        f"t={trace.iterations}, recurrence violations {rec.violations}",
        [rec], trace.final_loss, trace.iterations,
    )


def _balanced_factorization_corpus(workdir):
    """200 random inputs with positive quadratic form (d <= 6,
    L in {2, 4, 8, 16}): reconstruction within 1e-8 relative and factor
    singular values within 1e-8 of the balanced values."""
    rng = np.random.default_rng(707)
    depths = (2, 4, 8, 16)
    worst_recon = worst_balance = 0.0
    bad = 0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        L = depths[int(rng.integers(0, 4))]
        gamma = (0.1, 0.5)[int(rng.integers(0, 2))]
        q = random_orthogonal(d, rng)
        s = (q * (gamma + rng.uniform(0.0, 2.0, d))) @ q.T
        k = rng.uniform(0.0, 1.0) * rng.standard_normal((d, d))
        a = (s + s.T) / 2.0 + (k - k.T) / 2.0
        res = balanced_factorization(a, L)
        balance = res.balance_residual
        worst_recon = max(worst_recon, res.reconstruction_residual)
        worst_balance = max(worst_balance, balance)
        if res.reconstruction_residual > 1e-8 or balance > 1e-8:
            bad += 1
    ok = bad == 0
    return _report(
        "07-balanced-factorization", ok,
        f"violations {bad}/200, worst reconstruction {worst_recon:.3e}, "
        f"worst balance {worst_balance:.3e}",
    )


def _projection_optimality(workdir):
    """100 random (matrix, gamma) pairs: the projection is feasible,
    idempotent, and at least as close as 1000 random feasible points; plus
    the exact eigenvalue-clipping example for the identity ball."""
    rng = np.random.default_rng(808)
    bad = 0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.05, 1.0))
        a = 1.5 * rng.standard_normal((d, d))
        y = project_gamma_positive(a, gamma)
        feasible = np.linalg.eigvalsh((y + y.T) / 2.0)[0] >= gamma - 1e-12
        again = project_gamma_positive(y, gamma)
        idempotent = np.linalg.norm(again - y) <= 1e-12 * max(1.0, np.linalg.norm(y))
        dist_y = np.linalg.norm(a - y)
        closest = True
        for _ in range(1000):
            q = random_orthogonal(d, rng)
            w = gamma + rng.exponential(1.0, d)
            z = (q * w) @ q.T
            kr = rng.uniform(0.0, 2.0) * rng.standard_normal((d, d))
            z = z + (kr - kr.T) / 2.0
            if dist_y > np.linalg.norm(a - z) + 1e-12:
                closest = False
                break
        if not (feasible and idempotent and closest):
            bad += 1
    clip = project_identity_ball(
        np.diag([3.0, 0.5]), IdentityBall(1.0, psd_constrained=True)
    )
    clip_ok = np.allclose(clip, np.diag([2.0, 0.5]), atol=1e-12)
    ok = bad == 0 and clip_ok
    return _report(
        "08-projection-optimality", ok,
        f"violations {bad}/100, eigenvalue clip example "
        f"{'ok' if clip_ok else 'wrong'}",
    )


def _failure_floors(workdir):
    """Symmetric target diag(-0.8, 1, 1): plain descent (L=4), penalty
    descent (L=4, kappa in {0.01, 0.1}) and ball projection (L=3,
    psi=0.9), each 1e4 iterations at three step sizes, never drop below
    the floor 0.32, with all iterates commuting with the target."""
    phi = np.diag([-0.8, 1.0, 1.0])
    floor = 0.8**2 / 2.0
    etas = (0.05, 0.1, 0.2)
    runs = []
    for eta in etas:
        sched = StepSchedule("constant", eta)
        runs.append(run_gd(phi, TrainerConfig(
            "gd", 3, 4, sched, max_iters=10000, record_layers=True)))
        for kappa in (0.01, 0.1):
            runs.append(run_penalty_gd(phi, TrainerConfig(
                "penalty_gd", 3, 4, sched, kappa=kappa, max_iters=10000,
                record_layers=True)))
        runs.append(run_step_and_project(phi, TrainerConfig(
            "step_and_project", 3, 3, sched, gamma=1.0, psi=0.9,
            max_iters=10000, record_layers=True)))
    bad = 0
    min_seen = np.inf
    evidence = []
    for trace in runs:
        min_loss = float(np.min(trace.losses))
        min_seen = min(min_seen, min_loss)
        comm = check_commuting_normal(trace, phi, tol=1e-9)
        if min_loss < floor - 1e-12 or not comm.passed:
            bad += 1
            if len(evidence) < 3:
                evidence.append(comm)
    ok = bad == 0
    return _report(
        "09-failure-floors", ok,
        f"offending runs {bad}/{len(runs)}, minimum recorded loss "
        f"{min_seen:.6f} vs floor {floor}",
        evidence,
    )


def _determinism(workdir):
    """The same scenario run twice produces byte-identical trace CSVs."""
    base = Path(workdir)
    payload = {
        "schema": 1,
        "scenario_id": "determinism-probe",
        "target": {"kind": "spd", "d": 3, "eigenvalues": [0.5, 1.0, 2.0], "seed": 505},
        "trainer": {
            "algorithm": "gd", "d": 3, "L": 8,
            "schedule": {"mode": "constant", "eta": 0.02},
            "max_iters": 250, "epsilon": 0.0, "record_spectra": True,
        },
        "checks": ["trace_recurrence"],
    }
    blobs = []
    for tag in ("a", "b"):
        cfg = scenario_from_dict({**payload, "output_dir": str(base / tag)})
        run_scenario(cfg)
        blobs.append((base / tag / "determinism-probe_trace.csv").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    return _report(
        "10-determinism", ok,
        f"trace CSVs {'identical' if ok else 'differ'} "
        f"({len(blobs[0])} bytes)",
    )


CRITERIA = (
    (_derivatives, 30.0),
    (_gradient_lower_bound, 10.0),
    (_hessian_upper_bound, 60.0),
    (_near_identity_gd, 10.0),
    (_symmetric_pd_gd, 10.0),
    (_power_projection_run, 120.0),
    (_balanced_factorization_corpus, 30.0),
    (_projection_optimality, 60.0),
    (_failure_floors, 60.0),
    (_determinism, 60.0),
)


def run_suite(criteria=None, output_dir=None) -> list:
    """Run the acceptance criteria (all by default, or a 1-based subset)
    and return one report per criterion, including wall-clock budgets.  A
    number outside 1..len(CRITERIA) is a ConfigError."""
    # an explicitly empty selection means run nothing, unlike the default
    numbers = set(range(1, len(CRITERIA) + 1))
    selected = numbers if criteria is None else set(criteria)
    if unknown := sorted(selected - numbers):
        raise ConfigError(f"criteria {unknown} outside 1..{len(CRITERIA)}")
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(output_dir) if output_dir else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        for idx, (fn, budget) in enumerate(CRITERIA, start=1):
            if idx not in selected:
                continue
            start = time.perf_counter()
            try:
                report = fn(workdir / f"criterion-{idx:02d}")
            except Exception as exc:  # noqa: BLE001 - suite must account, not crash
                report = _report(
                    f"{idx:02d}-errored", False, f"{type(exc).__name__}: {exc}"
                )
            report.wall_clock = time.perf_counter() - start
            if report.wall_clock > budget:
                report.status = "fail"
                report.detail += (
                    f"; exceeded the {budget:.0f}s budget "
                    f"({report.wall_clock:.1f}s)"
                )
            reports.append(report)
    return reports
