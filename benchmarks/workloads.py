"""Seeded inputs, timed item execution and the correctness gate.

Each workload is a fixed list of item classes.  The seed draws the numbers
inside every class (eigenvalues, angles, step sizes, target seeds, layer
perturbations) and the order of the cycle, never the class mix, so every
seed asks the program for the same amount of work and throughput compares
across seeds.

The gate depends on no pinned reference values.  It checks what must hold
for any seed: the status the class must end in, the checks whose
precondition the generator guarantees, and the final loss recomputed here
from the returned layers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOSS_RTOL = 1e-9
FLOOR = ("floor-confirmed",)
BUDGET = ("budget",)


@dataclass
class RunItem:
    """One scenario: the config the program loads, the target the program
    builds from it, and what the gate expects of the report."""

    cls: str
    config: dict
    phi: np.ndarray
    expected: tuple
    guaranteed: tuple
    path: Path | None = None


@dataclass
class CurvatureItem:
    """One network and target inside both curvature preconditions."""

    cls: str
    layers: tuple
    phi: np.ndarray


@dataclass(frozen=True)
class RunClass:
    """Shape of one scenario class.  ``target`` and ``trainer`` draw the
    class's numbers from the item's generator."""

    name: str
    algorithm: str
    d: int
    L: int
    max_iters: int
    target: object
    trainer: object
    checks: tuple
    guaranteed: tuple
    expected: tuple = BUDGET
    record: bool = True


# --- target and step-size draws --------------------------------------------


def _spd(rng, d, lo=0.4, hi=2.2):
    return {"kind": "spd", "eigenvalues": rng.uniform(lo, hi, d).tolist(),
            "seed": int(rng.integers(2**31))}


def _rotation(theta_lo, theta_hi, scale_lo, scale_hi, blocks=1):
    def draw(rng, d):
        return {"kind": "rotation",
                "angles": rng.uniform(theta_lo, theta_hi, blocks).tolist(),
                "scale": float(rng.uniform(scale_lo, scale_hi))}
    return draw


def _neg_eig(lam=None):
    def draw(rng, d):
        return {"kind": "neg_eig_diag",
                "lam": float(rng.uniform(0.5, 0.9)) if lam is None else lam}
    return draw


def _near_identity(rng, d):
    return {"kind": "near_identity", "excess_loss": float(rng.uniform(0.01, 0.1)),
            "seed": int(rng.integers(2**31))}


def _constant(c_lo, c_hi, **extra):
    """Constant step c / (L (1 + ||phi||_2^2)): stable from the identity
    start for every target drawn here, and small enough that a
    ``neg_eig_diag`` run never pushes a layer eigenvalue through zero."""
    def draw(rng, cls, phi):
        op = float(np.linalg.norm(phi, 2))
        eta = float(rng.uniform(c_lo, c_hi)) / (cls.L * (1.0 + op * op))
        return {"schedule": {"mode": "constant", "eta": eta}, **extra}
    return draw


def _penalty(rng, cls, phi):
    out = _constant(0.5, 1.0)(rng, cls, phi)
    return {**out, "kappa": float(rng.uniform(0.01, 0.1)),
            "penalty_canonical": bool(rng.integers(2))}


def _power(gamma):
    def draw(rng, cls, phi):
        return {"schedule": {"mode": "default"}, "gamma": gamma}
    return draw


def _ball(psi, eta_lo=None, eta_hi=None):
    def draw(rng, cls, phi):
        if eta_lo is None:
            out = _constant(0.5, 1.0)(rng, cls, phi)
        else:
            out = {"schedule": {"mode": "constant",
                                "eta": float(rng.uniform(eta_lo, eta_hi))}}
        return {**out, "gamma": 1.0, "psi": psi}
    return draw


_GD_SYM = ("trace_recurrence", "commuting_normal", "eigen_recurrence")
_TR = ("trace_recurrence",)
_SYM = ("trace_recurrence", "commuting_normal")

# Every class asks for trace_recurrence.  step_and_project and penalty_gd
# have no per-step recurrence, so their report says "skipped"; the gate
# allows that because it is not in ``guaranteed``.  Power projection is
# guaranteed its recurrences only on a target inside the gamma-positive
# set; the clipping class lies outside it and asks for no checks.
SMALL_RUNS = (
    RunClass("gd-spd", "gd", 3, 8, 150, lambda r, d: _spd(r, d),
             _constant(0.5, 1.0), _GD_SYM, _GD_SYM),
    RunClass("gd-spd", "gd", 2, 2, 300, lambda r, d: _spd(r, d),
             _constant(0.5, 1.0), _GD_SYM, _GD_SYM),
    RunClass("gd-spd", "gd", 4, 10, 120, lambda r, d: _spd(r, d),
             _constant(0.5, 1.0), _GD_SYM, _GD_SYM),
    RunClass("gd-rotation", "gd", 3, 6, 250, _rotation(0.3, 1.2, 0.8, 1.2),
             _constant(0.5, 1.0), _TR, _TR),
    RunClass("gd-near-identity", "gd", 4, 4, 250, _near_identity,
             _constant(0.5, 1.0), _TR, _TR),
    RunClass("gd-neg-eig", "gd", 3, 4, 250, _neg_eig(),
             _constant(0.5, 1.0), _GD_SYM, _GD_SYM, FLOOR),
    # criterion 6 shape: rotation inside the gamma-positive set, d=3, L=4
    RunClass("power-rotation", "power_projection", 3, 4, 120,
             _rotation(np.pi / 8, np.pi / 5, 0.85, 1.0), _power(0.5), _TR, _TR,
             record=False),
    # theta = pi/3 at gamma 0.6: the target lies outside the set, so the
    # gamma projection clips
    RunClass("power-rotation-clip", "power_projection", 3, 4, 120,
             _rotation(np.pi / 3, np.pi / 3, 1.0, 1.0), _power(0.6), (), (),
             record=False),
    RunClass("power-spd", "power_projection", 2, 6, 120,
             lambda r, d: _spd(r, d, 0.6, 2.0), _power(0.5), _TR, _TR,
             record=False),
    # criterion 9 shape: diag(-0.8, 1, 1), L=3, psi 0.9; the ball clips
    RunClass("ball-neg-eig", "step_and_project", 3, 3, 250, _neg_eig(0.8),
             _ball(0.9, 0.05, 0.2), _SYM, ("commuting_normal",), FLOOR),
    # layer roots of eigenvalues in [0.5, 2] stay well inside psi = 1
    RunClass("ball-spd", "step_and_project", 4, 5, 150,
             lambda r, d: _spd(r, d, 0.5, 2.0), _ball(1.0), _SYM,
             ("commuting_normal",)),
    RunClass("ball-rotation", "step_and_project", 2, 2, 300,
             _rotation(0.8, 1.2, 0.9, 1.1), _ball(0.3), _TR, ()),
    RunClass("penalty-spd", "penalty_gd", 3, 7, 200,
             lambda r, d: _spd(r, d), _penalty, _SYM, ("commuting_normal",)),
    RunClass("penalty-neg-eig", "penalty_gd", 4, 4, 250, _neg_eig(),
             _penalty, _SYM, ("commuting_normal",), FLOOR),
    RunClass("penalty-near-identity", "penalty_gd", 2, 10, 200, _near_identity,
             _penalty, _TR, ()),
)


def _large(d, L, iters):
    """The four algorithms at one large shape, without layer snapshots."""
    return (
        RunClass("gd-spd", "gd", d, L, iters, lambda r, d: _spd(r, d),
                 _constant(0.5, 1.0), _TR, _TR, record=False),
        RunClass("power-rotation", "power_projection", d, L, iters,
                 _rotation(np.pi / 8, np.pi / 5, 0.85, 1.0, blocks=d // 2),
                 _power(0.5), _TR, _TR, record=False),
        RunClass("ball-near-identity", "step_and_project", d, L, iters // 2,
                 _near_identity, _ball(0.5), _TR, (), record=False),
        RunClass("penalty-neg-eig", "penalty_gd", d, L, iters, _neg_eig(),
                 _penalty, _TR, (), FLOOR, record=False),
    )


LARGE_RUNS = _large(8, 32, 80) + _large(12, 48, 40) + _large(16, 64, 24)

# (d, L) with L d^2 <= 1024; d stops at 8 because the d^4 x d^4 intermediate
# of network.full_hessian needs 8 d^8 bytes (about 34 GB at d = 16).
CURVATURE = ((4, 16), (2, 64), (2, 16), (3, 32), (3, 8), (4, 4), (5, 12),
             (5, 3), (6, 8), (6, 2), (7, 6), (7, 2), (8, 16), (8, 4))

RUN_VARIANTS = {"small-runs": 3, "large-runs": 2}
CURVATURE_VARIANTS = 3


def _rng(seed, *path):
    return np.random.default_rng([seed, *path])


def make_run_items(classes, seed, variants, lab) -> list:
    """``variants`` items per class.  The program builds the target from the
    config; ``lab.make_target`` is called here once, outside the timed
    section, to give the gate its reference."""
    items = []
    for k, cls in enumerate(classes):
        for v in range(variants):
            rng = _rng(seed, k, v)
            target = {**cls.target(rng, cls.d), "d": cls.d}
            phi = lab.make_target(lab.TargetSpec(**{
                key: tuple(val) if isinstance(val, list) else val
                for key, val in target.items()}))
            trainer = {"algorithm": cls.algorithm, "d": cls.d, "L": cls.L,
                       "max_iters": cls.max_iters, "epsilon": 0.0,
                       "record_spectra": cls.record, "record_layers": cls.record,
                       **cls.trainer(rng, cls, phi)}
            sid = f"{k:02d}-{v}-{cls.name}-d{cls.d}-L{cls.L}"
            items.append(RunItem(cls.name, _config(sid, target, trainer, cls.checks),
                                 phi, cls.expected, cls.guaranteed))
    return items


def _config(sid, target, trainer, checks) -> dict:
    return {"schema": 1, "scenario_id": sid, "target": target,
            "trainer": trainer, "checks": list(checks)}


def make_curvature_items(seed) -> list:
    """Layers ``I + B_k`` with ``||B_k||_2 < 0.3 / sqrt(L)`` keep every
    singular value above zero (gradient bound not vacuous); the target is
    scaled to a fraction 0.1..0.9 of ``(1 + z)^L`` (curvature precondition)."""
    items = []
    for k, (d, L) in enumerate(CURVATURE):
        for v in range(CURVATURE_VARIANTS):
            rng = _rng(seed, 100 + k, v)
            layers = []
            for _ in range(L):
                b = rng.standard_normal((d, d))
                b *= rng.uniform(0.0, 0.3 / np.sqrt(L)) / np.linalg.norm(b, 2)
                layers.append(np.eye(d) + b)
            z = max(0.0, max(float(np.linalg.norm(m, 2)) for m in layers) - 1.0)
            phi = rng.standard_normal((d, d))
            phi *= rng.uniform(0.1, 0.9) * (1.0 + z) ** L / np.linalg.norm(phi, 2)
            items.append(CurvatureItem(f"curvature-d{d}-L{L}", tuple(layers), phi))
    return items


def make_items(workload, seed, lab) -> list:
    """The workload's items in class order; item 0 is the warm-up item."""
    if workload == "small-runs":
        return make_run_items(SMALL_RUNS, seed, RUN_VARIANTS[workload], lab)
    if workload == "large-runs":
        return make_run_items(LARGE_RUNS, seed, RUN_VARIANTS[workload], lab)
    if workload == "curvature":
        return make_curvature_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


def cycle_order(n, seed) -> list:
    """Seeded order of the timed cycle over items 0..n-1."""
    return _rng(seed, 999).permutation(n).tolist()


def write_configs(items, workdir: Path):
    """Write each scenario config as JSON, as ``deeplin sweep`` reads them,
    with the run's artifact directory filled in."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = str(workdir / "artifacts")
    for item in items:
        if isinstance(item, RunItem):
            item.path = workdir / f"{item.config['scenario_id']}.json"
            item.path.write_text(json.dumps({**item.config, "output_dir": out}))


def digest(items) -> str:
    """sha256 over the generated inputs, independent of where they are written."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, RunItem):
            h.update(json.dumps(item.config, sort_keys=True).encode())
        else:
            for m in item.layers:
                h.update(np.ascontiguousarray(m).tobytes())
        h.update(np.ascontiguousarray(item.phi).tobytes())
    return h.hexdigest()


# --- execution --------------------------------------------------------------


class RunnerCapture:
    """Keeps the TrainingTrace of the last scenario so the gate can read its
    final layers.  ``ScenarioReport`` does not carry them, so each entry of
    ``lab.RUNNERS`` is wrapped for the life of the context and restored
    afterwards."""

    def __init__(self, lab):
        self.lab = lab
        self.last = None
        self._saved = {}

    def __enter__(self):
        self._saved = dict(self.lab.RUNNERS)
        for name, fn in self._saved.items():
            self.lab.RUNNERS[name] = self._capturing(fn)
        return self

    def _capturing(self, fn):
        def run(phi, cfg):
            self.last = fn(phi, cfg)
            return self.last
        return run

    def __exit__(self, *exc):
        self.lab.RUNNERS.update(self._saved)
        return False


def execute(item, dl):
    """The timed part of one item, through public functions only: the
    ``deeplin sweep --workers 1`` path for a run item, the two bound
    checkers for a curvature item."""
    if isinstance(item, RunItem):
        return dl.lab.run_scenario(dl.lab.load_scenario(item.path))
    net = dl.network.DeepLinearNet(item.layers)
    return (dl.verify.check_gradient_lower_bound(net, item.phi),
            dl.verify.check_hessian_upper_bound(net, item.phi))


# --- correctness gate ---------------------------------------------------------


def _loss(layers, phi) -> float:
    prod = np.eye(phi.shape[0])
    for m in layers:
        prod = m @ prod
    r = prod - phi
    return 0.5 * float(np.sum(r * r))


def gate(item, result, trace=None) -> list:
    """Reasons the item's result is wrong; empty when it passes."""
    if isinstance(item, CurvatureItem):
        return [f"{c.name}: {c.status} ({c.note})" for c in result if c.status != "pass"]
    problems = []
    if result.status not in item.expected:
        problems.append(f"status {result.status!r}, expected one of {list(item.expected)}")
    seen = set()
    for c in result.checks:
        seen.add(c.name)
        if c.status == "fail":
            problems.append(f"check {c.name} failed: {c.note}")
        elif c.status == "skipped" and c.name in item.guaranteed:
            problems.append(f"check {c.name} skipped although its precondition holds: {c.note}")
    for name in set(item.guaranteed) - seen:
        problems.append(f"check {name} missing from the report")
    csv = item.path.parent / "artifacts" / f"{item.config['scenario_id']}_trace.csv"
    if (result.iterations is None or not csv.is_file()
            or csv.read_bytes().count(b"\n") != result.iterations + 2):
        problems.append(f"{csv.name} does not hold a header and one row per iterate")
    if trace is None or not trace.final_layers or result.final_loss is None:
        problems.append("no final layers or final loss to verify")
    else:
        recomputed = _loss(trace.final_layers, item.phi)
        scale = max(abs(recomputed), abs(result.final_loss))
        if abs(recomputed - result.final_loss) > LOSS_RTOL * scale:
            problems.append(
                f"reported final loss {result.final_loss!r} but the final layers "
                f"give {recomputed!r}")
    return problems
