"""Checkers that certify gradients, curvature bounds, and trace recurrences.

Every checker returns a CheckReport.  A report passes iff it observed zero
violations; precondition failures yield a skipped report instead of a
crash.  Bound checks carry a 1e-12 absolute slack on top of the stated
tolerances.

The trace checkers are array expressions over a trace's columns: each
computes its excesses for every row at once, counts the rows in violation
and takes the first row with the largest excess as its witness.

The finite-difference checks evaluate the loss directly from flattened
parameters and never touch the analytic derivative code, so they are an
independent oracle for it.  Only ``fd_hessian_check`` assembles the
second-derivative matrix H and is capped by MAX_HESSIAN_SIDE; the curvature
bound reads ||H||_F from ``network.hessian_frob_norm``.

Note on conventions: the loss is 0.5 ||product - target||_F^2 throughout
the package.  The classical gradient lower bound and the induced loss
contraction are stated in the unhalved convention; translated to the halved
loss they read ||grad||^2 >= 2 loss L (1-a)^(2L) (tight at the identity)
and loss(t+1) <= (1 - eta L (1-R)^(2L)) loss(t).  Those are the forms
checked here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .matcore import (
    ABS_FLOOR, MAX_HESSIAN_SIDE, _power, frob_norm, is_symmetric, op_norm, sym,
)
from .network import (
    DeepLinearNet, full_gradient, full_hessian, hessian_frob_norm, loss, product,
)
from .trainers import TrainingTrace

SLACK = 1e-12


@dataclass
class CheckReport:
    """Outcome of one checker: instance count, violation count, and the
    worst witness (enough to replay the violated inequality)."""

    name: str
    instances: int
    violations: int
    worst: dict | None = None
    status: str = "pass"
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.status != "fail"

    def to_dict(self) -> dict:
        return asdict(self)


def _finish(name, instances, violations, worst, note="") -> CheckReport:
    status = "fail" if violations else "pass"
    return CheckReport(name, instances, violations, worst, status, note)


def _skipped(name, note) -> CheckReport:
    return CheckReport(name, 0, 0, None, "skipped", note)


def _flatten(layers: np.ndarray) -> np.ndarray:
    """Layer-major, column-major flattening of an (L, d, d) stack."""
    return layers.transpose(0, 2, 1).ravel()


def _loss_flat(x: np.ndarray, phi: np.ndarray, d: int, L: int) -> float:
    """Loss from a flat parameter vector; shares only the product convention
    with the analytic code."""
    dd = d * d
    prod = np.eye(d)
    for k in range(L):
        prod = x[k * dd : (k + 1) * dd].reshape(d, d, order="F") @ prod
    r = prod - phi
    return 0.5 * float(np.sum(r * r))


def _check_h(h: float):
    if not 1e-8 < h < 1e-2:
        raise ValueError(f"finite-difference step {h} outside the sane range")


def fd_gradient_check(net: DeepLinearNet, phi, h: float = 1e-5, tol: float = 1e-6) -> CheckReport:
    """Central differences against the analytic gradient.

    The error is the max-entry deviation relative to the larger gradient
    scale, with an absolute floor so exact zeros compare clean.
    """
    _check_h(h)
    phi = np.asarray(phi, dtype=float)
    d, L = net.d, net.L
    n = L * d * d
    x = _flatten(net.layers)
    g_fd = np.empty(n)
    for i in range(n):
        xp = x.copy()
        xp[i] += h
        fp = _loss_flat(xp, phi, d, L)
        xp[i] -= 2.0 * h
        fm = _loss_flat(xp, phi, d, L)
        g_fd[i] = (fp - fm) / (2.0 * h)
    g_an = _flatten(full_gradient(net, phi))
    scale = max(np.max(np.abs(g_an)), np.max(np.abs(g_fd)), ABS_FLOOR)
    err = float(np.max(np.abs(g_an - g_fd)) / scale)
    violations = int(err > tol)
    worst = None
    if violations:
        idx = int(np.argmax(np.abs(g_an - g_fd)))
        worst = {
            "relative_error": err,
            "tolerance": tol,
            "entry": idx,
            "analytic": float(g_an[idx]),
            "finite_difference": float(g_fd[idx]),
            "layers": net.layers.tolist(),
            "target": phi.tolist(),
            "h": h,
        }
    return _finish("fd_gradient", 1, violations, worst, f"relative error {err:.3e}")


def fd_hessian_check(net: DeepLinearNet, phi, h: float = 1e-3, tol: float = 1e-4) -> CheckReport:
    """Second-order central differences against the assembled
    second-derivative matrix, compared entrywise in absolute terms."""
    _check_h(h)
    d, L = net.d, net.L
    n = L * d * d
    if n > MAX_HESSIAN_SIDE:
        return _skipped(
            "fd_hessian", f"second-derivative side {n} exceeds the bound {MAX_HESSIAN_SIDE}"
        )
    phi = np.asarray(phi, dtype=float)
    x = _flatten(net.layers)
    h_fd = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            xp = x.copy()
            xp[i] += h
            xp[j] += h
            fpp = _loss_flat(xp, phi, d, L)
            xp[j] -= 2.0 * h
            fpm = _loss_flat(xp, phi, d, L)
            xp[i] -= 2.0 * h
            fmm = _loss_flat(xp, phi, d, L)
            xp[j] += 2.0 * h
            fmp = _loss_flat(xp, phi, d, L)
            val = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
            h_fd[i, j] = val
            h_fd[j, i] = val
    h_an = full_hessian(net, phi)
    err = float(np.max(np.abs(h_an - h_fd)))
    violations = int(err > tol)
    worst = None
    if violations:
        flat_idx = int(np.argmax(np.abs(h_an - h_fd)))
        i, j = divmod(flat_idx, n)
        worst = {
            "absolute_error": err,
            "tolerance": tol,
            "entry": [i, j],
            "analytic": float(h_an[i, j]),
            "finite_difference": float(h_fd[i, j]),
            "layers": net.layers.tolist(),
            "target": phi.tolist(),
            "h": h,
        }
    return _finish("fd_hessian", 1, violations, worst, f"absolute error {err:.3e}")


def check_gradient_lower_bound(net: DeepLinearNet, phi) -> CheckReport:
    """Steepness bound: ||grad||^2 >= 2 loss L (1-a)^(2L), where 1 - a is
    a floor on the layer singular values (a clamped at 0, since the bound
    parameterizes a floor, not the exact minimum).  Tight at identity
    layers.  Skipped when a >= 1 (the bound is vacuous there)."""
    phi = np.asarray(phi, dtype=float)
    a = max(0.0, 1.0 - float(net.singular_values.min()))
    if a >= 1.0:
        return _skipped("gradient_lower_bound", f"vacuous margin (a={a:.3f})")
    lval = loss(net, phi)
    g = full_gradient(net, phi)
    lhs = float(np.sum(g * g))
    rhs = 2.0 * lval * net.L * (1.0 - a) ** (2 * net.L)
    violations = int(lhs < rhs - SLACK)
    worst = None
    if violations:
        worst = {
            "lhs_grad_sq": lhs,
            "rhs_bound": rhs,
            "a": a,
            "loss": lval,
            "layers": net.layers.tolist(),
            "target": phi.tolist(),
        }
    return _finish(
        "gradient_lower_bound", 1, violations, worst,
        f"lhs {lhs:.6e} vs bound {rhs:.6e}",
    )


def check_hessian_upper_bound(net: DeepLinearNet, phi) -> CheckReport:
    """Curvature bound: ||hessian||_F <= 3 L d^5 (1+z)^(2L) with
    1 + z = max layer operator norm (at least 1).  Requires
    ||phi||_2 <= (1+z)^L; otherwise skipped, and skipped too when the
    bound passes the float range.  The left side is ``hessian_frob_norm``,
    which never forms the matrix, so no network is too wide."""
    phi = np.asarray(phi, dtype=float)
    z = max(0.0, float(net.singular_values[:, 0].max()) - 1.0)
    if op_norm(phi) > _power(1.0 + z, net.L):
        return _skipped(
            "hessian_upper_bound",
            "target norm exceeds (1+z)^L; precondition unmet",
        )
    rhs = 3.0 * net.L * net.d**5 * _power(1.0 + z, 2 * net.L)
    if not math.isfinite(rhs):
        return _skipped(
            "hessian_upper_bound",
            f"bound 3 L d^5 (1+z)^(2L) is not finite (z={z:.3e}, L={net.L})",
        )
    lhs = hessian_frob_norm(net, phi)
    violations = int(lhs > rhs + SLACK)
    worst = None
    if violations:
        worst = {
            "lhs_hessian_frob": lhs,
            "rhs_bound": rhs,
            "z": z,
            "layers": net.layers.tolist(),
            "target": phi.tolist(),
        }
    return _finish(
        "hessian_upper_bound", 1, violations, worst,
        f"lhs {lhs:.6e} vs bound {rhs:.6e}",
    )


# Frobenius norm of each matrix in a stack
_frobs = partial(np.linalg.norm, axis=(-2, -1))


def _tally(value: np.ndarray, bad: np.ndarray, witness):
    """The number of rows in violation, and the witness: ``t`` and
    ``witness(t)`` for the first row t holding the largest value, or None
    when no value exceeds -inf."""
    if not np.any(value > -np.inf):
        return int(np.count_nonzero(bad)), None
    t = int(np.argmax(value))
    return int(np.count_nonzero(bad)), {"t": t, **witness(t)}


def check_commuting_normal(trace: TrainingTrace, phi, tol: float = 1e-9) -> CheckReport:
    """For symmetric targets: every recorded end-to-end product commutes
    with the target, and on the gd/penalty paths all layers stay equal.
    Needs layer snapshots in the trace."""
    phi = np.asarray(phi, dtype=float)
    if not is_symmetric(phi):
        return _skipped(
            "commuting_normal", "commuting-normal check requires a symmetric target"
        )
    if trace.layers is None:
        return _skipped("commuting_normal", "trace has no layer snapshots")
    layers = trace.layers
    prods = product(layers)
    comm_scale = np.maximum(1.0, _frobs(prods) * frob_norm(phi))
    comm = _frobs(prods @ phi - phi @ prods) / comm_scale
    spread = np.zeros_like(comm)
    if trace.algorithm in ("gd", "penalty_gd"):
        spread = _frobs(layers - layers[:, :1]).max(axis=1)
    value = np.maximum(comm, spread)
    violations, worst = _tally(value, value > tol, lambda t: {
        "commutator": float(comm[t]),
        "layer_spread": float(spread[t]),
        "tolerance": tol,
    })
    return _finish(
        "commuting_normal", len(value), violations, worst,
        f"worst deviation {value.max():.3e}",
    )


def simulate_scalar_recurrence(target_power, L: int, etas, steps: int) -> np.ndarray:
    """Iterate v <- v + eta v^(L-1) (target_power - v^L) from v = 1,
    elementwise when ``target_power`` is an array; returns the sequence,
    of shape (steps + 1,) + the shape of ``target_power``.  This is the
    exact per-eigenvalue evolution of simultaneous gradient descent on
    commuting symmetric iterates."""
    target_power = np.asarray(target_power, dtype=float)
    out = np.empty((steps + 1,) + target_power.shape)
    v = np.ones_like(target_power)
    out[0] = v
    for t in range(steps):
        eta = float(etas[min(t, len(etas) - 1)]) if len(etas) else 0.0
        v = v + eta * v ** (L - 1) * (target_power - v**L)
        out[t + 1] = v
    return out


def eigen_recurrence_check(trace: TrainingTrace, phi, tol: float = 1e-9) -> CheckReport:
    """Symmetric targets on the gd path: recorded product eigenvalues must
    match the scalar recurrence simulation, and simulated per-layer values
    must stay bracketed between 1 and the target root (when it is real)."""
    phi = np.asarray(phi, dtype=float)
    if not is_symmetric(phi):
        return _skipped(
            "eigen_recurrence", "eigenvalue recurrence check requires a symmetric target"
        )
    if trace.eigenvalues is None:
        return _skipped("eigen_recurrence", "trace has no recorded spectra")
    L = trace.L
    mu = np.linalg.eigvalsh(sym(phi))
    sims = simulate_scalar_recurrence(mu, L, trace.etas, len(trace.eigenvalues) - 1)
    recorded = np.sort_complex(trace.eigenvalues)
    mismatch = np.max(np.abs(recorded - np.sort(sims**L, axis=1)), axis=1)
    positive = mu > 0.0
    lam = np.where(positive, mu, 1.0) ** (1.0 / L)
    lo, hi = np.minimum(1.0, lam), np.maximum(1.0, lam)
    inside = (lo - SLACK <= sims) & (sims <= hi + SLACK)
    bracket_bad = np.any(positive & ~inside, axis=1)
    violations, worst = _tally(mismatch, (mismatch > tol) | bracket_bad, lambda t: {
        "mismatch": float(mismatch[t]),
        "bracket_violated": bool(bracket_bad[t]),
        "tolerance": tol,
    })
    return _finish(
        "eigen_recurrence", len(mismatch), violations, worst,
        f"worst mismatch {mismatch.max():.3e}",
    )


def _gd_recurrences(trace: TrainingTrace, phi: np.ndarray, tol: float) -> CheckReport:
    L, d = trace.L, trace.d
    phi_op_sq = op_norm(phi) ** 2
    steps = min(len(trace.losses) - 1, len(trace.etas))
    eta = np.array(trace.etas[:steps], dtype=float)
    loss, loss_next = trace.losses[:steps], trace.losses[1 : steps + 1]
    radius, radius_next = trace.radii[:steps], trace.radii[1 : steps + 1]
    # radius growth
    r_bound = radius + eta * (1.0 + radius) ** L * np.sqrt(2.0 * loss)
    r_excess = radius_next - r_bound - tol
    # conditional loss contraction
    admissible = eta <= 1.0 / (
        3.0 * L * d**5 * np.maximum((1.0 + radius_next) ** (2 * L), phi_op_sq)
    )
    factor = 1.0 - eta * L * (1.0 - radius) ** (2 * L)
    l_excess = np.where(admissible, loss_next - factor * loss - tol, -np.inf)
    value = np.maximum(r_excess, l_excess)
    violations, worst = _tally(value, value > 0.0, lambda t: {
        "radius_excess": float(r_excess[t]),
        "loss_excess": float(l_excess[t]) if np.isfinite(l_excess[t]) else None,
        "eta": trace.etas[t],
    })
    return _finish(
        "trace_recurrence", steps, violations, worst,
        "radius growth and conditional loss contraction",
    )


def _power_recurrences(trace: TrainingTrace, phi: np.ndarray, tol: float) -> CheckReport:
    L, gamma = trace.L, trace.gamma
    losses, halves = trace.losses, trace.loss_halves
    rows = len(losses)
    steps = min(rows - 1, len(trace.etas))
    # the contraction chain holds from row 1 to row ``steps``
    chain = slice(1, steps + 1)
    factor = 1.0 - np.array(trace.etas[:steps], dtype=float) * L * gamma**2
    excesses = {
        "projection_vs_half": np.full(rows, -np.inf),
        "half_vs_contraction": np.full(rows, -np.inf),
        "min_sv_floor": gamma ** (1.0 / L) - 1e-9 - trace.min_svs,
        "u_bound": trace.u_stats
        - ((np.sqrt(2.0 * losses) + frob_norm(phi)) ** (1.0 / L) + 1e-9),
    }
    excesses["projection_vs_half"][chain] = losses[chain] - halves[chain] - tol
    excesses["half_vs_contraction"][chain] = (
        halves[chain] - factor * losses[:steps] - tol
    )
    value = np.max(list(excesses.values()), axis=0)
    # the witness shows the chain terms only on rows where the chain holds
    violations, worst = _tally(value, value > 0.0, lambda t: {
        k: float(v[t]) for k, v in excesses.items() if 1 <= t <= steps or v[t] > -np.inf
    })
    return _finish(
        "trace_recurrence", rows, violations, worst,
        "contraction chain, singular value floor, norm growth cap",
    )


def trace_recurrence_check(trace: TrainingTrace, phi, tol: float = SLACK) -> CheckReport:
    """Per-step recurrences selected by the trace's algorithm tag.

    gd: radius growth bound at every step, and whenever the step is within
    the conservative admissibility bound, the loss contraction
    loss(t+1) <= (1 - eta L (1-R(t))^(2L)) loss(t).

    power_projection: loss(t+1) <= half-step loss <= (1 - eta L gamma^2)
    loss(t), layer singular values >= gamma^(1/L) - 1e-9, and the running
    norm statistic capped by (sqrt(2 loss) + ||phi||_F)^(1/L) + 1e-9.

    Other algorithms carry no per-step guarantee and yield a skipped report.
    """
    phi = np.asarray(phi, dtype=float)
    if len(trace.losses) == 0:
        return _skipped("trace_recurrence", "empty trace")
    if trace.algorithm == "gd":
        return _gd_recurrences(trace, phi, tol)
    if trace.algorithm == "power_projection":
        return _power_recurrences(trace, phi, tol)
    return _skipped(
        "trace_recurrence",
        f"no per-step recurrence for algorithm {trace.algorithm!r}",
    )
