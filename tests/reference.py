"""The reference training loop, the oracle of ``trainers._train``.

``run(phi, cfg)`` computes the trace of ``RUNNERS[cfg.algorithm](phi, cfg)``
the plain way.  Every step allocates fresh arrays.  Each iterate gets its
own two values-only SVDs (of the layers and of the layers minus I) and,
with spectra, one ``eigvals`` of its loss product.  There is no recorder
pool and no fixed-point exit, and the ball projection decides every clip
by SVD.  Step sizes come from ``step_size_power_projection``,
``admissible_step`` and the schedule itself.  From the package it shares
only those, the gamma-positive projection, the balanced factorization and
the config and trace types.  Each expression keeps the production loop's
operation order, so the two traces are equal bit for bit.
"""

import numpy as np

from deeplin.factor import balanced_factorization
from deeplin.project import project_gamma_positive
from deeplin.trainers import (
    DIVERGE_LOSS,
    TrainerConfig,
    TrainingTrace,
    admissible_step,
    step_size_power_projection,
)


def svd_ball_kernel(stack, radius):
    """The ball projection of an (n, d, d) stack that decides every clip
    from the values-only SVD; ``stack`` itself when no matrix clips."""
    e = stack - np.eye(stack.shape[-1])
    clip = np.linalg.svd(e, compute_uv=False)[:, 0] > radius
    if not np.any(clip):
        return stack
    out = stack.copy()
    u, s, vt = np.linalg.svd(e[clip])
    out[clip] = np.eye(stack.shape[-1]) + u @ (np.minimum(s, radius)[:, :, None] * vt)
    return out


def _loss(residual):
    return 0.5 * float((residual * residual).sum())


def _products(layers):
    """P[k] = layers[k-1] ... layers[0] and S[k] = layers[L-1] ... layers[k]."""
    pre = suf = [np.eye(layers.shape[-1])]
    for m in layers:
        pre = pre + [np.dot(m, pre[-1])]
    for m in layers[::-1]:
        suf = [np.dot(suf[0], m)] + suf
    return np.array(pre), np.array(suf)


def _update(cfg, layers, grads, eta):
    if cfg.algorithm != "penalty_gd":
        return layers - eta * grads
    eye, kappa = np.eye(cfg.d), cfg.kappa
    if cfg.penalty_canonical:
        return (1.0 - kappa) * layers + kappa * eye - eta * grads
    return layers - eta * (grads + kappa * (layers - eye))


def _settle(cfg, phi, stepped):
    """The next iterate, the product its loss is taken from (None for its
    own) and the half-step loss."""
    if cfg.algorithm == "step_and_project":
        return svd_ball_kernel(stepped, cfg.psi), None, None
    if cfg.algorithm != "power_projection":
        return stepped, None, None
    half = np.eye(cfg.d)
    for m in stepped:
        half = m @ half
    loss_half = _loss(half - phi)
    projected = project_gamma_positive(half, cfg.gamma) if np.isfinite(half).all() else half
    if not _loss(projected - phi) <= DIVERGE_LOSS:
        return stepped, projected, loss_half
    # factors are in product order; layers apply in reversed order
    return balanced_factorization(projected, cfg.L).factors[::-1], projected, loss_half


def run(phi, cfg: TrainerConfig) -> TrainingTrace:
    """The trace of the run of ``cfg`` on ``phi``, computed the plain way."""
    d, L, eye = cfg.d, cfg.L, np.eye(cfg.d)
    phi = np.asarray(phi, dtype=float)
    top_sv = float(np.linalg.svd(phi, compute_uv=False)[0])
    mode = cfg.schedule.mode
    if mode == "default":
        mode = "admissible" if cfg.algorithm == "gd" else "power_projection"
    scale = 1.0 if cfg.algorithm in ("gd", "penalty_gd") else cfg.gamma ** (1.0 / L)
    layers = np.tile(scale * eye, (L, 1, 1))
    prod = cfg.gamma * eye if cfg.algorithm == "power_projection" else None
    rows, spectra, snapshots, etas = [], [], [], []
    radius, u_stat = 0.0, top_sv ** (1.0 / L)
    loss_half, last, status = None, None, "budget"
    for t in range(cfg.max_iters + 1):
        pre, suf = _products(layers)
        residual = pre[-1] - phi
        prod = pre[-1] if prod is None else prod
        loss_val = _loss(prod - phi)
        if not loss_val <= DIVERGE_LOSS:
            status = "diverged"
            break
        sv = np.linalg.svd(layers, compute_uv=False)
        radius = max(radius, float(np.linalg.svd(layers - eye, compute_uv=False).max()))
        u_stat = max(u_stat, float(sv.max()))
        rows.append((loss_val, np.nan if loss_half is None else loss_half,
                     radius, float(sv.min()), float(sv.max()), u_stat))
        if cfg.record_spectra:
            spectra.append(np.sort_complex(np.linalg.eigvals(prod)))
        if cfg.record_layers:
            snapshots.append(layers)
        last = layers
        if loss_val <= cfg.epsilon:
            status = "converged"
            break
        if t == cfg.max_iters:
            break
        if mode == "admissible":
            eta = admissible_step(d, L, top_sv**2, radius, loss_val)
        elif mode == "power_projection":
            eta = step_size_power_projection(phi, L)
        else:
            eta = cfg.schedule.step(t)
        etas.append(eta)
        grads = suf[1:].transpose(0, 2, 1) @ residual @ pre[:-1].transpose(0, 2, 1)
        layers = _update(cfg, layers, grads, eta)
        if not np.isfinite(layers).all():
            status = "diverged"
            break
        layers, prod, loss_half = _settle(cfg, phi, layers)
    columns = np.array(rows, dtype=float).reshape(-1, 6).T.copy()
    return TrainingTrace(
        cfg.algorithm, d, L, *columns,
        np.array(spectra) if spectra else None, np.array(snapshots) if snapshots else None,
        etas, status, () if last is None else tuple(last), cfg.gamma,
    )
