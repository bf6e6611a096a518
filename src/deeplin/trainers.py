"""Trainers for the deep linear model, all driven by one training loop.

``_train`` starts from scaled identity layers, held as one ``(L, d, d)``
array, and updates every layer simultaneously from the same pre-step
iterate; its docstring describes the workspace and the fixed-point exit.
It owns the loss, the divergence, convergence and budget stops, the trace
rows, the step-size schedule and the gradient step.  A step that leaves
the layers, or the product the loss is taken from, non-finite ends the run
as ``diverged`` with the last finite iterate kept.  The trainers of
``RUNNERS`` differ only in the update rule and an optional settle step.

A trace holds one row per iterate, including t = 0, stored as columns (one
array per statistic), and is deterministic: the loop draws no randomness.
``_Recorder`` takes its statistics.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import ConfigError, NumericError, _check_fields
from .factor import balanced_factorization
from .matcore import _power, as_mat, eye, frob_norm, op_norm
from .network import _chain, product, residual_loss
from .project import IdentityBall, gamma_margin, project_gamma_positive, project_identity_ball

DIVERGE_LOSS = 1e12
# Cap on the (max_iters + 1) * L * d^2 entries that record_layers may keep:
# 128 MiB of float64, the size of the largest Hessian.
_MAX_RECORDED_ENTRIES = matcore.MAX_HESSIAN_SIDE**2
# The recorder takes its statistics in chunks of about this many layer
# entries (256 KiB of float64), at least one iterate per chunk.
_CHUNK_ENTRIES = 2**15
_POOL = None  # created by _pool on first use


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes over iterations.

    Modes: ``constant`` uses ``eta`` every step; ``sequence`` walks ``etas``
    (repeating the last entry past the end); ``admissible`` (gd only)
    re-evaluates the conservative radius-aware bound each iteration;
    ``default`` resolves to the algorithm's standard choice at run time,
    which is the admissible bound for gd and the standard constant for the
    power projection trainer.
    """

    mode: str = "constant"
    eta: float = 0.0
    etas: tuple[float, ...] = ()

    def validate(self, algorithm: str):
        _check_fields(self, "schedule")
        # eta = 0 is a legal no-op step (the kappa = 1 penalty fixed point
        # needs it); negative and non-finite steps are rejected
        if self.mode == "constant":
            if not 0.0 <= self.eta < math.inf:
                raise ConfigError("constant schedule needs a finite eta >= 0")
        elif self.mode == "sequence":
            if len(self.etas) == 0 or not all(0.0 <= e < math.inf for e in self.etas):
                raise ConfigError("sequence schedule needs finite nonnegative entries")
        elif self.mode == "admissible":
            if algorithm != "gd":
                raise ConfigError("admissible schedule is defined for gd only")
        elif self.mode == "default":
            if algorithm not in ("gd", "power_projection"):
                raise ConfigError(
                    f"no default step size for algorithm {algorithm!r}"
                )
        else:
            raise ConfigError(f"unknown schedule mode {self.mode!r}")

    def step(self, t: int) -> float:
        if self.mode == "constant":
            return float(self.eta)
        if self.mode == "sequence":
            return float(self.etas[min(t, len(self.etas) - 1)])
        raise ConfigError(f"schedule mode {self.mode!r} has no direct step")


@dataclass(frozen=True)
class TrainerConfig:
    """Run parameters.  Exactly the fields demanded by the algorithm tag are
    consulted; the rest are ignored by that run."""

    algorithm: str
    d: int
    L: int
    schedule: StepSchedule = StepSchedule("default")
    gamma: float = 0.0
    psi: float = 0.0
    kappa: float = 0.0
    max_iters: int = 1000
    epsilon: float = 0.0
    record_spectra: bool = False
    record_layers: bool = False
    penalty_canonical: bool = True

    def validate(self):
        _check_fields(self, "trainer")
        if self.algorithm not in RUNNERS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not 1 <= self.d <= matcore.MAX_DIM:
            raise ConfigError(f"d={self.d} outside [1, {matcore.MAX_DIM}]")
        if not 1 <= self.L <= matcore.MAX_LAYERS:
            raise ConfigError(f"L={self.L} outside [1, {matcore.MAX_LAYERS}]")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be nonnegative")
        if not self.epsilon >= 0.0:
            raise ConfigError("epsilon must be nonnegative")
        recorded = (self.max_iters + 1) * self.L * self.d**2
        if self.record_layers and recorded > _MAX_RECORDED_ENTRIES:
            raise ConfigError(
                f"record_layers would keep {recorded} entries "
                f"((max_iters + 1) * L * d^2), above the cap {_MAX_RECORDED_ENTRIES}"
            )
        self.schedule.validate(self.algorithm)
        if self.algorithm in ("power_projection", "step_and_project"):
            if not self.gamma > 0.0:
                raise ConfigError(f"{self.algorithm} needs gamma > 0")
        if self.algorithm == "step_and_project" and not self.psi >= 0.0:
            raise ConfigError("psi must be nonnegative")
        if self.algorithm == "penalty_gd" and not 0.0 <= self.kappa <= 1.0:
            raise ConfigError("kappa must lie in [0, 1]")


@dataclass
class TrainingTrace:
    """One row per iterate, t = 0 included, held as columns, plus the step
    sizes actually used.

    ``loss_halves`` is NaN on rows without a half-step loss; ``radii`` and
    ``u_stats`` are running maxima and therefore nondecreasing.
    ``eigenvalues`` (rows, d) and ``layers`` (rows, L, d, d) are None when
    not recorded or when there are no rows.  ``etas[t]`` is the step taken
    from iterate t to t + 1, so there is one fewer entry than rows unless
    the run diverged mid-step.
    """

    algorithm: str
    d: int
    L: int
    losses: np.ndarray
    loss_halves: np.ndarray
    radii: np.ndarray
    min_svs: np.ndarray
    max_norms: np.ndarray
    u_stats: np.ndarray
    eigenvalues: np.ndarray | None = None
    layers: np.ndarray | None = None
    etas: list = field(default_factory=list)
    status: str = "budget"
    final_layers: tuple = ()
    gamma: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.losses) - 1

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])


def step_size_symmetric_target(phi, L: int) -> float:
    """Standard constant step for symmetric positive definite targets:
    1 / (L (1 + ||phi||_2^2))."""
    return 1.0 / (L * (1.0 + _power(op_norm(phi), 2)))


def step_size_power_projection(phi, L: int, c: float = 3.0) -> float:
    """Standard constant step for the power projection trainer:
    1 / (c L d^5 ||phi||_F^2), undefined for a zero target and infinite
    where the scale underflows to 0."""
    phi = as_mat(phi)
    if not phi.any():
        raise ConfigError("the standard power projection step needs a nonzero target")
    d = phi.shape[0]
    scale = c * L * d**5 * _power(frob_norm(phi), 2)
    return 1.0 / scale if scale else math.inf


def admissible_step(d: int, L: int, phi_op_sq: float, radius: float, loss_val: float) -> float:
    """Radius-aware conservative step bound, re-evaluated per iteration.

    A trial step at the loosest bound produces a candidate next radius via
    the radius growth inequality; the returned step is the bound evaluated
    at that candidate, which overestimates the realized radius, so the
    result stays admissible.
    """
    base = 3.0 * L * d**5
    trial = 1.0 / (base * max(1.0, phi_op_sq))
    candidate = radius + trial * (1.0 + radius) ** L * np.sqrt(2.0 * loss_val)
    return 1.0 / (base * max((1.0 + candidate) ** (2 * L), phi_op_sq))


def _prepare(phi, cfg: TrainerConfig, algorithm: str) -> np.ndarray:
    cfg.validate()
    if cfg.algorithm != algorithm:
        raise ConfigError(f"run_{algorithm} requires algorithm tag {algorithm!r}")
    if np.shape(phi) != (cfg.d, cfg.d):
        raise ConfigError(
            f"target shape {np.shape(phi)} does not match configured d={cfg.d}"
        )
    return as_mat(phi, name="target")


def _chunk_stats(chunk, prods, eye):
    """The order-free statistics of a chunk of iterates: each iterate's
    smallest and largest layer singular value and largest deviation from
    I, and the sorted spectra of ``prods`` (None without).  Calls numpy
    only, so it may run on a pool thread; LAPACK failures become
    NumericError."""
    n = len(chunk)
    try:
        sv = np.linalg.svd(chunk, compute_uv=False).reshape(n, -1)
        dev = np.linalg.svd(chunk - eye, compute_uv=False).reshape(n, -1)
        spectra = None if prods is None else np.sort_complex(np.linalg.eigvals(prods))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"recorder statistics failed: {exc}") from exc
    return sv.min(axis=1), sv.max(axis=1), dev.max(axis=1), spectra


def _usable_cpus() -> int:
    """CPUs this process may run on; bounds the recorder pool and sweep."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size() -> int:
    """Recorder pool threads: one, for the one chunk job a recorder has in
    flight, and none on one CPU."""
    return int(_usable_cpus() > 1)


def _pool():
    """The recorder's thread pool, created on first use and kept for the
    process; None on one CPU."""
    global _POOL
    if _POOL is None and (size := _pool_size()):
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(size, thread_name_prefix="deeplin-recorder")
    return _POOL


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class _Recorder:
    """Trace rows and the running radius and norm statistics, taken a chunk
    of iterates at a time.

    ``add`` copies each iterate's layers (and, with spectra, its loss
    product) into a chunk buffer of ``_CHUNK_ENTRIES // (L d^2)`` iterates,
    at least one.  ``_chunk_stats`` takes a chunk's statistics with the same
    LAPACK call per matrix that per-iterate calls would make, so the values
    are theirs.  A full chunk goes to the pool of ``_pool`` when no job is
    running (a finished one is collected first), and the loop fills the
    other of two buffers meanwhile (numpy releases the GIL in those calls);
    a chunk that fills while the job runs is taken inline.  So at most one
    job is in flight, and the second buffer and the pool are made only when
    a chunk first goes to the pool.  What depends on order stays on this
    thread, in chunk order: the recorded layers grow as a chunk is
    submitted or taken inline, and the running maxima, tables and spectra
    are taken up as chunks are collected.  The same calls on the same bytes
    give the same values on any thread, so the trace is bitwise that of
    taking every chunk inline, as is done without a pool.

    ``columns`` and ``repeat`` take the partial last chunk inline while the
    job finishes, so a run that never fills a chunk starts no thread and
    never waits on one.  ``radius``, read every step by the admissible
    schedule, flushes on its first read only; later reads take the
    deviation SVD of the rows added since.  Recorded layers grow in place,
    so the snapshots are held once and handed to the trace without a copy.
    """

    def __init__(self, phi: np.ndarray, cfg: TrainerConfig):
        d, L = cfg.d, cfg.L
        self.size = max(1, _CHUNK_ENTRIES // (L * d * d))
        self.shape = (L, d, d)
        self.spectra_on = cfg.record_spectra
        self.eye = eye(d)
        self.slot = self._new_slot()
        self.other = None  # the second buffer, made for the first job
        self.job = None  # the pool's job on the chunk in ``other``
        self.n = 0
        self.tables: list = []
        self.spectra: list = []
        self.layers = np.empty((0, L, d, d)) if cfg.record_layers else None
        self.carry = (0.0, op_norm(phi) ** (1.0 / L))
        self.peak = None  # the running radius, once ``radius`` was read
        self.seen = 0  # rows of the current chunk folded into ``peak``

    def _new_slot(self):
        """A chunk buffer: layers, loss products (with spectra) and the
        table with rows loss, half-step loss, radius, min sv, max norm, U_t."""
        size, d = self.size, self.shape[-1]
        prods = np.empty((size, d, d)) if self.spectra_on else None
        return np.empty((size, *self.shape)), prods, np.empty((6, size))

    def add(self, layers, prod, loss_val, loss_half):
        buf, prods, table = self.slot
        n = self.n
        buf[n] = layers
        if prods is not None:
            prods[n] = prod
        table[:2, n] = loss_val, np.nan if loss_half is None else loss_half
        self.n = n + 1
        if self.n == self.size:
            self._submit()

    @property
    def radius(self) -> float:
        """The running radius R_t up to the last added iterate.  The first
        read flushes; later reads fold in only the deviation SVD of the rows
        added since.  A max is exact, so the value is the flush's."""
        if self.peak is None:
            self._flush()
            self.peak = float(self.carry[0])
        else:
            self._peek(self.n)
        return self.peak

    def _peek(self, n):
        """Fold the largest deviation from I of rows ``seen..n`` of the
        current chunk into ``peak``."""
        if n > self.seen:
            try:
                dev = np.linalg.svd(self.slot[0][self.seen:n] - self.eye, compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"recorder statistics failed: {exc}") from exc
            self.peak = max(self.peak, float(dev.max()))
            self.seen = n

    def repeat(self, k):
        """Append k copies of the last row, spectrum and recorded layers:
        the rows that ``add`` of the last iterate k more times would give."""
        self._flush()
        self.tables.append(np.repeat(self.tables[-1][:, -1:], k, axis=1))
        if self.spectra:
            self.spectra.append(np.repeat(self.spectra[-1][-1:], k, axis=0))
        if self.layers is not None:
            last = self.layers[-1].copy()  # growing the snapshots moves them
            self._grow_layers(np.broadcast_to(last, (k, *self.shape)))

    def _submit(self):
        """Hand the full chunk to the pool and move to the other buffer, or
        take it inline while the job in flight runs."""
        if self.peak is not None:
            self._peek(self.size)
        pool = _pool()
        if self.job is not None and self.job.done():
            self._collect()
        if pool is None or self.job is not None:
            self._flush()
            return
        buf, prods, _ = self.slot
        self._grow_layers(buf)
        self.job = pool.submit(_chunk_stats, buf, prods, self.eye)
        self.n = self.seen = 0
        self.slot, self.other = self.other or self._new_slot(), self.slot

    def _collect(self):
        """Take up the job's statistics, which frees the other buffer."""
        job, self.job = self.job, None
        self._take_up(self.other[2], job.result())

    def _flush(self):
        """Take the partial chunk's statistics inline while the job in
        flight finishes, then take up the job's and the partial's, in order."""
        n, self.n, self.seen = self.n, 0, 0
        if n:
            buf, prods, table = self.slot
            stats = _chunk_stats(buf[:n], None if prods is None else prods[:n], self.eye)
        if self.job is not None:
            self._collect()
        if n:
            self._grow_layers(buf[:n])
            self._take_up(table[:, :n], stats)

    def _grow_layers(self, chunk):
        if self.layers is not None:
            m = len(self.layers)
            # in place (realloc): no view of the snapshots is alive here
            self.layers.resize((m + len(chunk), *self.shape), refcheck=False)
            self.layers[m:] = chunk

    def _take_up(self, table, stats):
        min_sv, max_norm, max_dev, spectra = stats
        table[3], table[4] = min_sv, max_norm
        # running maxima, seeded with the values carried from the last chunk
        np.maximum(np.maximum.accumulate(max_dev), self.carry[0], out=table[2])
        np.maximum(np.maximum.accumulate(table[4]), self.carry[1], out=table[5])
        self.carry = (table[2, -1], table[5, -1])
        self.tables.append(table.copy())
        if spectra is not None:
            self.spectra.append(spectra)

    def columns(self) -> tuple:
        """The rows as the trace's columns, in its field order."""
        self._flush()
        stats = np.concatenate([np.empty((6, 0)), *self.tables], axis=1)
        spectra = np.concatenate(self.spectra) if self.spectra else None
        layers = self.layers if self.layers is not None and len(self.layers) else None
        return (*stats, spectra, layers)


def _step_size(phi: np.ndarray, cfg: TrainerConfig):
    """The schedule as a function of (t, recorder, loss); only the
    admissible bound reads the recorder's running radius."""
    schedule = cfg.schedule
    if schedule.mode == "admissible" or (
        schedule.mode == "default" and cfg.algorithm == "gd"
    ):
        phi_op_sq = _power(op_norm(phi), 2)
        return lambda t, rec, loss_val: admissible_step(
            cfg.d, cfg.L, phi_op_sq, rec.radius, loss_val
        )
    if schedule.mode == "default":
        schedule = StepSchedule("constant", step_size_power_projection(phi, cfg.L))
    return lambda t, rec, loss_val: schedule.step(t)


def _plain_step(layers, grads, eta, out):
    """The gradient step ``layers - eta * grads``, written into ``out``;
    ``grads`` is scratch."""
    np.multiply(grads, eta, out=grads)
    np.subtract(layers, grads, out=out)


def _train(
    phi, cfg: TrainerConfig, scale=1.0, update=_plain_step, settle=None, prod=None
):
    """The training loop shared by every trainer, from layers scale * I.

    ``update(layers, grads, eta, out)`` writes the stepped (L, d, d) layers
    into ``out`` and may overwrite ``grads``.  ``settle(stepped)``, when
    given, returns ``(layers, prod, loss_half)``: the next iterate (which
    may be ``stepped`` itself), the product its loss is taken from (None
    for the layers' own product), and the half-step loss to record with it.
    ``prod`` plays the same role for the start.

    The run allocates its workspace once: two layer buffers, the prefix and
    suffix stacks with P[0] = S[L] = I, the gradient scratch, and for each
    buffer the ``network._chain`` triples that refill the stacks from it.
    A step writes only into the idle buffer, making the same calls as on
    fresh arrays, so the trace is that of fresh arrays and the last finite
    iterate is kept by reference when the next step diverges.

    Before the update writes the idle buffer, that buffer still holds the
    previous iterate.  On a step whose loss equals the previous row's, the
    two buffers are compared byte for byte (as int64, so -0.0 differs from
    0.0).  If they match, the step size repeats and the schedule no longer
    reads t (any mode but ``sequence`` before its last entry), then the
    step map gets the same bytes through the same calls as on the step
    before, the admissible bound included.  Every later row, step size,
    spectrum and snapshot would repeat too, so the loop appends them up to
    ``max_iters`` (``rec.repeat``) and ends as ``budget``, as the full run
    would.  A loss taken from a settled product (power projection) can
    first repeat a step after the layers do, which only delays the exit.
    """
    step_size = _step_size(phi, cfg)
    rec = _Recorder(phi, cfg)
    L, d = cfg.L, cfg.d
    bufs = np.empty((2, L, d, d))
    bufs[0] = scale * eye(d)
    pre, suf = np.empty((2, L + 1, d, d))
    pre[0] = suf[L] = eye(d)
    chains = [list(_chain(layers, pre, suf)) for layers in bufs]
    # G_i = S[i]^T R P[i-1]^T as two batched products on fixed views
    suf_t, pre_t = suf[1:].transpose(0, 2, 1), pre[:-1].transpose(0, 2, 1)
    s_r, grads = np.empty((2, L, d, d))
    residual = np.empty((d, d))
    ints = bufs.view(np.int64)
    # the first t from which the schedule no longer reads t
    steady = len(cfg.schedule.etas) - 1 if cfg.schedule.mode == "sequence" else 0
    etas: list = []
    loss_half = None
    last = None
    prev = math.nan
    status = "budget"
    cur = 0  # the buffer holding the iterate; the other is idle
    for t in range(cfg.max_iters + 1):
        layers = bufs[cur]
        for a, b, out in chains[cur]:
            np.dot(a, b, out=out)
        np.subtract(pre[L], phi, out=residual)
        if prod is None:
            prod, loss_residual = pre[L], residual
        else:
            loss_residual = prod - phi
        loss_val = residual_loss(loss_residual)
        if not loss_val <= DIVERGE_LOSS:  # NaN too
            status = "diverged"
            break
        rec.add(layers, prod, loss_val, loss_half)
        last = layers
        if loss_val <= cfg.epsilon:
            status = "converged"
            break
        if t == cfg.max_iters:
            break
        eta = step_size(t, rec, loss_val)
        # the idle buffer still holds iterate t - 1: the same iterate taking
        # the same step is a fixed point, and every later row repeats this one
        if (
            loss_val == prev and t >= steady and eta == etas[-1]
            and np.array_equal(ints[0], ints[1])
        ):
            etas.extend([eta] * (cfg.max_iters - t))
            rec.repeat(cfg.max_iters - t)
            break
        prev = loss_val
        etas.append(eta)
        np.matmul(suf_t, residual, out=s_r)
        np.matmul(s_r, pre_t, out=grads)
        stepped = bufs[1 - cur]
        update(layers, grads, eta, stepped)
        if not np.isfinite(stepped).all():
            status = "diverged"
            break
        prod = loss_half = None
        if settle:
            settled, prod, loss_half = settle(stepped)
            if settled is not stepped:
                stepped[...] = settled
        cur = 1 - cur
    return TrainingTrace(
        cfg.algorithm, cfg.d, cfg.L, *rec.columns(), etas, status,
        () if last is None else tuple(last), cfg.gamma,
    )


def run_gd(phi, cfg: TrainerConfig) -> TrainingTrace:
    """Plain gradient descent from identity layers.

    Stops when the loss reaches cfg.epsilon, the iteration budget runs out,
    or an iterate goes non-finite (status ``diverged``, last finite iterate
    kept).  cfg.gamma is ignored here.
    """
    phi = _prepare(phi, cfg, "gd")
    return _train(phi, cfg)


def run_power_projection(phi, cfg: TrainerConfig) -> TrainingTrace:
    """Gradient step, project the end-to-end product onto the gamma-positive
    set, refactor into balanced layers.

    Starts at gamma**(1/L) times identity.  Integer-step losses are taken
    from the projected product (gamma I at the start), half-step losses
    from the pre-projection product; a half-step product that overflows
    ends the run as ``diverged``.  Warns when the target itself is not
    gamma-positive, since the contraction guarantee then has no backing.
    Factorization failures propagate as NumericError with diagnostics.
    """
    phi = _prepare(phi, cfg, "power_projection")
    margin = gamma_margin(phi)
    if margin < cfg.gamma - 1e-12:
        warnings.warn(
            f"target margin {margin:.6f} is below gamma={cfg.gamma}; the "
            "contraction guarantee does not apply",
            stacklevel=2,
        )

    def settle(half):
        prod_half = product(half)
        loss_half = residual_loss(prod_half - phi)
        projected = prod_half
        if np.isfinite(prod_half).all():
            projected = project_gamma_positive(prod_half, cfg.gamma)
        if not residual_loss(projected - phi) <= DIVERGE_LOSS:
            # the loop's loss test ends the run on this product, which may
            # be too large to refactor
            return half, projected, loss_half
        factors = balanced_factorization(projected, cfg.L).factors
        # factors are in product order; layers apply in reversed order
        return factors[::-1], projected, loss_half

    root = cfg.gamma ** (1.0 / cfg.L)
    return _train(phi, cfg, root, settle=settle, prod=cfg.gamma * eye(cfg.d))


def run_step_and_project(phi, cfg: TrainerConfig) -> TrainingTrace:
    """Gradient step, then project every layer onto the operator-norm ball
    of radius cfg.psi around the identity.  Starts at gamma**(1/L) times
    identity; gamma = 1 gives the identity start."""
    phi = _prepare(phi, cfg, "step_and_project")
    ball = IdentityBall(cfg.psi)

    def settle(stepped):
        return project_identity_ball(stepped, ball), None, None

    return _train(phi, cfg, cfg.gamma ** (1.0 / cfg.L), settle=settle)


def run_penalty_gd(phi, cfg: TrainerConfig) -> TrainingTrace:
    """Gradient descent with a pull of strength cfg.kappa toward identity
    layers, from the identity start.

    Canonical form shrinks the iterate toward the identity before the
    gradient step: theta <- (1 - kappa) theta + kappa I - eta grad.  With
    penalty_canonical=False the loop instead descends the penalized
    objective, giving theta <- theta - eta (grad + kappa (theta - I)).
    """
    phi = _prepare(phi, cfg, "penalty_gd")
    eye_d, kappa = eye(cfg.d), cfg.kappa
    pull = kappa * eye_d

    # the expressions above, evaluated in the same order into ``out``
    def update(layers, grads, eta, out):
        if cfg.penalty_canonical:
            np.multiply(layers, 1.0 - kappa, out=out)
            out += pull
            grads *= eta
            out -= grads
        else:
            np.subtract(layers, eye_d, out=out)
            out *= kappa
            out += grads
            out *= eta
            np.subtract(layers, out, out=out)

    return _train(phi, cfg, update=update)


# the runner of each algorithm tag, and the tags ``TrainerConfig`` accepts
RUNNERS = {
    "gd": run_gd,
    "power_projection": run_power_projection,
    "step_and_project": run_step_and_project,
    "penalty_gd": run_penalty_gd,
}
