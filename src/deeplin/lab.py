"""Experiment orchestration: target construction, scenario configs, trace
artifacts, and the process-facing entry points behind the CLI.

Each value in a scenario config must have its dataclass field's type,
from JSON or built in Python alike: ``validate`` checks the types first.
With an output directory set, ``run_scenario`` writes the trace CSV of
``write_trace_csv``, a JSONL file with one check report per line, and a
JSON scenario report.  Matrix CSV interchange (used by the ``factor``
subcommand) is row-major with a ``d,<dim>`` header line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, _check_fields, _type_hints
from .matcore import MAX_DIM, as_mat, frob_norm, rotation, sym
from .project import gamma_margin
from .trainers import RUNNERS, StepSchedule, TrainerConfig, TrainingTrace, _usable_cpus
from .verify import (
    CheckReport, check_commuting_normal, check_gradient_lower_bound, check_hessian_upper_bound,
    eigen_recurrence_check, fd_gradient_check, fd_hessian_check, trace_recurrence_check,
)
from .network import DeepLinearNet

SCHEMA_VERSION = 1

TARGET_KINDS = (
    "spd", "rotation", "partial_reflection", "neg_eig_diag", "near_identity", "explicit",
)

# Checkers by scenario name: those of the final network, then those of the
# whole trace.  Each entry looks its checker up when called, so a wrapper
# installed on a checker name in this module (a profiler, say) sees the call.
_NET_CHECKS = {
    "fd_gradient": lambda net, phi: fd_gradient_check(net, phi),
    "fd_hessian": lambda net, phi: fd_hessian_check(net, phi),
    "gradient_lower_bound": lambda net, phi: check_gradient_lower_bound(net, phi),
    "hessian_upper_bound": lambda net, phi: check_hessian_upper_bound(net, phi),
}
_TRACE_CHECKS = {
    "commuting_normal": lambda trace, phi: check_commuting_normal(trace, phi),
    "eigen_recurrence": lambda trace, phi: eigen_recurrence_check(trace, phi),
    "trace_recurrence": lambda trace, phi: trace_recurrence_check(trace, phi),
}
CHECK_NAMES = (*_NET_CHECKS, *_TRACE_CHECKS)

# A larger target is a config error: past about 1e154 its squared norm, so
# the loss at t = 0, overflows with numpy's warnings, and the run could
# only end diverged at t = 0 with no iterate to check.
MAX_TARGET_NORM = 1e150


# ---------------------------------------------------------------------------
# targets


@dataclass(frozen=True)
class TargetSpec:
    """Declarative target description.  Fields beyond ``kind`` and ``d`` are
    consulted per kind; ``seed`` feeds the basis/direction generator."""

    kind: str
    d: int
    eigenvalues: tuple[float, ...] = ()
    angles: tuple[float, ...] = ()
    scale: float = 1.0
    reflection_coeffs: tuple[float, ...] = ()
    lam: float = 0.0
    excess_loss: float = 0.0
    entries: tuple[tuple[float, ...], ...] = ()
    seed: int = 0

    def validate(self):
        _check_fields(self, "target")
        if self.kind not in TARGET_KINDS:
            raise ConfigError(f"unknown target kind {self.kind!r}")
        if not 1 <= self.d <= MAX_DIM:
            raise ConfigError(f"target dimension {self.d} outside [1, {MAX_DIM}]")
        if self.seed < 0:
            raise ConfigError(f"target seed {self.seed} is negative")


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from QR of a standard normal draw, with
    the sign convention fixed for determinism."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def make_target(spec: TargetSpec) -> np.ndarray:
    """Materialize a target matrix from its spec.

    Unknown kinds, invalid parameters and a target that is not finite or
    whose norm exceeds ``MAX_TARGET_NORM`` raise ConfigError.
    """
    spec.validate()
    phi = _target_matrix(spec)
    if not frob_norm(phi) <= MAX_TARGET_NORM:
        raise ConfigError(
            f"{spec.kind} target must be finite with norm at most {MAX_TARGET_NORM:g}"
        )
    return phi


def _target_matrix(spec: TargetSpec) -> np.ndarray:
    d = spec.d
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "spd":
        eigs = np.asarray(spec.eigenvalues, dtype=float)
        if eigs.size != d or np.any(eigs <= 0.0):
            raise ConfigError("spd target needs d positive eigenvalues")
        q = random_orthogonal(d, rng)
        return sym((q * eigs) @ q.T)

    if spec.kind == "rotation":
        angles = np.asarray(spec.angles, dtype=float)
        if 2 * angles.size > d:
            raise ConfigError("too many rotation blocks for the dimension")
        if not spec.scale > 0.0:
            raise ConfigError("rotation scale must be positive")
        phi = np.eye(d)
        for k, theta in enumerate(angles):
            phi[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = spec.scale * rotation(theta)
        return phi

    if spec.kind == "partial_reflection":
        if len(spec.reflection_coeffs) != 2:
            raise ConfigError("partial_reflection needs coefficients (a, b)")
        a, b = (float(v) for v in spec.reflection_coeffs)
        if not 0.0 <= abs(b) < a:
            raise ConfigError("partial_reflection needs 0 <= |b| < a")
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        refl = np.eye(d) - 2.0 * np.outer(u, u)
        return a * np.eye(d) + b * refl

    if spec.kind == "neg_eig_diag":
        if not spec.lam > 0.0:
            raise ConfigError("neg_eig_diag needs lam > 0")
        diag = np.ones(d)
        diag[0] = -spec.lam
        return np.diag(diag)

    if spec.kind == "near_identity":
        if not spec.excess_loss > 0.0:
            raise ConfigError("near_identity needs excess_loss > 0")
        e = rng.standard_normal((d, d))
        e /= np.linalg.norm(e)
        return np.eye(d) + np.sqrt(2.0 * spec.excess_loss) * e

    # explicit
    if len(spec.entries) != d or any(len(row) != d for row in spec.entries):
        raise ConfigError(f"explicit entries must form a {d}x{d} matrix")
    return np.asarray(spec.entries, dtype=float)


# ---------------------------------------------------------------------------
# configs


@dataclass
class ScenarioConfig:
    scenario_id: str
    target: TargetSpec
    trainer: TrainerConfig
    checks: tuple[str, ...] = ()
    output_dir: str | None = None
    schema: int = SCHEMA_VERSION

    def validate(self):
        _check_fields(self, "scenario config")
        if self.schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {self.schema}")
        if not self.scenario_id:
            raise ConfigError("scenario_id must be nonempty")
        # the id names the artifact files inside output_dir
        if any(c in self.scenario_id for c in "/\\\0"):
            raise ConfigError(f"scenario_id {self.scenario_id!r} holds a path separator or NUL")
        if self.output_dir is not None and "\0" in self.output_dir:
            raise ConfigError(f"output_dir {self.output_dir!r} holds NUL")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown check {name!r}")
        self.target.validate()
        self.trainer.validate()
        if self.trainer.d != self.target.d:
            raise ConfigError("trainer and target dimensions disagree")


def _frozen(value):
    """JSON arrays as (nested) tuples."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _build(cls, data, context: str):
    """``cls`` from a JSON object whose keys are fields of ``cls``: arrays
    become tuples, an object for a dataclass field is built the same way,
    and ``validate`` checks every type, as for a config built in Python."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    kinds = _type_hints(cls)
    if unknown := set(data) - set(kinds):
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")
    values = {}
    for name, value in data.items():
        nested = is_dataclass(kinds[name]) and isinstance(value, dict)
        values[name] = _build(kinds[name], value, name) if nested else _frozen(value)
    try:
        return cls(**values)
    except TypeError as exc:  # a required field is missing
        raise ConfigError(f"{context}: {exc}") from exc


def scenario_from_dict(data: dict) -> ScenarioConfig:
    cfg = _build(ScenarioConfig, data, "scenario config")
    cfg.validate()
    return cfg


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(trace: TrainingTrace, path):
    """The trace's columns in a fixed order, then interleaved real and
    imaginary eigenvalue columns when the trace recorded spectra.  A NaN
    cell (a row without a half-step loss) is written empty.  Floats are
    written with repr-faithful %.17g, so reruns of the same build write
    byte-identical files."""
    cols = ["t", "loss", "loss_half", "radius_R", "min_sv", "max_norm", "U_t"]
    values = [
        trace.losses, trace.loss_halves, trace.radii,
        trace.min_svs, trace.max_norms, trace.u_stats,
    ]
    if trace.eigenvalues is not None:
        for k, eig in enumerate(trace.eigenvalues.T):
            cols += [f"eig{k}_re", f"eig{k}_im"]
            values += [eig.real, eig.imag]
    # one format per row; %.17g writes NaN as "nan", which no finite or
    # infinite value writes, so dropping that token empties the NaN cells
    fmt = "%d" + ",%.17g" * len(values) + "\n"
    rows = zip(range(len(trace.losses)), *(v.tolist() for v in values))
    body = "".join(fmt % row for row in rows).replace("nan", "")
    Path(path).write_text(",".join(cols) + "\n" + body)


def write_matrix_csv(a, path):
    a = as_mat(a)
    lines = [f"d,{len(a)}"]
    for row in a:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    path = Path(path)
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("d,"):
        raise ConfigError(f"{path} lacks the 'd,<dim>' header line")
    try:
        d = int(lines[0].split(",")[1])
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path} is not a valid matrix CSV: {exc}") from exc
    a = np.array(rows, dtype=float)
    if a.shape != (d, d):
        raise ConfigError(
            f"{path} header promises {d}x{d} but body has shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{path} contains non-finite entries")
    return a


# ---------------------------------------------------------------------------
# scenario running


@dataclass
class ScenarioReport:
    scenario_id: str
    status: str
    final_loss: float | None
    iterations: int | None
    checks: list = field(default_factory=list)
    wall_clock: float = 0.0
    target_margin: float | None = None
    detail: str = ""

    @property
    def checks_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["checks"] = [c.to_dict() for c in self.checks]
        return out


def _run_checks(names, trace: TrainingTrace, phi: np.ndarray) -> list:
    """One report per name.  Network checks are skipped when the trace kept
    no finite iterate.  Checkers report their own preconditions as skipped,
    so an exception from one is a fault and fails its check."""
    reports = []
    final_net = DeepLinearNet(trace.final_layers) if trace.final_layers else None
    for name in names:
        try:
            if name in _TRACE_CHECKS:
                reports.append(_TRACE_CHECKS[name](trace, phi))
            elif final_net is None:
                reports.append(
                    CheckReport(name, 0, 0, None, "skipped", "no finite iterate")
                )
            else:
                reports.append(_NET_CHECKS[name](final_net, phi))
        except Exception as exc:
            note = f"{type(exc).__name__}: {exc}"
            reports.append(CheckReport(name, 0, 0, None, "fail", note))
    return reports


def _make_dir(path: Path) -> Path:
    """Make ``path`` and its parents and return it; failing that, a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {path}: {exc}") from exc
    return path


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Build the target, run the configured trainer, evaluate the requested
    checks, and write artifacts when an output directory is configured.

    Trainer numeric failures are embedded in the report with status
    ``error`` rather than raised.  An output directory that cannot be made
    (checked before training) or written is a ConfigError.
    """
    cfg.validate()
    phi = make_target(cfg.target)
    margin = gamma_margin(phi)
    outdir = None if cfg.output_dir is None else _make_dir(Path(cfg.output_dir))
    start = time.perf_counter()
    trace, checks, detail = None, [], ""
    try:
        trace = RUNNERS[cfg.trainer.algorithm](phi, cfg.trainer)
    except NumericError as exc:
        status, detail = "error", str(exc)
    else:
        status = trace.status
        if (
            status == "budget"
            and cfg.target.kind == "neg_eig_diag"
            and len(trace.losses)
            and float(np.min(trace.losses)) >= cfg.target.lam**2 / 2.0 - 1e-12
        ):
            status = "floor-confirmed"
        checks = _run_checks(cfg.checks, trace, phi)
    rows = 0 if trace is None else len(trace.losses)
    report = ScenarioReport(
        cfg.scenario_id,
        status,
        trace.final_loss if rows else None,
        trace.iterations if rows else None,
        checks,
        time.perf_counter() - start,
        margin,
        detail,
    )

    if outdir is not None:
        try:
            if trace is not None:
                write_trace_csv(trace, outdir / f"{cfg.scenario_id}_trace.csv")
                with open(outdir / f"{cfg.scenario_id}_checks.jsonl", "w") as fh:
                    for c in checks:
                        fh.write(json.dumps(c.to_dict()) + "\n")
            (outdir / f"{cfg.scenario_id}_report.json").write_text(
                json.dumps(report.to_dict(), indent=2) + "\n"
            )
        except OSError as exc:
            raise ConfigError(f"cannot write artifacts to {outdir}: {exc}") from exc
    return report


def _run_scenario_path(path: str) -> ScenarioReport:
    """Run one sweep config; a config error becomes a ``config-error``
    report named after the file, so the other scenarios still report."""
    try:
        return run_scenario(load_scenario(path))
    except ConfigError as exc:
        return ScenarioReport(
            Path(path).stem, "config-error", None, None, detail=str(exc)
        )


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get("DEEPLIN_WORKERS", "1")))
    except ValueError:
        return 1


def sweep(directory, workers: int | None = None) -> list:
    """Run every ``*.json`` scenario in a directory, in sorted order.

    Concurrency is bounded by ``workers`` (default: the DEEPLIN_WORKERS
    environment variable, falling back to 1), by the CPUs this process may
    run on and by the number of configs.  A config that fails to load or
    validate gets a ``config-error`` report in its place.
    """
    directory = Path(directory)
    paths = sorted(str(p) for p in directory.glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario configs found in {directory}")
    if workers is None:
        workers = default_workers()
    workers = min(workers, len(paths), _usable_cpus())
    if workers <= 1:
        return [_run_scenario_path(p) for p in paths]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_scenario_path, paths))


def verify_all(criteria=None, output_dir=None) -> list:
    """Run the built-in acceptance suite; one report per criterion."""
    from . import acceptance

    return acceptance.run_suite(criteria=criteria, output_dir=output_dir)
