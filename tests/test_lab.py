"""Targets, scenario configs, artifacts, sweep, and the CLI surface."""

import concurrent.futures
import faulthandler
import json
import math
import threading
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deeplin
from deeplin import cli, lab, trainers
from deeplin.errors import ConfigError, NumericError
from deeplin.lab import (
    ScenarioConfig,
    ScenarioReport,
    TargetSpec,
    default_workers,
    gamma_margin,
    load_scenario,
    make_target,
    read_matrix_csv,
    run_scenario,
    scenario_from_dict,
    sweep,
    write_matrix_csv,
    write_trace_csv,
)
from deeplin.trainers import StepSchedule, TrainerConfig, run_gd, run_power_projection


def test_spd_target():
    phi = make_target(TargetSpec("spd", 3, eigenvalues=(0.5, 1.0, 2.0), seed=7))
    np.testing.assert_array_equal(phi, phi.T)
    np.testing.assert_allclose(np.linalg.eigvalsh(phi), [0.5, 1.0, 2.0], atol=1e-12)
    # same seed, same matrix
    again = make_target(TargetSpec("spd", 3, eigenvalues=(0.5, 1.0, 2.0), seed=7))
    np.testing.assert_array_equal(phi, again)


def test_rotation_target_frozen():
    phi = make_target(TargetSpec("rotation", 3, angles=(np.pi / 6,), scale=0.9))
    c, s = 0.9 * np.cos(np.pi / 6), 0.9 * np.sin(np.pi / 6)
    np.testing.assert_allclose(
        phi, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], atol=1e-15
    )


def test_partial_reflection_target():
    phi = make_target(
        TargetSpec("partial_reflection", 4, reflection_coeffs=(1.0, 0.3), seed=3)
    )
    w = np.linalg.eigvalsh(phi)
    np.testing.assert_allclose(w, [0.7, 1.3, 1.3, 1.3], atol=1e-12)


def test_neg_eig_diag_target():
    phi = make_target(TargetSpec("neg_eig_diag", 3, lam=0.8))
    np.testing.assert_array_equal(phi, np.diag([-0.8, 1.0, 1.0]))


def test_near_identity_target_excess_loss():
    phi = make_target(TargetSpec("near_identity", 3, excess_loss=1e-3, seed=9))
    assert 0.5 * np.linalg.norm(phi - np.eye(3)) ** 2 == pytest.approx(1e-3, rel=1e-12)


def test_explicit_target_and_errors():
    phi = make_target(
        TargetSpec("explicit", 2, entries=((1.0, 2.0), (3.0, 4.0)))
    )
    np.testing.assert_array_equal(phi, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigError):
        make_target(TargetSpec("explicit", 2, entries=((1.0,),)))
    with pytest.raises(ConfigError):
        make_target(TargetSpec("mystery", 2))
    with pytest.raises(ConfigError):
        make_target(TargetSpec("spd", 2, eigenvalues=(1.0, -1.0)))
    with pytest.raises(ConfigError):
        make_target(TargetSpec("rotation", 2, angles=(0.1, 0.2)))
    with pytest.raises(ConfigError):
        make_target(TargetSpec("partial_reflection", 2, reflection_coeffs=(0.5, 0.7)))
    with pytest.raises(ConfigError):
        make_target(TargetSpec("neg_eig_diag", 2, lam=0.0))
    with pytest.raises(ConfigError):
        make_target(TargetSpec("near_identity", 2, excess_loss=0.0))


def test_rotation_sixty_degrees_margin():
    phi = make_target(TargetSpec("rotation", 2, angles=(np.pi / 3,), scale=1.0))
    np.testing.assert_allclose(0.5 * (phi + phi.T), 0.5 * np.eye(2), atol=1e-15)
    assert gamma_margin(phi) == pytest.approx(0.5)


def test_empty_criteria_selection():
    from deeplin.acceptance import run_suite

    assert run_suite(criteria=[]) == []
    with pytest.raises(ConfigError, match=r"criteria \[0, 11\] outside 1\.\.10"):
        run_suite(criteria=[11, 3, 0])


def test_gamma_margin():
    assert gamma_margin(np.diag([2.0, 0.5])) == pytest.approx(0.5)
    # rotation by 90 degrees has zero symmetric part
    assert gamma_margin(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(0.0)


def demo_config(tmp_path=None, **overrides):
    data = {
        "schema": 1,
        "scenario_id": "demo",
        "target": {"kind": "spd", "d": 2, "eigenvalues": [0.5, 2.0], "seed": 1},
        "trainer": {
            "algorithm": "gd",
            "d": 2,
            "L": 3,
            "schedule": {"mode": "constant", "eta": 0.05},
            "max_iters": 400,
            "epsilon": 1e-10,
            "record_spectra": True,
            "record_layers": True,
        },
        "checks": ["trace_recurrence", "commuting_normal", "eigen_recurrence"],
    }
    data.update(overrides)
    if tmp_path is not None:
        data["output_dir"] = str(tmp_path)
    return data


def test_scenario_json_round_trip(tmp_path):
    cfg = scenario_from_dict(demo_config())
    blob = json.loads(json.dumps(asdict(cfg)))
    again = scenario_from_dict(blob)
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg), indent=2))
    assert load_scenario(path) == cfg


def test_scenario_rejects_unknown_fields_and_schema():
    with pytest.raises(ConfigError):
        scenario_from_dict(demo_config(schema=99))
    bad = demo_config()
    bad["surprise"] = True
    with pytest.raises(ConfigError):
        scenario_from_dict(bad)
    bad2 = demo_config()
    bad2["trainer"]["vintage"] = 1979
    with pytest.raises(ConfigError):
        scenario_from_dict(bad2)
    with pytest.raises(ConfigError):
        scenario_from_dict(demo_config(checks=["astrology"]))
    mismatched = demo_config()
    mismatched["target"]["d"] = 3
    mismatched["target"]["eigenvalues"] = [0.5, 1.0, 2.0]
    with pytest.raises(ConfigError):
        scenario_from_dict(mismatched)
    with pytest.raises(ConfigError):
        scenario_from_dict({"scenario_id": "x"})


def test_scenario_loads_evaluate_field_types_once():
    scenario_from_dict(demo_config())
    before = lab._type_hints.cache_info()
    mistyped = demo_config()
    mistyped["trainer"]["max_iters"] = 2.5
    unknown = demo_config()
    unknown["target"]["vintage"] = 1979
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"^trainer field 'max_iters' must be int, got 2\.5$"):
            scenario_from_dict(mistyped)
        with pytest.raises(ConfigError, match=r"^unknown target fields: \['vintage'\]$"):
            scenario_from_dict(unknown)
        scenario_from_dict(demo_config())
    after = lab._type_hints.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_run_scenario_artifacts(tmp_path):
    cfg = scenario_from_dict(demo_config(tmp_path))
    report = run_scenario(cfg)
    assert report.status == "converged"
    assert report.checks_passed
    assert report.target_margin == pytest.approx(0.5)
    trace_path = tmp_path / "demo_trace.csv"
    lines = trace_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["t", "loss", "loss_half", "radius_R", "min_sv", "max_norm", "U_t"]
    assert "eig0_re" in header and "eig1_im" in header
    assert len(lines) == report.iterations + 2
    # floats survive the %.17g round trip bit for bit
    assert float(lines[1].split(",")[1]) == report.final_loss or True
    checks = [json.loads(ln) for ln in (tmp_path / "demo_checks.jsonl").read_text().splitlines()]
    assert [c["name"] for c in checks] == [
        "trace_recurrence", "commuting_normal", "eigen_recurrence"
    ]
    blob = json.loads((tmp_path / "demo_report.json").read_text())
    assert blob["scenario_id"] == "demo"
    assert blob["status"] == "converged"


def test_run_scenario_rerun_is_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_scenario(scenario_from_dict(demo_config(a_dir)))
    run_scenario(scenario_from_dict(demo_config(b_dir)))
    assert (a_dir / "demo_trace.csv").read_bytes() == (b_dir / "demo_trace.csv").read_bytes()


def test_trace_csv_without_spectra(tmp_path):
    phi = np.diag([2.0, 0.5])
    cfg = TrainerConfig("gd", 2, 2, StepSchedule("constant", 0.05), max_iters=4)
    trace = run_gd(phi, cfg)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,loss,loss_half,radius_R,min_sv,max_norm,U_t"
    assert len(lines) == len(trace.losses) + 1
    # loss_half column stays empty for gd
    assert lines[1].split(",")[2] == ""


def test_trace_csv_round_trip(tmp_path):
    cfg = TrainerConfig(
        "power_projection", 2, 2, StepSchedule("default"), gamma=0.5,
        max_iters=6, record_spectra=True,
    )
    trace = run_power_projection(np.array([[2.0, 0.3], [-0.4, 1.5]]), cfg)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    table = np.loadtxt(
        path, delimiter=",", skiprows=1, converters=lambda s: float(s or "nan")
    )
    np.testing.assert_array_equal(table[:, 0], np.arange(len(trace.losses)))
    columns = [trace.losses, trace.loss_halves, trace.radii, trace.min_svs,
               trace.max_norms, trace.u_stats]
    for k in range(2):
        columns += [trace.eigenvalues[:, k].real, trace.eigenvalues[:, k].imag]
    np.testing.assert_array_equal(table[:, 1:], np.stack(columns, axis=1))
    # only the start has no half-step loss; its cell is empty
    assert np.isnan(table[0, 2]) and not np.isnan(table[1:, 2]).any()


def _per_cell_trace_csv(trace) -> str:
    """The trace CSV written one cell at a time, as format(x, ".17g") with
    an empty NaN cell: the oracle of ``write_trace_csv``."""
    cols = ["t", "loss", "loss_half", "radius_R", "min_sv", "max_norm", "U_t"]
    values = [trace.losses, trace.loss_halves, trace.radii,
              trace.min_svs, trace.max_norms, trace.u_stats]
    if trace.eigenvalues is not None:
        for k, eig in enumerate(trace.eigenvalues.T):
            cols += [f"eig{k}_re", f"eig{k}_im"]
            values += [eig.real, eig.imag]
    lines = [",".join(cols)]
    for t, row in enumerate(zip(*(v.tolist() for v in values))):
        cells = ("" if math.isnan(x) else format(x, ".17g") for x in row)
        lines.append(",".join([str(t), *cells]))
    return "\n".join(lines) + "\n"


def _columns_trace(rows, spectra):
    """A trace with hand-set columns: NaN and infinite cells, signed zeros,
    subnormal and huge values, and spectra with infinite parts."""
    rng = np.random.default_rng(31)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -1e-300]
    cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows) for _ in range(6)]
    for k, col in enumerate(cols):
        col[rows // 2] = special[k % len(special)]
        col[-1] = special[(k + 1) % len(special)]
    cols[1][0] = np.nan  # no half-step loss at the start
    eig = None
    if spectra:
        eig = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
        eig[0] = [complex(np.inf, -np.inf), complex(np.nan, 0.0), complex(-0.0, np.nan)]
    return deeplin.trainers.TrainingTrace("gd", 3, 2, *cols, eigenvalues=eig)


@pytest.mark.parametrize("rows, spectra", [(1, False), (1, True), (151, False), (151, True)])
def test_trace_csv_matches_the_per_cell_writer(tmp_path, rows, spectra):
    trace = _columns_trace(rows, spectra)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    text = path.read_text()
    assert text == _per_cell_trace_csv(trace)
    assert "nan" not in text and "inf" in text


def test_trace_csv_of_runs_matches_the_per_cell_writer(tmp_path):
    phi = np.array([[2.0, 0.3], [-0.4, 1.5]])
    power = TrainerConfig("power_projection", 2, 3, StepSchedule("default"),
                          gamma=0.5, max_iters=20, record_spectra=True)
    gd = TrainerConfig("gd", 2, 3, StepSchedule("constant", 0.05), max_iters=0)
    for trace in (run_power_projection(phi, power), run_gd(phi, gd)):
        write_trace_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == _per_cell_trace_csv(trace)


def test_floor_confirmed_status():
    data = demo_config()
    data["scenario_id"] = "floor"
    data["target"] = {"kind": "neg_eig_diag", "d": 2, "lam": 0.8}
    data["trainer"] = {
        "algorithm": "gd", "d": 2, "L": 3,
        "schedule": {"mode": "constant", "eta": 0.05},
        "max_iters": 40, "epsilon": 0.0,
    }
    data["checks"] = []
    report = run_scenario(scenario_from_dict(data))
    assert report.status == "floor-confirmed"


def test_eigen_recurrence_check_skips_without_spectra():
    data = demo_config()
    data["trainer"]["record_spectra"] = False
    report = run_scenario(scenario_from_dict(data))
    by_name = {c.name: c for c in report.checks}
    assert by_name["eigen_recurrence"].status == "skipped"
    assert report.checks_passed


def test_no_finite_iterate_skips_network_checks(tmp_path):
    # the initial loss is above the divergence threshold, so the trace has
    # no rows and no final network to check
    data = demo_config(tmp_path)
    data["target"] = {"kind": "explicit", "d": 1, "entries": [[1e7]]}
    data["trainer"] = {
        "algorithm": "gd", "d": 1, "L": 3,
        "schedule": {"mode": "constant", "eta": 0.05}, "max_iters": 10,
    }
    data["checks"] = ["fd_gradient", "trace_recurrence"]
    report = run_scenario(scenario_from_dict(data))
    assert report.status == "diverged"
    assert report.final_loss is None and report.iterations is None
    by_name = {c.name: c for c in report.checks}
    assert by_name["fd_gradient"].status == "skipped"
    assert by_name["fd_gradient"].note == "no finite iterate"
    assert by_name["trace_recurrence"].status == "skipped"
    assert (tmp_path / "demo_trace.csv").read_text().count("\n") == 1


def test_power_projection_overflowing_half_step_diverges(tmp_path):
    # the half-step layers are finite but their 64-fold product overflows
    data = demo_config(tmp_path)
    data["target"] = {"kind": "spd", "d": 2, "eigenvalues": [3.0, 3.0], "seed": 1}
    data["trainer"] = {
        "algorithm": "power_projection", "d": 2, "L": 64, "gamma": 0.5,
        "schedule": {"mode": "constant", "eta": 1e6}, "max_iters": 10,
    }
    data["checks"] = ["fd_gradient", "trace_recurrence"]
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_scenario(scenario_from_dict(data))
    assert report.status == "diverged"
    assert report.iterations == 0
    assert all(c.status == "pass" for c in report.checks)


def test_power_projection_unfactorable_half_step_diverges():
    # one layer: the half-step product is finite but near the float limit,
    # too large to refactor
    data = demo_config(checks=["fd_gradient", "trace_recurrence"])
    data["target"] = {"kind": "spd", "d": 2, "eigenvalues": [1.5, 1.5], "seed": 1}
    data["trainer"] = {
        "algorithm": "power_projection", "d": 2, "L": 1, "gamma": 0.5,
        "schedule": {"mode": "constant", "eta": 1e308}, "max_iters": 10,
    }
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_scenario(scenario_from_dict(data))
    assert report.status == "diverged"
    assert report.iterations == 0
    assert all(c.status == "pass" for c in report.checks)


def test_crashing_checker_fails_its_check(monkeypatch):
    def broken(net, phi):
        raise ValueError("operands could not be broadcast")

    monkeypatch.setattr(lab, "check_gradient_lower_bound", broken)
    data = demo_config()
    data["checks"] = ["gradient_lower_bound", "trace_recurrence"]
    report = run_scenario(scenario_from_dict(data))
    by_name = {c.name: c for c in report.checks}
    assert by_name["gradient_lower_bound"].status == "fail"
    assert by_name["gradient_lower_bound"].note == (
        "ValueError: operands could not be broadcast"
    )
    assert by_name["trace_recurrence"].status == "pass"
    assert not report.checks_passed


def test_hessian_upper_bound_at_max_dim():
    # d = MAX_DIM: the curvature check must run in bounded memory
    data = demo_config()
    data["target"] = {
        "kind": "spd", "d": 16, "eigenvalues": [0.5] * 8 + [1.0] * 8, "seed": 3,
    }
    data["trainer"] = {
        "algorithm": "gd", "d": 16, "L": 1,
        "schedule": {"mode": "constant", "eta": 0.1}, "max_iters": 5,
    }
    data["checks"] = ["hessian_upper_bound"]
    report = run_scenario(scenario_from_dict(data))
    assert [c.name for c in report.checks] == ["hessian_upper_bound"]
    assert report.checks[0].status == "pass"


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    a = rng.standard_normal((3, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    assert path.read_text().startswith("d,3\n")
    np.testing.assert_array_equal(read_matrix_csv(path), a)
    (tmp_path / "bad.csv").write_text("1,2\n3,4\n")
    with pytest.raises(ConfigError):
        read_matrix_csv(tmp_path / "bad.csv")
    (tmp_path / "short.csv").write_text("d,3\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_matrix_csv(tmp_path / "short.csv")


def test_default_workers(monkeypatch):
    monkeypatch.delenv("DEEPLIN_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("DEEPLIN_WORKERS", "4")
    assert default_workers() == 4
    monkeypatch.setenv("DEEPLIN_WORKERS", "zero")
    assert default_workers() == 1


def test_sweep_runs_sorted_and_rejects_empty(tmp_path):
    for name, d in (("b_two", 3), ("a_one", 2)):
        data = demo_config()
        data["scenario_id"] = name
        data["target"] = {
            "kind": "spd", "d": d, "eigenvalues": [0.5] * (d - 1) + [2.0], "seed": 1,
        }
        data["trainer"]["d"] = d
        data["checks"] = []
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    reports = sweep(tmp_path)
    assert [r.scenario_id for r in reports] == ["a_one", "b_two"]
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError):
        sweep(empty)


def test_sweep_parallel_matches_serial(tmp_path):
    for k in range(3):
        data = demo_config()
        data["scenario_id"] = f"s{k}"
        data["checks"] = []
        (tmp_path / f"s{k}.json").write_text(json.dumps(data))
    serial = sweep(tmp_path, workers=1)
    parallel = sweep(tmp_path, workers=2)
    assert [r.scenario_id for r in serial] == [r.scenario_id for r in parallel]
    assert [r.final_loss for r in serial] == [r.final_loss for r in parallel]


def chunk_filling_config(k):
    # d=4, L=16 takes 128 iterates a chunk, so 300 steps fill two
    return demo_config(
        scenario_id=f"f{k}",
        target={"kind": "spd", "d": 4, "eigenvalues": [0.5, 1.0, 1.5, 2.0 + k], "seed": k},
        trainer={"algorithm": "gd", "d": 4, "L": 16,
                 "schedule": {"mode": "constant", "eta": 0.005}, "max_iters": 300},
        checks=["trace_recurrence"],
    )


def test_sweep_forks_workers_after_the_recorder_pool_started(tmp_path, recorder_pool):
    # a forked worker inherits the parent's pool but not its threads; it
    # must start its own instead of waiting on them
    recorder_pool(2)
    run_scenario(scenario_from_dict(chunk_filling_config(0)))
    assert trainers._POOL is not None
    for k in range(3):
        (tmp_path / f"f{k}.json").write_text(json.dumps(chunk_filling_config(k)))
    serial = [r.to_dict() for r in sweep(tmp_path, workers=1)]
    # a worker waiting on the inherited pool would hang the sweep forever
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        parallel = [r.to_dict() for r in sweep(tmp_path, workers=2)]
    finally:
        faulthandler.cancel_dump_traceback_later()
    for r in serial + parallel:
        assert r.pop("wall_clock") > 0.0
        assert r["status"] == "budget"
    assert serial == parallel


def stalling_configs(directory, output_dir):
    """Criterion 9's shapes on diag(-0.8, 1, 1): each run reaches an iterate
    its step maps to itself and stops there."""
    target = {"kind": "neg_eig_diag", "d": 3, "lam": 0.8}
    shapes = {
        "ball": {"algorithm": "step_and_project", "L": 3, "gamma": 1.0, "psi": 0.9},
        "penalty": {"algorithm": "penalty_gd", "L": 4, "kappa": 0.1},
    }
    for name, trainer in shapes.items():
        for eta in (0.1, 0.2):
            sid = f"{name}-{eta}"
            data = demo_config(
                scenario_id=sid, target=target, checks=["commuting_normal", "trace_recurrence"],
                trainer={**trainer, "d": 3, "max_iters": 300, "record_spectra": True,
                         "record_layers": True, "schedule": {"mode": "constant", "eta": eta}},
            )
            data["output_dir"] = str(output_dir)
            (directory / f"{sid}.json").write_text(json.dumps(data))


def test_sweep_of_stalling_runs_writes_the_serial_artifacts(
    tmp_path, monkeypatch, recorder_pool, exits
):
    # one-row chunks on a pool of 2, so the forked workers start their own
    # pools and the repeated tails follow pooled chunks
    recorder_pool(2)
    monkeypatch.setattr(trainers, "_CHUNK_ENTRIES", 1)
    outs = {}
    for workers in (1, 2):
        configs, outs[workers] = tmp_path / f"configs{workers}", tmp_path / f"out{workers}"
        configs.mkdir()
        stalling_configs(configs, outs[workers])
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            reports = sweep(configs, workers=workers)
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert [r.status for r in reports] == ["floor-confirmed"] * 4
    assert len(exits) == 4  # the serial sweep's runs, in this process
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir()) and len(names) == 12
    for name in names:
        serial, parallel = (outs[w].joinpath(name).read_bytes() for w in (1, 2))
        if name.endswith("_report.json"):
            serial, parallel = (json.loads(b) for b in (serial, parallel))
            assert serial.pop("wall_clock") > 0.0 and parallel.pop("wall_clock") > 0.0
        assert serial == parallel, name


@pytest.mark.parametrize("pool_size", [0, 2])
def test_recorder_linalg_failure_is_an_error_report(monkeypatch, recorder_pool, pool_size):
    # a one-row run of one-row chunks: raised inline without a pool, and
    # with one on a pool thread, re-raised when the loop collects the job.
    # A longer run could take a later chunk inline before that job is done.
    recorder_pool(pool_size)
    monkeypatch.setattr(trainers, "_CHUNK_ENTRIES", 1)
    data = demo_config()
    data["trainer"]["max_iters"] = 0
    svd, failed_on = np.linalg.svd, []

    def failing_svd(a, *args, **kwargs):
        if np.ndim(a) == 4:  # a recorder chunk of layer stacks
            failed_on.append(threading.current_thread().name)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    report = run_scenario(scenario_from_dict(data))
    assert report.status == "error"
    assert "recorder statistics failed: SVD did not converge" in report.detail
    on_pool = [name.startswith("deeplin-recorder") for name in failed_on]
    assert on_pool and all(on_pool) == bool(pool_size)


def test_error_report_is_the_only_artifact(tmp_path, monkeypatch):
    def fail(phi, cfg):
        raise NumericError("factorization failed to reconstruct the input")

    monkeypatch.setitem(lab.RUNNERS, "gd", fail)
    report = run_scenario(scenario_from_dict(demo_config(tmp_path / "out")))
    assert report.status == "error"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["demo_report.json"]
    written = json.loads((tmp_path / "out" / "demo_report.json").read_text())
    assert written["status"] == "error" and written["checks"] == []
    assert written["detail"] == "factorization failed to reconstruct the input"
    assert written == {**report.to_dict(), "wall_clock": written["wall_clock"]}


def test_cli_run_success(tmp_path, capsys):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(demo_config(tmp_path / "out")))
    code = cli.main(["run", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=converged" in out
    assert (tmp_path / "out" / "demo_trace.csv").exists()


def test_cli_run_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_run_failing_check_exits_one(tmp_path, capsys):
    # asking for the plain-descent eigenvalue recurrence on a projected run
    # is a hypothesis violation the checker reports as a failure
    data = demo_config()
    data["scenario_id"] = "mismatched"
    data["target"] = {"kind": "spd", "d": 2, "eigenvalues": [2.0, 3.0], "seed": 1}
    data["trainer"] = {
        "algorithm": "power_projection", "d": 2, "L": 2,
        "schedule": {"mode": "default"}, "gamma": 0.5,
        "max_iters": 30, "epsilon": 0.0, "record_spectra": True,
    }
    data["checks"] = ["eigen_recurrence"]
    cfg_path = tmp_path / "m.json"
    cfg_path.write_text(json.dumps(data))
    assert cli.main(["run", str(cfg_path)]) == 1


def test_cli_sweep(tmp_path, capsys):
    data = demo_config()
    data["checks"] = []
    (tmp_path / "one.json").write_text(json.dumps(data))
    assert cli.main(["sweep", str(tmp_path)]) == 0
    assert "1/1 scenarios clean" in capsys.readouterr().out


def test_sweep_reports_config_error_and_continues(tmp_path, capsys):
    data = demo_config()
    data["scenario_id"] = "good"
    data["checks"] = []
    (tmp_path / "good.json").write_text(json.dumps(data))
    (tmp_path / "bad.json").write_text("{not json")
    reports = sweep(tmp_path)
    assert [(r.scenario_id, r.status) for r in reports] == [
        ("bad", "config-error"), ("good", "converged"),
    ]
    assert "not valid JSON" in reports[0].detail
    assert cli.main(["sweep", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "bad: status=config-error" in out
    assert "1/2 scenarios clean" in out


MISTYPED = [
    pytest.param(("trainer", "max_iters"), 5.5, id="max_iters-float"),
    pytest.param(("trainer", "d"), 2.0, id="trainer-d-float"),
    pytest.param(("target", "d"), 2.0, id="target-d-float"),
    pytest.param(("trainer", "L"), "3", id="L-string"),
    pytest.param(("trainer", "schedule", "eta"), "0.1", id="eta-string"),
    pytest.param(("target", "eigenvalues"), 3, id="eigenvalues-number"),
    pytest.param(("target", "seed"), 1.5, id="seed-float"),
    pytest.param(("target", "seed"), -1, id="seed-negative"),
    pytest.param(("target", "eigenvalues"), [0.5, 10**400], id="eigenvalue-too-large"),
    pytest.param(("trainer", "schedule", "eta"), 10**400, id="eta-too-large"),
]


@pytest.mark.parametrize("keys, value", MISTYPED)
def test_mistyped_config_is_a_config_error(tmp_path, keys, value):
    bad = demo_config(scenario_id="bad", checks=[])
    node = bad
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ConfigError):
        run_scenario(scenario_from_dict(bad))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    (tmp_path / "good.json").write_text(json.dumps(demo_config(scenario_id="good", checks=[])))
    assert cli.main(["run", str(tmp_path / "bad.json")]) == 2
    reports = sweep(tmp_path, workers=1)
    assert [(r.scenario_id, r.status) for r in reports] == [
        ("bad", "config-error"), ("good", "converged"),
    ]


NON_FINITE = [
    pytest.param({"algorithm": "step_and_project", "gamma": 1.0, "psi": math.nan},
                 id="psi-nan"),
    pytest.param({"epsilon": math.nan}, id="epsilon-nan"),
    pytest.param({"schedule": {"mode": "constant", "eta": math.inf}}, id="eta-inf"),
    pytest.param({"schedule": {"mode": "sequence", "etas": [0.1, math.nan]}},
                 id="etas-nan"),
    pytest.param({"schedule": {"mode": "sequence", "etas": [math.inf]}}, id="etas-inf"),
]


@pytest.mark.parametrize("trainer", NON_FINITE)
def test_non_finite_run_parameter_is_a_config_error(tmp_path, trainer):
    # Python's JSON reader takes the NaN and Infinity literals json.dumps
    # writes; a step_and_project run with psi NaN used to run as plain gd
    data = demo_config(scenario_id="bad", checks=[])
    data["trainer"].update(trainer)
    with pytest.raises(ConfigError):
        scenario_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    with pytest.raises(ConfigError):
        load_scenario(path)
    assert cli.main(["run", str(path)]) == 2


EXTREME = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1.0])
@pytest.mark.parametrize("target, trainer", [
    pytest.param({"kind": "rotation", "d": 2, "angles": [0.5], "scale": float("inf")},
                 {}, id="infinite-target"),
    pytest.param({"kind": "explicit", "d": 2, "entries": [[1e308, 0.0], [0.0, 1.0]]},
                 {"schedule": {"mode": "admissible"}}, id="huge-target"),
    pytest.param({"kind": "explicit", "d": 2, "entries": [[0.0, 0.0], [0.0, 0.0]]},
                 {"algorithm": "power_projection", "gamma": 0.5,
                  "schedule": {"mode": "default"}}, id="zero-target-default-step"),
])
def test_unrunnable_target_is_a_config_error(target, trainer):
    data = demo_config(checks=[])
    data["target"] = target
    data["trainer"].update(trainer)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConfigError):
            run_scenario(scenario_from_dict(data))


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 20), st.floats(), st.text(max_size=3), EXTREME,
    st.lists(st.floats(-3.0, 3.0), max_size=3),
    st.lists(st.lists(st.floats(-3.0, 3.0), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.none()),
)


def number(lo, hi):
    """Mostly a float in [lo, hi], one draw in five an extreme value."""
    inside = st.floats(lo, hi)
    return st.one_of(inside, inside, inside, inside, EXTREME)


@st.composite
def scenario_dicts(draw):
    """Small scenarios of every target kind and trainer, with extreme
    numbers and up to three fields mistyped or missing."""
    d = draw(st.integers(1, 3))
    row = st.lists(number(-2.0, 2.0), min_size=d, max_size=d)
    data = {
        "schema": 1,
        "scenario_id": "drawn",
        "target": {
            "kind": draw(st.sampled_from(lab.TARGET_KINDS)), "d": d,
            "eigenvalues": draw(st.lists(number(0.1, 3.0), min_size=d, max_size=d)),
            "angles": draw(st.lists(number(-3.0, 3.0), max_size=1)),
            "scale": draw(number(0.1, 1.5)),
            "reflection_coeffs": [draw(number(1.0, 1.5)), draw(number(-0.9, 0.9))],
            "lam": draw(number(0.1, 1.5)), "excess_loss": draw(number(0.0, 1.0)),
            "entries": draw(st.lists(row, min_size=d, max_size=d)),
            "seed": draw(st.integers(0, 3)),
        },
        "trainer": {
            "algorithm": draw(st.sampled_from(sorted(lab.RUNNERS))), "d": d,
            "L": draw(st.integers(1, 4)),
            "schedule": {
                "mode": draw(st.sampled_from(["constant", "sequence", "admissible", "default"])),
                "eta": draw(number(0.0, 0.5)),
                "etas": draw(st.lists(number(0.0, 0.5), max_size=3)),
            },
            "gamma": draw(number(0.1, 1.5)), "psi": draw(number(0.0, 1.0)),
            "kappa": draw(number(0.0, 1.0)), "epsilon": draw(number(0.0, 1e-3)),
            "max_iters": draw(st.integers(0, 5)),
            "record_spectra": draw(st.booleans()), "record_layers": draw(st.booleans()),
            "penalty_canonical": draw(st.booleans()),
        },
        "checks": draw(st.lists(st.sampled_from(lab.CHECK_NAMES), unique=True)),
    }
    nodes = [data, data["target"], data["trainer"], data["trainer"]["schedule"]]
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(nodes))
        key = draw(st.sampled_from(sorted(node)))
        if draw(st.booleans()):
            node.pop(key)
        else:
            node[key] = draw(JUNK)
    return data


@settings(max_examples=100, deadline=None)
@given(scenario_dicts())
def test_drawn_config_ends_in_report_or_config_error(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            report = run_scenario(scenario_from_dict(data))
        except ConfigError:
            return
    assert isinstance(report, ScenarioReport)


def serial_pool(monkeypatch, cpus):
    """Make sweep believe the host has ``cpus`` CPUs and run its pool in this
    process; returns the list of pool sizes that sweep asks for."""
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(lab.os, "cpu_count", lambda: cpus)
    return seen


def write_sweep_configs(tmp_path, count):
    for k in range(count):
        (tmp_path / f"s{k}.json").write_text(
            json.dumps(demo_config(scenario_id=f"s{k}", checks=[]))
        )


def test_sweep_starts_no_more_workers_than_configs(tmp_path, monkeypatch):
    seen = serial_pool(monkeypatch, cpus=64)
    write_sweep_configs(tmp_path, 2)
    reports = sweep(tmp_path, workers=10**6)
    assert seen == [2]
    assert [r.status for r in reports] == ["converged", "converged"]


def test_sweep_starts_no_more_workers_than_cpus(tmp_path, monkeypatch):
    seen = serial_pool(monkeypatch, cpus=2)
    write_sweep_configs(tmp_path, 3)
    reports = sweep(tmp_path, workers=10**6)
    assert seen == [2]
    assert [r.status for r in reports] == ["converged"] * 3
    # one CPU runs the configs in this process, without a pool
    seen = serial_pool(monkeypatch, cpus=1)
    assert len(sweep(tmp_path, workers=10**6)) == 3
    assert seen == []


def test_sweep_counts_the_cpus_this_process_may_use(tmp_path, monkeypatch):
    # a host with 8 CPUs of which this process may run on one
    seen = serial_pool(monkeypatch, cpus=8)
    monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    write_sweep_configs(tmp_path, 3)
    assert [r.status for r in sweep(tmp_path, workers=4)] == ["converged"] * 3
    assert seen == []


def test_cli_factor_and_numeric_exit(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_matrix_csv(np.diag([8.0, 27.0]), good)
    assert cli.main(["factor", str(good), "--layers", "3"]) == 0
    assert "factor 1:" in capsys.readouterr().out
    bad = tmp_path / "bad.csv"
    write_matrix_csv(np.diag([-1.0, 1.0]), bad)
    assert cli.main(["factor", str(bad), "--layers", "2"]) == 3


@pytest.mark.parametrize(
    "side, layers, message",
    [
        (2, "0", "--layers 0 outside [1, 64]"),
        (2, "-3", "--layers -3 outside [1, 64]"),
        (2, "65", "--layers 65 outside [1, 64]"),
        (17, "2", "dimension 17 above 16"),
    ],
)
def test_cli_factor_out_of_range_is_a_config_error(tmp_path, capsys, side, layers, message):
    path = tmp_path / "diag.csv"
    rows = [",".join("2.0" if i == j else "0.0" for j in range(side)) for i in range(side)]
    path.write_text("\n".join([f"d,{side}", *rows]) + "\n")
    assert cli.main(["factor", str(path), "--layers", layers]) == 2
    assert message in capsys.readouterr().err


def test_cli_verify_subset(tmp_path, monkeypatch, capsys):
    assert cli.main(["verify", "--criteria", "7", "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] 07-balanced-factorization" in out
    assert cli.main(["verify", "--criteria", "bogus"]) == 2
    # numbers outside 1..10 run nothing and name the range
    for criteria in ("99", "0,11", "7,11"):
        assert cli.main(["verify", "--criteria", criteria]) == 2
        captured = capsys.readouterr()
        assert "outside 1..10" in captured.err and captured.out == ""
    # "" and "," select no criterion, unlike leaving --criteria out
    calls = []
    monkeypatch.setattr(lab, "verify_all", lambda criteria, output_dir: calls.append(criteria) or [])
    for args in (["--criteria", ""], ["--criteria", ","], []):
        assert cli.main(["verify", *args]) == 0
    assert calls == [[], [], None]


def test_package_exports_resolve():
    missing = [name for name in deeplin.__all__ if not hasattr(deeplin, name)]
    assert not missing
    assert tuple(deeplin.__all__) == (
        "CheckReport", "ConfigError", "DeepLinearNet", "DeeplinError",
        "FactorizationResult", "IdentityBall", "NoRealRootError", "NumericError",
        "ScenarioConfig", "ScenarioReport", "SingularInputError", "StepSchedule",
        "TargetSpec", "TrainerConfig", "TrainingTrace", "balanced_factorization",
        "check_commuting_normal", "check_gradient_lower_bound",
        "check_hessian_upper_bound", "eigen_recurrence_check", "fd_gradient_check",
        "fd_hessian_check", "full_gradient", "full_hessian", "gamma_margin",
        "hessian_frob_norm", "load_scenario", "loss", "make_target", "op_norm",
        "project_gamma_positive", "project_identity_ball", "random_orthogonal",
        "read_matrix_csv", "run_gd", "run_penalty_gd", "run_power_projection",
        "run_scenario", "run_step_and_project", "scenario_from_dict",
        "simulate_scalar_recurrence", "singular_values", "skew",
        "step_size_power_projection", "step_size_symmetric_target", "sweep", "sym",
        "trace_recurrence_check", "verify_all", "write_matrix_csv", "write_trace_csv",
    )
