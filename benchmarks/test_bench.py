"""Tests of the benchmark itself: ``python -m pytest benchmarks``."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import spec
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
DL = run.import_program()

# the clipping power-projection class warns on purpose
pytestmark = pytest.mark.filterwarnings("ignore:target margin")


def _bindings():
    """Every attribute of every loaded deeplin module, plus lab.RUNNERS."""
    out = {}
    for name, module in sys.modules.items():
        if name == "deeplin" or name.startswith("deeplin."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("RUNNERS", k): v for k, v in DL.lab.RUNNERS.items()})
    return out


def _first(items, cls):
    return next(i for i, item in enumerate(items) if item.cls == cls)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    items = workloads.make_items("small-runs", 7, DL.lab)
    workloads.write_configs(items, tmp_path_factory.mktemp("small"))
    return items


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_same_inputs(workload):
    a = workloads.make_items(workload, 11, DL.lab)
    b = workloads.make_items(workload, 11, DL.lab)
    c = workloads.make_items(workload, 12, DL.lab)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(c)
    assert [i.cls for i in a] == [i.cls for i in c]
    assert workloads.cycle_order(len(a), 11) == workloads.cycle_order(len(b), 11)


def test_install_and_uninstall_leave_deeplin_untouched():
    before = _bindings()
    tracer = Tracer()
    assert tracer.install() > 0
    originals = {k: v for k, v in before.items() if callable(v)}
    for key in [("deeplin.network", "as_mat"), ("deeplin.verify", "full_hessian"),
                ("deeplin.matcore", "singular_values"), ("deeplin.lab", "write_trace_csv"),
                ("deeplin", "run_gd"), ("RUNNERS", "gd")]:
        now = DL.lab.RUNNERS[key[1]] if key[0] == "RUNNERS" else getattr(sys.modules[key[0]], key[1])
        assert now is not originals[key] and now.__wrapped__ is originals[key]
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(loop, order, tracer):
    return run.traced_pass(loop, order, DL, tracer)


def test_self_times_sum_within_traced_wall(small):
    loop = run.Loop(DL, small)
    order = [_first(small, c) for c in ("gd-spd", "power-rotation-clip", "ball-neg-eig",
                                        "penalty-spd")]
    tracer = Tracer()
    wall = sum(_traced(loop, order, tracer))
    times = tracer.self_times()
    assert sum(s for _, s in times.values()) <= wall
    assert min(s for _, s in times.values()) > -1e-6
    assert times["bench.item"][0] == len(order)
    assert tracer.items_calling("trainers.run_power_projection") == [order[1]]
    assert not loop.failures


def test_both_projection_branches_are_counted(small):
    loop = run.Loop(DL, small)
    order = [_first(small, c) for c in ("power-rotation", "power-rotation-clip",
                                        "ball-spd", "ball-neg-eig")]
    tracer = Tracer()
    _traced(loop, order, tracer)
    metrics = run.per_layer(tracer, 1, 1.0, 1.0)
    for proj in ("project_identity_ball", "project_gamma_positive"):
        assert 0.0 < metrics[f"project.{proj}.clip_ratio"] < 1.0


def test_gate_flags_corrupted_results(small):
    idx = _first(small, "gd-spd")
    item = small[idx]
    with workloads.RunnerCapture(DL.lab) as capture:
        report = workloads.execute(item, DL)
        trace = capture.last
    assert workloads.gate(item, report, trace) == []

    def flagged(**changes):
        return workloads.gate(item, replace(report, **changes), trace)

    assert flagged(status="diverged")
    assert flagged(final_loss=report.final_loss * (1.0 + 1e-6))
    assert flagged(iterations=report.iterations - 1)
    checks = [replace(c, status="fail") if c.name == "eigen_recurrence" else c
              for c in report.checks]
    assert flagged(checks=checks)
    checks = [replace(c, status="skipped") if c.name == "trace_recurrence" else c
              for c in report.checks]
    assert flagged(checks=checks)
    assert flagged(checks=report.checks[1:])
    assert workloads.gate(item, report, None)

    curv = workloads.make_items("curvature", 7, DL.lab)[0]
    grad, hess = workloads.execute(curv, DL)
    assert workloads.gate(curv, (grad, hess)) == []
    assert workloads.gate(curv, (grad, replace(hess, status="skipped")))


def test_crashing_item_is_a_failure(small, tmp_path):
    loop = run.Loop(DL, [replace(small[0], path=tmp_path / "missing.json")])
    with workloads.RunnerCapture(DL.lab) as capture:
        loop.run(0, capture)
    assert loop.attempted == 1
    assert "ConfigError" in loop.failures[0]["problems"][0]


def _bench(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_untraced(workload):
    proc, result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                          "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(spec.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((ROOT / ".bench_results" / f"{workload}-trace0.json").read_text())
    assert record["extra"]["failed_ratio"] == 0.0
    assert record["environment"]["seed"] == 3


@pytest.mark.parametrize("workload", ["small-runs", "curvature"])
def test_smoke_traced(workload):
    proc, result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                          "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(spec.PER_LAYER)
    if workload == "small-runs":
        assert 0.0 < metrics["project.project_identity_ball.clip_ratio"] < 1.0
        assert 0.0 < metrics["project.project_gamma_positive.clip_ratio"] < 1.0
        assert metrics["trainers.steps"] > 0
    else:
        assert metrics["trainers.steps"] == 0 and metrics["network.full_hessian.peak_mb"] > 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits nonzero
    and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for f in (ROOT / "benchmarks").iterdir():
        if f.is_file():
            (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "curvature",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
