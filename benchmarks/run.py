"""Benchmark for deeplin: one workload, one seed, one process.

    python3 benchmarks/run.py --workload small-runs --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload small-runs --seed 1 --seconds 20 --trace 1

Run from the repository root; the package is imported from ``src/`` beside
this directory.  Items run one at a time in a closed loop with one client.
Every item goes through the correctness gate in ``workloads.gate``.

``--trace 0`` times the items for ``--seconds`` and reports the end-to-end
metrics; set-up time is the median of several fresh processes that each
set up and run the warm-up item.  ``--trace 1`` runs whole cycles over the
item set untraced for about half of ``--seconds``, then the same cycles
with every public function of the package wrapped, and reports per-layer
calls and self time per cycle plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
the environment, the failures and the tail percentile goes to
``.bench_results/`` under the repository root, and ``--trace 1`` writes its
spans there too.  The exit code is 0 only when every item passed the gate.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5
TAIL_BEYOND = 10


def import_program():
    """Import deeplin from this checkout's ``src/`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import deeplin
        from deeplin import lab, network, verify  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import deeplin from {src}: {exc}")
    if Path(deeplin.__file__).resolve().parent.parent != src:
        raise SystemExit(f"deeplin was imported from {deeplin.__file__}, not from {src}")
    # the clipping power-projection class is outside the gamma-positive set
    # on purpose; the trainer warns about that on every run
    warnings.filterwarnings("ignore", message="target margin .* is below gamma")
    return deeplin


def set_up(workload, seed, workdir):
    dl = import_program()
    items = workloads.make_items(workload, seed, dl.lab)
    workloads.write_configs(items, workdir)
    return dl, items


class Loop:
    """Runs items one at a time and gates each result."""

    def __init__(self, dl, items):
        self.dl = dl
        self.items = items
        self.attempted = 0
        self.failures = []

    def run(self, idx, capture, tracer=None) -> float:
        item = self.items[idx]
        capture.last = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workloads.execute(item, self.dl)
            else:
                result = tracer.record_item(idx, workloads.execute, item, self.dl)
        except Exception as exc:  # a crash is a failed item, not the end of the run
            result = exc
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = workloads.gate(item, result, capture.last)
        if problems:
            self.failures.append({"item": idx, "class": item.cls, "problems": problems})
        return elapsed


def timed(loop, order, seconds, capture):
    """Closed loop over the cycle order until ``seconds`` have passed."""
    lat = []
    start = time.perf_counter()
    for idx in itertools.cycle(order):
        lat.append(loop.run(idx, capture))
        if time.perf_counter() - start >= seconds:
            return lat


def tail(lat):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(lat)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def measure_setup(workload, seed):
    """Median set-up time of fresh processes: interpreter start, imports,
    input generation and the warm-up item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def end_to_end(lat, setup_s):
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": len(lat) / sum(lat),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"item_tail_percentile": pct, "item_samples": len(lat)}
    return metrics, extra


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, cycles, untraced_wall, traced_wall):
    st = tracer.self_times()
    counters = tracer.counters

    def total(prefix, stat):
        pick = 0 if stat == "calls" else 1
        return sum(v[pick] for k, v in st.items() if k.startswith(prefix + "."))

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    steps = counters["trainers.steps"]
    special = {
        "trainers.steps": steps / cycles,
        "trainers.self_us_per_step": _ratio(total("trainers", "self_s"), steps) * 1e6,
        "network.full_hessian.peak_mb": counters["network.full_hessian.peak_mb"],
        "verify.skipped_ratio": _ratio(counters["verify.skipped"], counters["verify.checks"]),
        "lab.write_trace_csv.bytes": counters["lab.write_trace_csv.bytes"] / cycles,
        "trace.overhead_ratio": (traced_wall - untraced_wall) / untraced_wall,
    }
    for proj in ("project.project_identity_ball", "project.project_gamma_positive"):
        special[f"{proj}.clip_ratio"] = _ratio(counters[f"{proj}.clipped"], calls(proj))
    metrics = {}
    for name in spec.PER_LAYER:
        if name in special:
            metrics[name] = special[name]
            continue
        target, stat = name.rsplit(".", 1)
        if "." in target:
            value = st.get(target, (0, 0.0))[0 if stat == "calls" else 1]
        else:
            value = total(target, stat)
        metrics[name] = value / cycles
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the repository this file sits in, if it is a git checkout."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed, items):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "items": len(items),
        "input_digest": workloads.digest(items),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up item, print 'ready' and exit")
    return p.parse_args(argv)


def probe(args, workdir):
    dl, items = set_up(args.workload, args.seed, workdir)
    loop = Loop(dl, items)
    with workloads.RunnerCapture(dl.lab) as capture:
        loop.run(0, capture)  # the untimed warm-up item
    if loop.failures:
        raise SystemExit(f"warm-up item failed the gate: {loop.failures}")
    print("ready", flush=True)


def traced_pass(loop, order, dl, tracer):
    """Run ``order`` once with ``tracer`` installed; the trace capture sits
    outside the tracer's wrappers so the trainers are traced too."""
    tracer.install()
    try:
        with workloads.RunnerCapture(dl.lab) as capture:
            return [loop.run(idx, capture, tracer) for idx in order]
    finally:
        tracer.uninstall()


def measure(args, workdir):
    dl, items = set_up(args.workload, args.seed, workdir)
    loop = Loop(dl, items)
    order = workloads.cycle_order(len(items), args.seed)
    with workloads.RunnerCapture(dl.lab) as capture:
        loop.run(0, capture)  # the untimed warm-up item
        if args.trace == 0:
            lat = timed(loop, order, args.seconds, capture)
            metrics, extra = end_to_end(lat, measure_setup(args.workload, args.seed))
            units = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
            return loop, items, metrics, units, extra, None
        untraced, cycles = [], 0
        while sum(untraced) < args.seconds / 2:
            untraced += [loop.run(idx, capture) for idx in order]
            cycles += 1
    tracer = Tracer()
    traced = traced_pass(loop, order * cycles, dl, tracer)
    memory = Tracer(memory=True)
    traced_pass(loop, tracer.items_calling("network.full_hessian"), dl, memory)
    tracer.counters["network.full_hessian.peak_mb"] = memory.counters["network.full_hessian.peak_mb"]
    metrics = per_layer(tracer, cycles, sum(untraced), sum(traced))
    units = {n: u for n, (u, _) in spec.PER_LAYER.items()}
    extra = {"cycles": cycles, "items_per_cycle": len(order),
             "untraced_wall_s": sum(untraced), "traced_wall_s": sum(traced),
             "spans": len(tracer.start)}
    return loop, items, metrics, units, extra, tracer


def main(argv=None):
    args = parse_args(argv)
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            probe(args, workdir)
            return 0
        loop, items, metrics, units, extra, tracer = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    extra["failed_ratio"] = failed / loop.attempted
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, items),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "extra": extra,
        "failures": loop.failures[:20],
    }
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.save(out / f"{args.workload}-spans.npz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:45s} {value}")
    for failure in loop.failures[:5]:
        print(f"  FAILED item {failure['item']} ({failure['class']}): {failure['problems']}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
