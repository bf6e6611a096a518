"""What the benchmark measures: workloads, metrics, units and bounds.

``python3 benchmarks/spec.py`` writes ``BENCHMARK.json`` at the repository
root from the tables below; a test checks that the committed file matches.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = {
    "small-runs": "d 2..4, L 2..10 scenarios of all four trainers via load/run_scenario: "
                  "per-step interpreter and numpy-call overhead dominates",
    "large-runs": "(d, L) up to (16, 64) for all four trainers, no snapshots: LAPACK-bound, "
                  "mostly the recorder SVDs and singular_values",
    "curvature": "gradient and Hessian bound checks on networks with d 2..8, L d^2 <= 1024: "
                 "full_hessian and kron; no trainer, factor or project calls",
}

# name -> (unit, better, bound)
# The timing bounds are wide because the host is shared: on a 2-core box,
# ten 20 s runs of one workload spread (quartile distance / median) up to
# 0.11 (items_per_s) and 0.15 (item_tail_ms) on small-runs, and the medians
# of two such sets 25 minutes apart differed by 12%, with CPU time tracking
# wall time.  peak_rss_mb spreads under 0.3%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "item_p50_ms": ("ms", "lower", 0.25),
    "item_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_CHECKERS = ("check_gradient_lower_bound", "check_hessian_upper_bound",
             "trace_recurrence_check", "check_commuting_normal", "eigen_recurrence_check")

# name -> (unit, better).  Counts and self times are per cycle: one pass
# over the workload's item set.
PER_LAYER = {
    "trainers.steps": ("count", "higher"),
    "trainers.self_s": ("s", "lower"),
    "trainers.self_us_per_step": ("us", "lower"),
    "matcore.calls": ("count", "lower"),
    "matcore.self_s": ("s", "lower"),
    **{f"matcore.{f}.{stat}": unit
       for f in ("singular_values", "as_mat", "kron")
       for stat, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))},
    "network.self_s": ("s", "lower"),
    "network.prefix_suffix_products.calls": ("count", "lower"),
    "network.prefix_suffix_products.self_s": ("s", "lower"),
    "network.full_hessian.calls": ("count", "lower"),
    "network.full_hessian.self_s": ("s", "lower"),
    "network.full_hessian.peak_mb": ("MB", "lower"),
    "factor.self_s": ("s", "lower"),
    "factor.balanced_factorization.calls": ("count", "lower"),
    "factor.balanced_factorization.self_s": ("s", "lower"),
    "factor.polar.self_s": ("s", "lower"),
    "factor.principal_root_orthogonal.self_s": ("s", "lower"),
    "factor.principal_root_spd.self_s": ("s", "lower"),
    "project.self_s": ("s", "lower"),
    **{f"project.{f}.{stat}": unit
       for f in ("project_identity_ball", "project_gamma_positive")
       for stat, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")),
                          ("clip_ratio", ("ratio", "lower")))},
    "verify.self_s": ("s", "lower"),
    **{f"verify.{f}.{stat}": unit
       for f in _CHECKERS
       for stat, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))},
    "verify.skipped_ratio": ("ratio", "lower"),
    "lab.self_s": ("s", "lower"),
    "lab.load_scenario.self_s": ("s", "lower"),
    "lab.run_scenario.self_s": ("s", "lower"),
    "lab.write_trace_csv.calls": ("count", "lower"),
    "lab.write_trace_csv.self_s": ("s", "lower"),
    "lab.write_trace_csv.bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}")
