"""Command line entry point.

Subcommands:
    run      execute one scenario config (JSON) and print a summary
    sweep    run every scenario config in a directory
    verify   run the built-in acceptance suite
    factor   balanced factorization of a matrix CSV

Exit codes: 0 success, 1 failed checks or failed criteria, 2 config error,
3 numeric failure.  A sweep exits with the gravest code of its scenarios
(3, then 2, then 1).
"""

from __future__ import annotations

import argparse
import sys

from . import lab
from .errors import ConfigError, NumericError
from .factor import balanced_factorization
from .matcore import MAX_DIM, MAX_LAYERS


def _parse_criteria(text: str):
    try:
        return sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise ConfigError(f"bad criteria list {text!r}") from exc


def _print_scenario(report) -> None:
    loss = "-" if report.final_loss is None else f"{report.final_loss:.6e}"
    iters = "-" if report.iterations is None else str(report.iterations)
    print(
        f"{report.scenario_id}: status={report.status} loss={loss} "
        f"iters={iters} wall={report.wall_clock:.2f}s"
    )
    for chk in report.checks:
        print(f"  check {chk.name}: {chk.status} ({chk.note})")
    if report.detail:
        print(f"  detail: {report.detail}")


def _scenario_exit(reports) -> int:
    if any(r.status == "error" for r in reports):
        return 3
    if any(r.status == "config-error" for r in reports):
        return 2
    if any(not r.checks_passed for r in reports):
        return 1
    return 0


def _cmd_run(args) -> int:
    report = lab.run_scenario(lab.load_scenario(args.config))
    _print_scenario(report)
    return _scenario_exit([report])


def _cmd_sweep(args) -> int:
    reports = lab.sweep(args.directory, workers=args.workers)
    for report in reports:
        _print_scenario(report)
    bad = sum(
        1 for r in reports
        if r.status in ("error", "config-error") or not r.checks_passed
    )
    print(f"sweep: {len(reports) - bad}/{len(reports)} scenarios clean")
    return _scenario_exit(reports)


def _cmd_verify(args) -> int:
    criteria = None if args.criteria is None else _parse_criteria(args.criteria)
    reports = lab.verify_all(criteria=criteria, output_dir=args.output)
    for report in reports:
        flag = "PASS" if report.status == "pass" else "FAIL"
        print(f"[{flag}] {report.scenario_id} ({report.wall_clock:.1f}s) {report.detail}")
    failed = sum(1 for r in reports if r.status != "pass")
    print(f"verify: {len(reports) - failed}/{len(reports)} criteria passed")
    return 0 if failed == 0 else 1


def _cmd_factor(args) -> int:
    if not 1 <= args.layers <= MAX_LAYERS:
        raise ConfigError(f"--layers {args.layers} outside [1, {MAX_LAYERS}]")
    a = lab.read_matrix_csv(args.matrix)
    if len(a) > MAX_DIM:
        raise ConfigError(f"{args.matrix} has dimension {len(a)} above {MAX_DIM}")
    result = balanced_factorization(a, args.layers)
    print(
        f"factors={args.layers} reconstruction={result.reconstruction_residual:.3e} "
        f"balance={result.balance_residual:.3e}"
    )
    for k, f in enumerate(result.factors, start=1):
        print(f"factor {k}:")
        for row in f:
            print("  " + " ".join(format(v, ".12g") for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deeplin",
        description="Training-dynamics laboratory for deep linear networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every scenario in a directory")
    p_sweep.add_argument("directory", help="directory of scenario JSON files")
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: DEEPLIN_WORKERS or 1)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument(
        "--criteria", default=None,
        help="comma separated 1-based criterion numbers (default: all)",
    )
    p_verify.add_argument(
        "--output", default=None, help="directory for suite artifacts"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_factor = sub.add_parser("factor", help="balanced factorization of a matrix CSV")
    p_factor.add_argument("matrix", help="matrix CSV with a 'd,<dim>' header")
    p_factor.add_argument("--layers", type=int, required=True, help="factor count")
    p_factor.set_defaults(func=_cmd_factor)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
