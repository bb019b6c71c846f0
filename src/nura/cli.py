"""Command-line surface: run, sweep, schedule, and validate subcommands.

Exit codes: 0 success, 2 validation failure (bad files or a validate
run whose deviation exceeds the tolerance) or any other library error,
3 non-convergence, 4 I/O problems. A sweep whose points fail exits 3
only when every failed point failed to converge (ProtocolError), and 2
otherwise; either way it lists every failed point, after writing both
CSV files from the points that solved, if any did. Each warning a
command raises (such as a capacity past the scenario's saturation
scale) is printed as one "warning: <message>" line on stderr. There is
no seed flag anywhere; every run is deterministic.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from .errors import ContractError, NuraError, ProtocolError, SweepError, ValidationError
from .scenario import (
    emit_csv,
    load_scenario,
    load_schedule,
    run_once,
    run_schedule,
    sweep_R,
)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_NO_CONVERGENCE = 3
_EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nura",
        description="Two-stage utility-proportional-fair rate allocation for one cell",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve a scenario once and print the allocation")
    run_p.add_argument("--scenario", required=True, help="scenario YAML file")
    run_p.add_argument("--trace", help="also write per-round bid/price records to this CSV")

    sweep_p = sub.add_parser("sweep", help="solve over a range of capacities, write CSVs")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--r-start", type=float, default=5.0)
    sweep_p.add_argument("--r-end", type=float, default=200.0)
    sweep_p.add_argument("--r-step", type=float, default=5.0)
    sweep_p.add_argument("--out", required=True, help="output directory for the CSV files")

    sched_p = sub.add_parser("schedule", help="solve each epoch of a weight schedule")
    sched_p.add_argument("--scenario", required=True)
    sched_p.add_argument("--schedule", required=True, help="schedule YAML file")
    sched_p.add_argument("--out", required=True, help="output directory for the CSV files")

    val_p = sub.add_parser(
        "validate",
        help="compare the distributed pipeline against the centralized reference solver",
    )
    val_p.add_argument("--scenario", required=True)
    val_p.add_argument("--r", type=float, help="capacity to check (default: scenario R)")
    val_p.add_argument(
        "--grid-step",
        type=float,
        default=0.01,
        help="grid step for the exhaustive check (scenarios with at most 3 applications)",
    )
    val_p.add_argument(
        "--tol",
        type=float,
        help="per-user deviation tolerance (default: max(0.1, 0.5%% of R))",
    )
    return parser


def _print_record(record) -> None:
    print(f"scenario: {record.scenario}")
    print(f"R = {record.capacity:g}  case = {record.case.value}")
    print(f"rounds = {record.rounds}  final price = {record.final_price:.9g}")
    for uid, rate in record.user_rates.items():
        splits = ", ".join(f"{r:.6f}" for r in record.app_rates[uid])
        print(f"  {uid}: rate = {rate:.6f}  apps = [{splits}]")


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    record = run_once(config, keep_trace=args.trace is not None)
    _print_record(record)
    if args.trace is not None:
        emit_csv([record], args.trace, kind="trace")
        print(f"trace written to {args.trace}")
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_scenario(args.scenario)
    try:
        records = sweep_R(config, args.r_start, args.r_end, args.r_step)
    except SweepError as exc:
        if exc.completed:  # write the points that solved, then report the failures
            _write_sweep(exc.completed, Path(args.out))
        raise
    _write_sweep(records, Path(args.out))
    return _EXIT_OK


def _write_sweep(records, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out / "allocations.csv", kind="allocations")
    emit_csv(records, out / "app_allocations.csv", kind="app_allocations")
    print(f"{len(records)} runs written to {out}/allocations.csv and app_allocations.csv")


def _cmd_schedule(args) -> int:
    config = load_scenario(args.scenario)
    schedule = load_schedule(args.schedule)
    results = run_schedule(config, schedule)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index, (epoch, record) in enumerate(results, start=1):
        emit_csv([record], out / f"epoch_{index:02d}_allocations.csv", kind="allocations")
        emit_csv(
            [record], out / f"epoch_{index:02d}_app_allocations.csv", kind="app_allocations"
        )
        print(
            f"epoch {index} [{epoch.start:g}, {epoch.end:g}]: "
            + "  ".join(f"{uid}={rate:.4f}" for uid, rate in record.user_rates.items())
        )
    print(f"{len(results)} epochs written to {out}")
    return _EXIT_OK


def _cmd_validate(args) -> int:
    from .oracle import centralized_solve, grid_search_solve  # only validate certifies

    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    config = load_scenario(args.scenario)
    capacity = args.r if args.r is not None else config.capacity
    if capacity != config.capacity:
        from dataclasses import replace

        config = replace(config, capacity=capacity)
    tol = args.tol if args.tol is not None else max(0.1, 0.005 * capacity)

    record = run_once(config)
    reference = centralized_solve(config.users, capacity)
    worst = 0.0
    for uid, rate in record.user_rates.items():
        worst = max(worst, abs(rate - reference.user_rates[uid]))
    print(f"R = {capacity:g}: max per-user deviation from the centralized solver = {worst:.6g}")

    total_apps = sum(len(u.apps) for u in config.users)
    if total_apps <= 3:
        try:
            grid = grid_search_solve(config.users, capacity, step=args.grid_step)
        except ContractError as error:  # a grid too fine for this capacity
            print(f"grid search skipped: {error}")
        else:
            worst_grid = 0.0
            for uid, rate in record.user_rates.items():
                worst_grid = max(worst_grid, abs(rate - grid.user_rates[uid]))
            print(f"grid search (step {args.grid_step:g}) deviation = {worst_grid:.6g}")
            worst = max(worst, worst_grid)

    if worst > tol:
        print(f"FAIL: deviation {worst:.6g} exceeds tolerance {tol:.6g}", file=sys.stderr)
        return _EXIT_VALIDATION
    print(f"OK: within tolerance {tol:.6g}")
    return _EXIT_OK


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "schedule": _cmd_schedule,
        "validate": _cmd_validate,
    }
    try:
        with warnings.catch_warnings():  # restores showwarning on the way out
            warnings.showwarning = _show_warning
            return handlers[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except SweepError as exc:
        converging = all(isinstance(error, ProtocolError) for _, error in exc.failures)
        print(f"{'convergence error' if converging else 'error'}: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE if converging else _EXIT_VALIDATION
    except ProtocolError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return _EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except NuraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
