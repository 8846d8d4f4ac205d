"""Command-line front end.

Subcommands: ``run`` one game to a CSV trace, ``sweep`` a parameter grid to
JSON summaries, ``audit`` the Monte-Carlo diagnostics, ``fit`` a power-law
exponent from a sweep CSV, and ``bound-check`` mean regret against the
config's guarantee. Configs are JSON files mirroring ExperimentConfig; only
``sweep`` reads a ``vary`` grid, and ``run`` and ``bound-check`` reject a file
that has one. ``run`` plays ``--seed``, else the config's first seed, and
writes its trace to ``--out`` (default ``trace.csv``).

Exit codes: 0 success, 1 failed check or aborted run (a game whose arrays
do not fit in memory too), 2 config error or an output path that cannot be
written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import ConfigError, ProtocolError
from .harness import (
    ExperimentConfig,
    bound_check,
    fit_exponent,
    run_game,
    sweep,
    sweep_regrets_csv,
    trace_to_csv,
)
from .smoothing import run_audit_suite

__all__ = ["cli_main", "main"]


def _load_config(path: str, sweep: bool = False) -> tuple[ExperimentConfig, dict]:
    """The config in a JSON file, and its ``vary`` grid, which only ``sweep`` reads: elsewhere it is a ConfigError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    has_vary, vary = "vary" in raw, raw.pop("vary", {})
    if not isinstance(vary, dict):
        raise ConfigError("'vary' must map field names to value lists")
    if has_vary and not sweep:
        raise ConfigError("'vary' is read only by pfol sweep; this command plays the config as it is, "
                          "so remove 'vary' from the file")
    return ExperimentConfig.from_json(raw), vary


def _write(write, value, path) -> None:
    """``write(value, path)``; a path that cannot be written is a ConfigError that names it."""
    try:
        write(value, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _write_json(value, path) -> None:
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")


def _cmd_run(args) -> int:
    config, _ = _load_config(args.config)
    seed = config.seeds[0] if args.seed is None else args.seed
    trace = run_game(config, seed)
    out = args.out or "trace.csv"
    _write(trace_to_csv, trace, out)
    print(f"run complete: learner={config.learner} T={config.T} seed={seed} "
          f"final_regret={trace.final_regret:.6g} -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    config, vary = _load_config(args.config, sweep=True)
    summaries = sweep(config, vary, jobs=args.jobs)
    out = args.out or "summaries.json"
    _write(_write_json, [s.to_json() for s in summaries], out)
    if args.csv:
        _write(sweep_regrets_csv, summaries, args.csv)
    failed = sum(1 for s in summaries if s.errors)
    for s in summaries:
        status = f"mean_regret={s.mean_regret:.6g}" if s.final_regrets else f"errors={list(s.errors)}"
        print(f"cell {s.overrides}: {status}")
    print(f"sweep complete: {len(summaries)} cells ({failed} with errors) -> {out}")
    return 0


def _cmd_audit(args) -> int:
    reports = run_audit_suite(args.seed, samples=args.samples)
    if args.out:
        _write(_write_json, reports, args.out)
    ok = True
    for rep in reports:
        ok &= rep["pass"]
        stderr = "" if rep["stderr"] is None else f" stderr={rep['stderr']:.3g}"
        print(f"[{'PASS' if rep['pass'] else 'FAIL'}] {rep['audit_name']}: "
              f"estimate={rep['estimate']:.6g}{stderr} bound={rep['bound']:.6g}")
    return 0 if ok else 1


def _read_fit_csv(path: str):
    """(sorted T values, mean regret at each) from a CSV with ``T`` and ``regret`` columns."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read CSV {path!r}: {exc}") from exc
    if not rows:
        raise ConfigError(f"CSV {path!r} is empty")
    missing = {"T", "regret"} - rows[0].keys()
    if missing:
        raise ConfigError(f"CSV {path!r} is missing the columns {sorted(missing)}")
    by_T: dict[float, list[float]] = {}
    for row in rows:
        try:
            by_T.setdefault(float(row["T"]), []).append(float(row["regret"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad numeric row in {path!r}: {row}") from exc
    grid = sorted(by_T)
    means = [sum(by_T[t]) / len(by_T[t]) for t in grid]
    return grid, means


def _cmd_fit(args) -> int:
    grid, means = _read_fit_csv(args.csv)
    fit = fit_exponent(grid, means)
    print(json.dumps({
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "points_used": fit.points_used,
    }))
    return 0


def _cmd_bound_check(args) -> int:
    config, _ = _load_config(args.config)
    report = bound_check(config, jobs=args.jobs)
    print(json.dumps(report))
    return 0 if report["pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfol", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one game and write its CSV trace")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid and write JSON summaries")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--csv", default=None, help="also write per-seed final regrets")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="run the Monte-Carlo diagnostic battery")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--samples", type=int, default=20_000)
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=_cmd_audit)

    p_fit = sub.add_parser("fit", help="fit a log-log slope from a sweep CSV's T and regret columns")
    p_fit.add_argument("--csv", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    p_bound = sub.add_parser("bound-check", help="compare mean regret to the config's bound")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_bound.set_defaults(func=_cmd_bound_check)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, FloatingPointError, ValueError, MemoryError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - console-script shim
    sys.exit(cli_main())
