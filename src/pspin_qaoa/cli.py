"""Command-line front end for the experiment harness.

Subcommands: scaling, field-sweep, iters, p1-table, gap.
Grid flags accept comma lists ("4,6,8") or ranges ("2:12:2", inclusive).
A JSON config can be supplied with --config; explicit flags win over it.
Each flag stores into the ExperimentConfig field it sets.
Exit codes: 0 success, 1 invalid config or usage, or results that could not
be written (the rows are printed instead), 2 partial task failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

from .experiments import (
    ConfigError,
    ExperimentConfig,
    emit_results,
    fit_gap_exponent,
    fit_iteration_slope,
    fit_scaling_exponent,
    run_experiment,
)

_KIND_BY_COMMAND = {
    "scaling": "scaling",
    "field-sweep": "field-sweep",
    "iters": "iteration-scaling",
    "p1-table": "p1-table",
    "gap": "gap-scaling",
}


def parse_grid(text: str, cast=float) -> tuple:
    """Parse "a,b,c" or "start:stop:step" (stop inclusive) into a tuple.

    A range is computed in decimal from the flag's text, so each value is the
    one its decimal spelling gives in a comma list ("0:1:0.1" holds 0.3).
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        for part in parts:
            cast(part)  # refuses what a comma list refuses, such as "8.5" for N
        start, stop, step = (Decimal(p.strip()) for p in parts)
        if not all(v.is_finite() for v in (start, stop, step)):
            raise ValueError(f"range bounds must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int((stop - start) / step) + 1 if stop >= start else 0
        return tuple(cast(start + i * step) for i in range(count))
    return tuple(cast(p) for p in text.split(",") if p.strip())


def _add_common_flags(sub):
    sub.add_argument("--n", dest="n_grid", help="system-size grid, e.g. 8,12,16 or 4:16:4")
    sub.add_argument("--p-exp", dest="p_exponent", type=int, help="interaction exponent p")
    sub.add_argument("--h", dest="h_grid", help="transverse-field grid")
    sub.add_argument("--depth", dest="depth_grid", help="circuit-depth grid")
    sub.add_argument("--scheme", choices=["r", "l", "both"], help="initialization scheme")
    sub.add_argument("--dt", type=float, help="Trotter step for the linear schedule")
    sub.add_argument("--noise", dest="noise_amplitude", type=float,
                     help="l-init multiplicative noise amplitude")
    sub.add_argument("--restarts", dest="n_restarts", type=int, help="restarts per grid point")
    sub.add_argument("--seed", dest="base_seed", type=int, help="base seed")
    sub.add_argument("--workers", dest="worker_count", type=int, help="worker process count")
    sub.add_argument("--out", dest="out_path", help="output path")
    sub.add_argument("--format", dest="out_format", choices=["csv", "json"], help="output format")
    sub.add_argument("--config", help="JSON ExperimentConfig file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pspin-qaoa",
        description="QAOA ground-state preparation sweeps for the p-spin ferromagnet",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, kind in _KIND_BY_COMMAND.items():
        sub = subs.add_parser(command)
        sub.set_defaults(kind=kind)
        _add_common_flags(sub)
    return parser


def config_from_args(args) -> ExperimentConfig:
    """The --config file's fields, overridden by every flag given."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"--config must hold a JSON object, got {type(data).__name__}")
    names = {f.name for f in fields(ExperimentConfig)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    for name, cast in (("n_grid", int), ("depth_grid", int), ("h_grid", float)):
        if name in flags:  # the grid flags are text
            flags[name] = parse_grid(flags[name], cast)
    return ExperimentConfig.from_dict({**data, **flags})


def _print_fit(config: ExperimentConfig, rows) -> None:
    try:
        if config.kind == "scaling":
            b, fit_res = fit_scaling_exponent(rows)
            print(f"scaling exponent b = {b:.4f} (fit residual {fit_res:.3g})")
        elif config.kind == "iteration-scaling":
            slope, r2 = fit_iteration_slope(rows)
            print(f"iteration slope = {slope:.4f} per site (r^2 = {r2:.4f})")
        elif config.kind == "gap-scaling":
            slope, r2 = fit_gap_exponent(rows, config.p_exponent)
            label = "log-log exponent" if config.p_exponent == 2 else "decay rate per site"
            print(f"gap {label} = {slope:.4f} (r^2 = {r2:.4f})")
    except ValueError as exc:
        print(f"fit skipped: {exc}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, which means failed points here
        return 1 if exc.code else 0
    try:
        config = config_from_args(args)
        if config.out_path and not Path(config.out_path).parent.is_dir():
            raise ConfigError(f"the directory of out_path {config.out_path!r} does not exist")
        if config.out_path and Path(config.out_path).is_dir():
            raise ConfigError(f"out_path {config.out_path!r} is a directory")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1

    rows = run_experiment(config)
    n_failed = sum(1 for r in rows if r.status.startswith("failed"))
    written = False
    if config.out_path:
        try:
            emit_results(rows, config.out_format, config.out_path, config)
            written = True
        except (OSError, ValueError) as exc:  # the sweep's rows are kept on stdout
            print(f"{exc}; printing the rows instead", file=sys.stderr)
    if written:
        print(f"wrote {len(rows)} rows to {config.out_path}")
    else:
        for row in rows:
            print(row)
    _print_fit(config, rows)
    if n_failed:
        print(f"{n_failed} grid point(s) failed", file=sys.stderr)
    if config.out_path and not written:
        return 1
    return 2 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
