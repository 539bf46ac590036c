"""Command-line interface.

Subcommands: validate (admissibility report), run (full experiment),
plot (CSV plot data from a report), version. Exit codes: 0 when all
checks pass, 1 on statistical failure, 2 on usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .angles import validate_hypothesis_h
from .report import (
    PLOT_COV_HEATMAP,
    PLOT_MARGINAL_HIST,
    PLOT_RATE_LOGLOG,
    RunReport,
    emit_plot_data,
)
from .runconfig import ConfigError, InvalidThetaError, load_config
from .runner import run_experiment
from .version import TOOL_NAME, VERSION

EXIT_OK = 0
EXIT_STATISTICAL_FAILURE = 1
EXIT_USAGE = 2


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    report = validate_hypothesis_h(config.theta)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.valid else EXIT_USAGE


def _status(entry: dict) -> str:
    return "pass" if entry["pass"] else "FAIL"


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    path = report.write(config.output_dir)
    for block in report.results:
        for check in block["checks"]:
            print(f"epsilon={block['epsilon']:g} {check['name']}: {_status(check)}")
    for fit in report.summary.get("rate_fits", []):
        print(f"rate pair ({fit['i']},{fit['j']}) {fit['kind']}: "
              f"slope={fit['slope']:.3f} {_status(fit)}")
    sweep = report.summary.get("fourth_moment_sweep", {})
    if sweep:
        print(f"fourth-moment sweep: max/min={sweep['max_over_min']:.3f} {_status(sweep)}")
    if "anchor" in sweep:
        anchor = sweep["anchor"]
        ratios = ", ".join(f"{r:.3f}" for r in anchor["ratios"])
        print(f"fourth-moment anchor: epsilon={anchor['epsilon']:g} r4={ratios} {_status(anchor)}")
    print(f"report written to {path}")
    print("ALL CHECKS PASS" if report.all_pass else "SOME CHECKS FAILED")
    return EXIT_OK if report.all_pass else EXIT_STATISTICAL_FAILURE


def _cmd_plot(args: argparse.Namespace) -> int:
    report = RunReport.from_json_file(args.report)
    pair = None
    if args.pair:
        try:
            i, j = (int(p) for p in args.pair.split(","))
        except ValueError:
            raise ConfigError(f"--pair expects 'i,j', got {args.pair!r}") from None
        pair = (i, j)
    csv_text = emit_plot_data(
        report, args.kind, epsilon=args.epsilon, pair=pair, component=args.component
    )
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_version(args: argparse.Namespace) -> int:
    print(f"{TOOL_NAME} {VERSION}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description=(
            "Build multidimensional Brownian-motion approximants from a single "
            "Poisson process and statistically verify their limit behaviour."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the angle-vector admissibility")
    p_validate.add_argument("config", help="path to a run configuration file")
    p_validate.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="run the full experiment")
    p_run.add_argument("config", help="path to a run configuration file")
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="emit plot-ready CSV from a report")
    p_plot.add_argument("report", help="path to report.json")
    p_plot.add_argument(
        "--kind",
        required=True,
        choices=[PLOT_RATE_LOGLOG, PLOT_COV_HEATMAP, PLOT_MARGINAL_HIST],
    )
    p_plot.add_argument("--epsilon", type=float, default=None,
                        help="epsilon to plot (default: smallest in the report)")
    p_plot.add_argument("--pair", default=None, help="component pair 'i,j' for RATE_LOGLOG")
    p_plot.add_argument("--component", type=int, default=1,
                        help="component for MARGINAL_HIST (1-based)")
    p_plot.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_plot.set_defaults(func=_cmd_plot)

    sub.add_parser("version", help="print the tool version").set_defaults(func=_cmd_version)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code or 0)

    try:
        return args.func(args)
    except InvalidThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps(exc.hypothesis, indent=2), file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
