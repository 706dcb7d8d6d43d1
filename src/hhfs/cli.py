"""Command-line harness.

Subcommands:
    run         execute a configured experiment (multi-run, multi-dataset)
    baseline    full-feature 1NN CV accuracy of one dataset, per reporting protocol
    explain-llh list the 16 low-level heuristics
    compare     render a report against published reference numbers
"""

from __future__ import annotations

import argparse
import json
import sys

from .dataset import min_max_normalize
from .evaluation import cv_accuracies
from .experiment import (KNOBS, VALUE_PARSERS, ExperimentSpec, load_config,
                         render_comparison, run_experiment, summary_text,
                         verify_report, with_knobs)
from .llh import describe_catalog
from .mask import FeatureMask


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    """``spec`` with every knob flag given on the command line."""
    given = {k.field.name: getattr(args, k.field.name, None) for k in KNOBS}
    return with_knobs(spec, {n: v for n, v in given.items() if v is not None})


def _cmd_run(args) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    if args.dataset:
        spec = spec.only(args.dataset)
    reports = run_experiment(spec, progress=print, dump_cache=args.dump_cache)
    print()
    print(summary_text(reports, spec))
    failed = [r["dataset"] for r in reports if "error" in r]
    if failed:
        print(f"\npartial results: {', '.join(failed)} failed", file=sys.stderr)
        return 1
    return 0


def _cmd_baseline(args) -> int:
    spec = _apply_overrides(load_config(args.config), args).only([args.dataset])
    dataset = min_max_normalize(spec.datasets[0].load())
    accs = cv_accuracies(dataset, FeatureMask.ones(dataset.n_features),
                         spec.report_protocols())
    print(f"{dataset.name}: {dataset.n_instances} instances, "
          f"{dataset.n_features} features, {dataset.class_count} classes")
    for label, acc in accs.items():
        print(f"full-feature 1NN accuracy ({label}-fold CV, "
              f"seed {spec.master_seed}): {acc:.4f}")
    return 0


def _cmd_explain_llh(_args) -> int:
    print(describe_catalog())
    return 0


def _load_report(path: str) -> dict:
    """The report.json at ``path``, as ``hhfs run`` writes it: one that
    passes ``verify_report``."""
    with open(path) as fh:
        try:
            report = json.load(fh)
            verify_report(report)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return report


def _cmd_compare(args) -> int:
    reports = [_load_report(path) for path in args.report]  # all, before any renders
    for report in reports:
        print(render_comparison(report))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhfs",
        description="Hyper-heuristic feature selection: GA supervisor over "
                    "16 bit-mask local searches with a 1NN wrapper fitness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", required=True, help="INI experiment config")
    run_p.add_argument("--dataset", action="append",
                       help="restrict to this dataset (repeatable)")
    run_p.add_argument("--dump-cache", action="store_true",
                       help="write each dataset's correlation cache as CSV")
    run_p.set_defaults(func=_cmd_run)

    base_p = sub.add_parser("baseline", help="full-feature 1NN CV accuracy")
    base_p.add_argument("--config", required=True)
    base_p.add_argument("--dataset", required=True)
    base_p.set_defaults(func=_cmd_baseline)
    # every knob is a run flag; baseline takes the reporting protocols' too
    for k in KNOBS:
        baseline_knob = k.flag in ("--cv-folds", "--seed", "--report-repeats")
        for p in (run_p, base_p) if baseline_knob else (run_p,):
            p.add_argument(k.flag, dest=k.field.name, type=VALUE_PARSERS[k.field.type],
                           metavar=k.flag[2:].replace("-", "_").upper(),
                           help=f"overrides [{k.section}] {k.key}")

    explain_p = sub.add_parser("explain-llh", help="list the low-level heuristics")
    explain_p.set_defaults(func=_cmd_explain_llh)

    compare_p = sub.add_parser("compare",
                               help="compare a report against published numbers")
    compare_p.add_argument("--report", action="append", required=True,
                           help="path to a report.json (repeatable)")
    compare_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    """Run one command. A ValueError, OSError or MemoryError it lets out (a
    bad config, option, dataset name or file, report file or output path, or
    a dataset too large for memory; ``run`` records a failing dataset
    itself) is one stderr line and status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"hhfs: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
