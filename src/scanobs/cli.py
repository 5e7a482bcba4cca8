"""Command-line interface: generate, train, evaluate, report."""

from __future__ import annotations

import argparse
import sys

from . import neuralnet, runner


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment plan (JSON)")
    parser.add_argument("--seed", type=int, help="override the plan's seed")
    parser.add_argument("--out", help="override the plan's output directory")


def _load_plan(args) -> runner.ExperimentPlan:
    plan = runner.load_config(args.config)
    if args.seed is not None:
        plan.seed = args.seed
    if args.out is not None:
        from pathlib import Path
        plan.out_dir = Path(args.out)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scanobs",
        description="Detection-localization observer studies")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write datasets for a plan")
    _add_common(p)
    p.add_argument("--force", action="store_true",
                   help="overwrite existing dataset files")

    p = sub.add_parser("train", help="train the posterior network")
    _add_common(p)

    p = sub.add_parser("evaluate", help="run observers on the test split")
    _add_common(p)

    p = sub.add_parser("report", help="merge reports and rank systems")
    p.add_argument("reports", nargs="+", help="report.csv files to merge")

    args = parser.parse_args(argv)
    try:
        if args.verb == "generate":
            manifest = runner.generate_dataset(_load_plan(args),
                                               force=args.force)
            for key, val in manifest.items():
                print(f"{key}={val}")
        elif args.verb == "train":
            result = runner.run_training(_load_plan(args))
            print(f"best validation loss: {result.best_val_loss:.6f}")
        elif args.verb == "evaluate":
            rows = runner.run_observers(_load_plan(args))
            for row in rows:
                print(f"{row['observer']:12s} "
                      f"ALROC={row['alroc']:.4f}+-{row['alroc_se']:.4f}  "
                      f"AUC={row['auc']:.4f}+-{row['auc_se']:.4f}")
        else:
            summary = runner.ranking_report(args.reports)
            for obs, systems in summary["alroc_ranking"].items():
                print(f"{obs}:")
                print("  ALROC ranking:", " > ".join(systems))
                print("  AUC ranking:  ",
                      " > ".join(summary["auc_ranking"][obs]))
                if obs in summary["rankings_disagree"]:
                    print("  WARNING: ALROC and AUC rankings disagree")
    except (ValueError, OSError, neuralnet.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
