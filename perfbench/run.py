"""scanobs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a fixed number of whole rounds of one workload (S seconds over the
workload's round budget in workloads.py, at least one), checks the outputs
of the last round (checks.py), and prints every metric by name and unit,
then one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` rounds alternate untraced and traced (at least one of
each) and the metrics are the per-layer ones.  ``--workload all`` runs each
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import scanobs.runner
from scanobs.tasks import task_preset
for name in {presets!r}:
    task_preset(name).signal_images
print(time.perf_counter() - start)
"""


def measure_setup(presets) -> float:
    """Median, over fresh interpreters, of importing scanobs and building
    the workload's task presets and signal images."""
    code = SETUP_CODE.format(src=str(ROOT / "src"), presets=list(presets))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             check=True, capture_output=True, text=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(fn, rounds_wanted, work_dir, seed, trace):
    """Run the rounds; with ``trace`` every second round is traced."""
    from spans import Tracer
    import layers
    import workloads

    total = workloads.Ops()
    rounds = []
    for i in range(rounds_wanted):
        traced = trace and i % 2 == 1
        ops = workloads.Ops()
        tracer = Tracer() if traced else None
        if tracer:
            layers.install(tracer)
        began = time.perf_counter()
        try:
            outputs = fn(work_dir, seed, ops)
        finally:
            if tracer:
                tracer.unwrap_all()
        rounds.append({"traced": traced, "wall": time.perf_counter() - began,
                       "ops": ops, "tracer": tracer})
        total.attempted += ops.attempted
        total.failed += ops.failed
    return rounds, outputs, total


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds, setup_s, peak_rss_mb):
    plain = [r for r in rounds if not r["traced"]]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median([r["wall"] for r in plain]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def stage_figures(name, rounds):
    """The workload's own stage throughputs, medians over untraced rounds;
    0 for stages the workload does not run."""
    import workloads

    plain = [r["ops"] for r in rounds if not r["traced"]]
    figures = {}
    for metric, (unit, per_workload) in workloads.STAGE_METRICS.items():
        fn = per_workload.get(name)
        figures[metric] = (_median([fn(o.seconds, o.counts) for o in plain])
                           if fn else 0.0, unit)
    return figures


def per_layer(name, rounds):
    import layers

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = [layers.layer_metrics(r["tracer"]) for r in traced]
    metrics = {metric: (_median([m[metric][0] for m in per_round]), unit)
               for metric, (unit, _) in layers.LAYER_METRICS.items()}
    metrics.update(stage_figures(name, rounds))
    plain_wall = _median([r["wall"] for r in plain])
    traced_wall = _median([r["wall"] for r in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics


def run_checks(name, outputs, seed):
    import checks

    try:
        return checks.CHECKS[name](outputs, seed)
    except Exception as exc:  # a missing or unreadable output fails the run
        return [(f"{name}.checks_completed", False, repr(exc))]


def run_workload(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    fn, presets, round_s = workloads.WORKLOADS[args.workload]
    rounds_wanted = max(2 if args.trace else 1, int(args.seconds // round_s))
    setup_s = measure_setup(presets)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        rounds, outputs, total = run_rounds(fn, rounds_wanted, work_dir,
                                            args.seed, bool(args.trace))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        results = run_checks(args.workload, outputs, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass

    if args.trace:
        metrics, kind = per_layer(args.workload, rounds), "per_layer"
    else:
        metrics, kind = end_to_end(rounds, setup_s, peak_rss_mb), "end_to_end"
    names = [m["name"] for m in declared[kind]]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(names) ^ set(metrics))}")

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced)")
    for metric in names:
        value, unit = metrics[metric]
        print(f"  {metric} = {value:.6g} {unit}")
    if not args.trace:
        for metric, (value, unit) in stage_figures(args.workload,
                                                   rounds).items():
            if value:
                print(f"  stage {metric} = {value:.6g} {unit}")
    plain = [r["ops"] for r in rounds if not r["traced"]]
    for phase in sorted(plain[0].seconds):
        print(f"  phase {phase}: "
              f"{_median([o.seconds[phase] for o in plain]):.3f} s")
    print(f"  operations attempted {total.attempted}, failed {total.failed}")
    for check, ok, detail in results:
        print(f"  check {check}: {'PASS' if ok else 'FAIL'} ({detail})")
    return {
        "correct": all(ok for _, ok, _ in results),
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]}
                    for m in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bke_criterion1", "cnn_train",
                                 "lumpy_backgrounds", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in ("bke_criterion1", "cnn_train", "lumpy_backgrounds"):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd).returncode
        return status
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
