"""Re-measure the reference figures of README.md: one untraced round of a
workload at the larger reference sizes, with its phase times, rates and
peak resident memory.  Not part of the benchmark runs.

    python3 perfbench/reference.py --workload NAME [--seed N]
"""

from __future__ import annotations

import argparse
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from scanobs.neuralnet import Architecture  # noqa: E402

REFERENCE_SIZES = {
    "bke_criterion1": {"BKE_TEST_PER_CLASS": 1000},
    "cnn_train": {"CNN_BATCH_PER_CLASS": 2, "CNN_STEPS": 4,
                  "CNN_VAL_PERIOD": 2, "CNN_TEST_PER_CLASS": 10},
    "lumpy_backgrounds": {"LB_TRAIN_BACKGROUNDS": 2000,
                          "LB_COV_SAMPLES": 2000, "LB_TEST_PER_CLASS": 2,
                          "LB_MCMC_ITERATIONS": 20_000, "CLB_IMAGES": 5},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(REFERENCE_SIZES))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name, value in REFERENCE_SIZES[args.workload].items():
        setattr(workloads, name, value)
    fn = workloads.WORKLOADS[args.workload][0]
    work_dir = ROOT / ".bench_work" / f"reference-{args.workload}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.Ops()
    try:
        start = time.perf_counter()
        fn(work_dir, args.seed, ops)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"{args.workload} at {REFERENCE_SIZES[args.workload]}, "
          f"seed {args.seed}")
    print(f"  wall {wall:.2f} s, peak RSS {rss:.0f} MB, "
          f"operations {ops.attempted} attempted, {ops.failed} failed")
    for phase in sorted(ops.seconds):
        sec, count = ops.seconds[phase], ops.counts.get(phase, 0)
        rate = f", {count / sec:.4g} per s over {count:g}" if count else ""
        print(f"  {phase}: {sec:.2f} s{rate}")
    if args.workload == "cnn_train":
        computed_figures()
    return 0


def computed_figures():
    """FLOPs and im2col bytes of the paper's network, and the column matrix
    of one 800-image batch (80 per class), which is computed, not run."""
    arch = Architecture(conv_layers=5, input_shape=(64, 64), n_classes=10)
    cols = layers.im2col_bytes(arch)
    print(f"  computed: {layers.forward_flops(arch) / 1e9:.4f} GFLOP per "
          f"inference image, {layers.train_flops(arch) / 1e9:.4f} GFLOP per "
          "training image")
    print("  computed: im2col bytes per image by conv layer: "
          + ", ".join(f"{b / 1e6:.3f} MB" for b in cols))
    print(f"  computed: one 800-image batch needs {800 * max(cols) / 1e9:.2f} "
          "GB for the column matrix of one 32-channel layer")


if __name__ == "__main__":
    sys.exit(main())
