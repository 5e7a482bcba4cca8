"""The three benchmark workloads, each a round of public ``scanobs`` calls.

A round always attempts the same operations, so the share of failed
operations is the same in every run.  All inputs derive from the seed given
on the command line; rounds of one run repeat identical work.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from scanobs import dataset, imaging, observers, phantoms, runner
from scanobs.tasks import task_preset

# bke_criterion1: 500 test images per class and system (5000 per system)
# keeps the paper's ranking reversal above 3 combined SEs on every seed
# tried, at a tenth of the paper's 5000 per class.
BKE_SYSTEMS = ("bke_system1", "bke_system2")
BKE_TEST_PER_CLASS = 500
BKE_BOOTSTRAP = 1000

# cnn_train: the paper's network (5 conv layers, 32 5x5 filters, 64x64
# input, 10 classes) on a batch of 1 per class instead of 80.  Inference
# runs the 50 test images as one chunk, so its im2col copies (about 15 MB
# per image) set the workload's peak memory.
CNN_BATCH_PER_CLASS = 1
CNN_STEPS = 2
CNN_VAL_PERIOD = 1
CNN_VAL_PER_CLASS = 1
CNN_TEST_PER_CLASS = 5

# lumpy_backgrounds: the lb preset with a stored training-background set,
# Hotelling from stored covariance samples, one MCMC chain per test image,
# and a small clustered-lumpy store.
LB_TRAIN_BACKGROUNDS = 1000
LB_VAL_PER_CLASS = 5
LB_TEST_PER_CLASS = 1
LB_COV_SAMPLES = 500
LB_MCMC_ITERATIONS = 5000
LB_BOOTSTRAP = 200
CLB_IMAGES = 2


class Ops:
    """Counts operations and sums the wall time and work of each phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)

    def run(self, phases, fn, *args, failed_if=None):
        """Call ``fn(*args)`` as one operation timed under each phase.

        An exception, or a result for which ``failed_if`` is true, counts
        the operation as failed; the round goes on with the next one.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation {fn.__name__} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        finally:
            for phase in phases:
                self.seconds[phase] += time.perf_counter() - start
        if failed_if is not None and failed_if(result):
            self.failed += 1
            print(f"operation {fn.__name__} failed: {failed_if.__doc__}",
                  file=sys.stderr)
        return result


def ranking_lists_a_system_twice(report: dict) -> bool:
    """The known merge fault: entries keyed by system alone, so with two
    observers per report each system is ranked twice."""
    return any(len(set(report[key])) != len(report[key])
               for key in ("alroc_ranking", "auc_ranking"))


def _plan(work_dir: Path, preset: str, **kw) -> runner.ExperimentPlan:
    return runner.ExperimentPlan(preset=preset, out_dir=work_dir / preset,
                                 **kw)


def bke_criterion1(work_dir: Path, seed: int, ops: Ops) -> dict:
    plans = [_plan(work_dir, s, observers=["analytic_io", "hotelling"],
                   n_val_per_class=0, n_test_per_class=BKE_TEST_PER_CLASS,
                   seed=seed, bootstrap_samples=BKE_BOOTSTRAP)
             for s in BKE_SYSTEMS]
    for plan in plans:
        ops.run(["generate"], runner.generate_dataset, plan, True)
        ops.run(["observe"], runner.run_observers, plan)
        n = (plan.task.J + 1) * plan.n_test_per_class
        ops.counts["generate"] += n
        ops.counts["observe"] += n
    ranking = ops.run(["rank"], runner.ranking_report,
                      [p.out_dir / "report.csv" for p in plans],
                      failed_if=ranking_lists_a_system_twice)
    return {"plans": plans, "ranking": ranking}


def cnn_train(work_dir: Path, seed: int, ops: Ops) -> dict:
    plan = _plan(work_dir, "bke_system1", observers=["cnn_io"],
                 n_val_per_class=CNN_VAL_PER_CLASS,
                 n_test_per_class=CNN_TEST_PER_CLASS, seed=seed,
                 batch_per_class=CNN_BATCH_PER_CLASS,
                 total_minibatches=CNN_STEPS, val_period=CNN_VAL_PERIOD,
                 conv_layers=5)
    classes = plan.task.J + 1
    ops.run(["generate"], runner.generate_dataset, plan, True)
    ops.counts["generate"] += classes * (CNN_VAL_PER_CLASS + CNN_TEST_PER_CLASS)
    result = ops.run(["train"], runner.run_training, plan)
    ops.counts["train"] += CNN_STEPS * classes * CNN_BATCH_PER_CLASS
    ops.run(["observe"], runner.run_observers, plan)
    ops.counts["observe"] += classes * CNN_TEST_PER_CLASS
    return {"plan": plan, "train_result": result}


def _clb_store(path: Path, seed: int) -> list:
    """Draw, render and noise the clustered-lumpy store; returns the
    realizations with their noiseless images for the output checks."""
    task = task_preset("clb")
    w, h = task.grid
    kept = []
    with dataset.DatasetWriter(path, w, h, task.J) as out:
        for i in range(CLB_IMAGES):
            rng = np.random.default_rng([seed, 0xC1B, i])
            real = phantoms.sample_clb(task.clb, rng)
            clean = imaging.render_clb_image(real, task.clb)
            out.append(imaging.apply_noise(clean, task.noise, rng), 0)
            kept.append((real, clean))
    return kept


def lumpy_backgrounds(work_dir: Path, seed: int, ops: Ops) -> dict:
    plan = _plan(work_dir, "lb", observers=["hotelling"],
                 n_train_backgrounds=LB_TRAIN_BACKGROUNDS,
                 n_val_per_class=LB_VAL_PER_CLASS,
                 n_test_per_class=LB_TEST_PER_CLASS, seed=seed,
                 cov_samples=LB_COV_SAMPLES,
                 mcmc_iterations=LB_MCMC_ITERATIONS,
                 bootstrap_samples=LB_BOOTSTRAP)
    classes = plan.task.J + 1
    n_test = classes * LB_TEST_PER_CLASS
    ops.run(["generate"], runner.generate_dataset, plan, True)
    ops.counts["generate"] += LB_TRAIN_BACKGROUNDS + classes * (
        LB_VAL_PER_CLASS + LB_TEST_PER_CLASS)
    built = []
    build = observers.build_hotelling

    def keep_templates(backgrounds, signals, noise_var, *args, **kwargs):
        state = build(backgrounds, signals, noise_var, *args, **kwargs)
        built.append((backgrounds, noise_var, state))
        return state

    observers.build_hotelling = keep_templates
    try:
        ops.run(["observe", "hotelling"], runner.run_observers, plan)
    finally:
        observers.build_hotelling = build
    plan.observers = ["mcmc_io"]
    ops.run(["observe", "mcmc"], runner.run_observers, plan)
    ops.counts["observe"] += 2 * n_test
    ops.counts["mcmc"] += n_test * LB_MCMC_ITERATIONS
    clb = ops.run(["clb"], _clb_store, work_dir / "clb_store.bin", seed)
    ops.counts["clb"] += CLB_IMAGES
    return {"plan": plan, "hotelling": built, "clb": clb}


def _rate(key):
    return lambda sec, cnt: cnt[key] / sec[key] if sec[key] > 0 else 0.0


# Stage figures of each workload, reported with the per-layer metrics:
# name -> (unit, {workload: value from the phase seconds and counts}).
STAGE_METRICS = {
    "bke_generate_images_per_s": ("images/s", {"bke_criterion1": _rate("generate")}),
    "bke_evaluate_images_per_s": ("images/s", {"bke_criterion1": _rate("observe")}),
    "train_images_per_s": ("images/s", {"cnn_train": _rate("train")}),
    "infer_images_per_s": ("images/s", {"cnn_train": _rate("observe")}),
    "lb_backgrounds_per_s": ("images/s", {"lumpy_backgrounds": _rate("generate")}),
    "lb_hotelling_s": ("s", {"lumpy_backgrounds": lambda sec, cnt: sec["hotelling"]}),
    "mcmc_iters_per_s": ("iterations/s", {"lumpy_backgrounds": _rate("mcmc")}),
    "clb_backgrounds_per_s": ("images/s", {"lumpy_backgrounds": _rate("clb")}),
}

# name -> (round function, presets built in set-up, round budget in
# seconds).  A run does floor(seconds / budget) rounds, at least one, so
# every run of a workload does the same work.  The budgets are at or above
# the round times measured on the reference host (15.5, 7 and 7 s) and keep
# the runs of all workloads within the benchmark's total time.
WORKLOADS = {
    "bke_criterion1": (bke_criterion1, BKE_SYSTEMS, 15.0),
    "cnn_train": (cnn_train, ("bke_system1",), 9.0),
    "lumpy_backgrounds": (lumpy_backgrounds, ("lb", "clb"), 7.5),
}
