"""Experiment orchestration: config loading, dataset generation, observer
execution, and network training."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import MISSING, dataclass, field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import evaluation, neuralnet, observers, workers
from .dataset import DatasetWriter, read_dataset
from .mcmc import McmcConfig, mcmc_io_record
from .neuralnet import Architecture, TrainSchedule, TrainingDiverged
from .rng import stream, substream
from .tasks import PRESETS, TaskConfig, simulate_measurement, task_preset

# JSON types a plan key may hold, by the annotation of its ExperimentPlan
# field; an int is accepted for a float, and a bool for nothing
_JSON_TYPES = {"str": str, "Path": str, "list[str]": list, "int": int,
               "float": (int, float), "int | list[int]": (int, list)}

# Smallest accepted value of each bounded count
_LEAST = {"n_train_backgrounds": 0, "n_val_per_class": 0,
          "n_test_per_class": 0, "batch_per_class": 1, "total_minibatches": 1,
          "val_period": 1, "mcmc_iterations": 1, "bootstrap_samples": 2,
          "cov_samples": 2}

# The presets an observer can run on, where it cannot run on all of them
_OBSERVER_PRESETS = {"analytic_io": ("bke_system1", "bke_system2"),
                     "mcmc_io": ("lb",)}

# Adam applies the rate to float32 parameters, so it must be a finite float32
_LARGEST_RATE = float(np.finfo(np.float32).max)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentPlan:
    preset: str
    out_dir: Path
    observers: list[str] = field(default_factory=list)
    n_train_backgrounds: int = 0
    n_val_per_class: int = 200
    n_test_per_class: int = 200
    seed: int = 0
    batch_per_class: int = 80
    total_minibatches: int = 50_000
    learning_rate: float = 1e-4
    val_period: int = 1000
    conv_layers: int | list[int] = 5
    cov_samples: int = 2000
    mcmc_iterations: int = 200_000
    mcmc_burn_in: int = -1
    bootstrap_samples: int = 1000

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {self.preset!r}; "
                              f"expected one of {PRESETS}")
        for obs in self.observers:
            if obs not in OBSERVERS:
                raise ConfigError(f"observers: unknown observer {obs!r}")
            if self.preset not in _OBSERVER_PRESETS.get(obs, PRESETS):
                raise ConfigError(f"observers: {obs} needs preset "
                                  f"{' or '.join(_OBSERVER_PRESETS[obs])}, "
                                  f"not {self.preset!r}")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ConfigError(f"{key}: must be at least {least}, got "
                                  f"{getattr(self, key)}")
        if not 0.0 < self.learning_rate <= _LARGEST_RATE:
            raise ConfigError(f"learning_rate: must be above 0 and at most "
                              f"{_LARGEST_RATE:.8g}, got {self.learning_rate}")
        if not self.depths or not all(isinstance(d, int) and d >= 1
                                      for d in self.depths):
            raise ConfigError(f"conv_layers: need one or more depths of at "
                              f"least 1, got {self.conv_layers}")
        if self.mcmc_burn_in < -1:
            raise ConfigError(f"mcmc_burn_in: must be >= 0, or -1 for the "
                              f"default, got {self.mcmc_burn_in}")
        if self.mcmc_iterations <= self.mcmc_burn_in:
            raise ConfigError(f"mcmc_iterations: {self.mcmc_iterations} must "
                              f"exceed mcmc_burn_in {self.mcmc_burn_in}")
        self.out_dir = Path(self.out_dir)

    @property
    def task(self) -> TaskConfig:
        return task_preset(self.preset)

    @property
    def depths(self) -> list[int]:
        """The depths to train: conv_layers as a list."""
        c = self.conv_layers
        return c if isinstance(c, list) else [c]


def load_config(path) -> ExperimentPlan:
    """Load and validate a flat-key JSON experiment plan.  Its keys, which
    of them are required, and their types and defaults are the fields of
    ExperimentPlan."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - {f.name for f in fields(ExperimentPlan)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for f in fields(ExperimentPlan):
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path}: missing required key {f.name!r}")
            continue
        val = raw[f.name]
        if not isinstance(val, _JSON_TYPES[f.type]) or isinstance(val, bool):
            raise ConfigError(f"{path}: key {f.name!r} must be {f.type}")
        if f.type == "float":
            raw[f.name] = float(val)
    return ExperimentPlan(**raw)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_split(path, task, n_per_class, rng):
    """Balanced noisy split: n images per class, labels 0..J in order."""
    w, h = task.grid
    with DatasetWriter(path, w, h, task.J) as out:
        for label in range(task.J + 1):
            for _ in range(n_per_class):
                img, _ = simulate_measurement(task, label, rng)
                out.append(img, label)


def generate_dataset(plan: ExperimentPlan, force: bool = False) -> dict:
    """Write the noiseless training store and fixed noisy val/test splits.

    Each split draws from its own named random stream, so no background can
    appear in more than one split.  Every file is written under a temporary
    name in the output directory and renamed into place only once all are
    complete, the manifest last; if anything raises, an interrupt included,
    the temporaries are removed and the files already there keep their
    bytes.  Nothing is fsynced: this guards against a failing or interrupted
    process, not against power loss.  Returns the manifest entries.
    """
    task = plan.task
    out = plan.out_dir
    out.mkdir(parents=True, exist_ok=True)
    w, h = task.grid

    names = ["val", "test"]
    if plan.n_train_backgrounds > 0:
        names.insert(0, "train_backgrounds")
    existing = [out / f"{n}.bin" for n in names if (out / f"{n}.bin").exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (use force)")

    # file name -> temporary path, in renaming order: the manifest last
    temps = {f: out / f".{f}.partial"
             for f in [f"{n}.bin" for n in names] + ["manifest.txt"]}
    try:
        if plan.n_train_backgrounds > 0:
            rng = stream(plan.seed, "train-backgrounds")
            with DatasetWriter(temps["train_backgrounds.bin"], w, h,
                               task.J) as writer:
                for _ in range(plan.n_train_backgrounds):
                    writer.append(task.sample_background(rng), 0)

        for split, n in (("val", plan.n_val_per_class),
                         ("test", plan.n_test_per_class)):
            _write_split(temps[f"{split}.bin"], task, n,
                         stream(plan.seed, f"{split}-images"))

        manifest = {
            "preset": plan.preset,
            "seed": plan.seed,
            "n_train_backgrounds": plan.n_train_backgrounds,
            "n_val_per_class": plan.n_val_per_class,
            "n_test_per_class": plan.n_test_per_class,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        for name in names:
            manifest[f"sha256_{name}"] = _sha256(temps[f"{name}.bin"])
        with open(temps["manifest.txt"], "w") as fh:
            for key, val in manifest.items():
                fh.write(f"{key}={val}\n")
        for name, tmp in temps.items():
            os.replace(tmp, out / name)
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
    return manifest


def _read_split(path, task):
    """Images and labels of a dataset file made for the task's grid and J."""
    images, labels, meta = read_dataset(path)
    found = (meta["width"], meta["height"], meta["n_locations"])
    if found != (*task.grid, task.J):
        raise ValueError(f"{path}: (width, height, J) is {found}, but the "
                         f"plan's task has {(*task.grid, task.J)}")
    return images, labels


def _analytic_io_records(images, labels, task, plan):
    if task.kind != "bke_laplacian":
        raise ValueError("analytic IO is available only for the Laplacian "
                         "BKE task")
    background = np.zeros(task.grid[::-1], dtype=np.float32)
    log_lrs = observers.laplacian_io_log_lrs_batch(
        images, task.signal_images, background, task.noise.scale)
    return observers.records_from_log_lrs(log_lrs, task.priors, labels)


def _hotelling_records(images, labels, task, plan):
    if task.kind == "bke_laplacian":
        backgrounds = None
    else:
        rng = stream(plan.seed, "hotelling-covariance")
        backgrounds = np.stack([task.sample_background(rng)
                                for _ in range(plan.cov_samples)])
    state = observers.build_hotelling(backgrounds, task.signal_images,
                                      task.noise.std ** 2)
    return observers.scanning_ho_records(images, labels, state)


def _mcmc_chain(g, task, cfg, rng, label):
    """One chain's one-row records, run in a pool worker.  The pool sends
    this function by name, and it looks mcmc_io_record up here when called,
    so a worker runs whatever the parent had bound to that name."""
    return mcmc_io_record(g, task, cfg, rng, true_label=int(label))


def _mcmc_records(images, labels, task, plan):
    """One chain per image, each from its own substream, run one per usable
    CPU in forked single-BLAS-thread workers; the rows are concatenated in
    image order, so the records do not depend on the worker count.  If a
    chain raises, map cancels the chains not yet started."""
    cfg = McmcConfig(
        iterations=plan.mcmc_iterations,
        burn_in=None if plan.mcmc_burn_in < 0 else plan.mcmc_burn_in)
    rngs = (substream(plan.seed, "mcmc-chain", i)
            for i in range(len(images)))
    with workers.fork_pool(len(images)) as pool:
        return observers.Records.concatenate(list(pool.map(
            _mcmc_chain, images, repeat(task), repeat(cfg), rngs, labels)))


def _cnn_records(images, labels, task, plan):
    ckpt = plan.out_dir / "checkpoint.bin"
    if not ckpt.exists():
        raise FileNotFoundError(f"cnn_io requires a checkpoint at {ckpt}")
    state = neuralnet.load_checkpoint(ckpt)
    return neuralnet.cnn_io_records(images, labels, state, task.priors)


# Each observer maps (images, labels, task, plan) to its test-split records
OBSERVERS = {"analytic_io": _analytic_io_records,
             "hotelling": _hotelling_records,
             "mcmc_io": _mcmc_records,
             "cnn_io": _cnn_records}


def run_observers(plan: ExperimentPlan) -> list[dict]:
    """Run the configured observers on the test split; write records,
    curves, and the figure-of-merit report."""
    if not plan.observers:
        raise ConfigError("observers: empty observer list")
    task = plan.task
    test_path = plan.out_dir / "test.bin"
    if not test_path.exists():
        raise FileNotFoundError(f"missing test set {test_path}; "
                                "run generate first")
    images, labels = _read_split(test_path, task)
    if len(images) == 0:
        raise ConfigError(f"n_test_per_class: the observers need test "
                          f"images, and {test_path} has none")
    rows = []
    for name in plan.observers:
        records = OBSERVERS[name](images, labels, task, plan)
        observers.records_to_csv(plan.out_dir / f"records_{name}.csv", records)
        evaluation.curve_to_csv(plan.out_dir / f"lroc_{name}.csv",
                                evaluation.empirical_lroc(records))
        alroc = evaluation.alroc(records, plan.bootstrap_samples,
                                 stream(plan.seed, f"bootstrap-{name}"))
        evaluation.curve_to_csv(plan.out_dir / f"roc_{name}.csv",
                                evaluation.empirical_roc(records))
        auc = evaluation.auc(records, plan.bootstrap_samples,
                             stream(plan.seed, f"bootstrap-roc-{name}"))
        rows.append({"observer": name, "task": task.kind,
                     "system": plan.preset, "alroc": alroc.value,
                     "alroc_se": alroc.std_error, "auc": auc.value,
                     "auc_se": auc.std_error, "n_records": len(records)})
    evaluation.report_to_csv(plan.out_dir / "report.csv", rows)
    return rows


def run_training(plan: ExperimentPlan):
    """Train the posterior network per plan; writes checkpoint + log CSV."""
    task = plan.task
    out = plan.out_dir
    backgrounds = None
    if plan.n_train_backgrounds > 0:
        bg_path = out / "train_backgrounds.bin"
        if not bg_path.exists():
            raise FileNotFoundError(f"missing training store {bg_path}; "
                                    "run generate first")
        backgrounds, _ = _read_split(bg_path, task)
    elif task.kind != "bke_laplacian":
        raise ConfigError(f"n_train_backgrounds: training on the {task.kind} "
                          "task needs stored backgrounds, and the plan has "
                          "none")
    val_images, val_labels = _read_split(out / "val.bin", task)
    if len(val_images) == 0:
        raise ConfigError(f"n_val_per_class: training needs validation "
                          f"images, and {out / 'val.bin'} has none")
    schedule = TrainSchedule(plan.total_minibatches, plan.batch_per_class,
                             plan.learning_rate, plan.val_period, plan.seed)
    try:
        result, history = neuralnet.select_depth(
            plan.depths, lambda depth: neuralnet.train(
                Architecture(depth, task.grid[::-1], task.J + 1), task,
                backgrounds, schedule, val_images, val_labels,
                out / f"training_log_depth{depth}.csv"))
    except TrainingDiverged as exc:
        neuralnet.save_checkpoint(out / "checkpoint_diverged.bin", exc.state)
        raise
    if isinstance(plan.conv_layers, list):
        with open(out / "depth_selection.csv", "w") as fh:
            fh.write("conv_layers,val_loss\n")
            for d, v in history:
                fh.write(f"{d},{v:.6f}\n")
    neuralnet.save_checkpoint(out / "checkpoint.bin", result.best_state)
    return result


def ranking_report(report_paths) -> dict:
    """Merge per-system report CSVs and, for each observer, flag ALROC/AUC
    ranking disagreement."""
    entries = []
    for path in report_paths:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                entries.append((
                    row["observer"],
                    row["system"],
                    evaluation.FomEstimate(float(row["alroc"]),
                                           float(row["alroc_se"])),
                    evaluation.FomEstimate(float(row["auc"]),
                                           float(row["auc_se"])),
                ))
    return evaluation.compare_systems(entries)
