"""Experiment orchestration: config loading, dataset generation, observer
execution, and network training."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import evaluation, neuralnet, observers, workers
from .dataset import DatasetWriter, read_dataset
from .mcmc import McmcConfig, mcmc_io_record
from .neuralnet import Architecture, TrainSchedule, TrainingDiverged
from .rng import stream, substream
from .tasks import PRESETS, TaskConfig, simulate_measurement, task_preset

# Types a plan key may hold, by the annotation of its ExperimentPlan field
# (JSON gives no Path); an int is accepted for a float, and a bool for nothing
_JSON_TYPES = {"str": str, "Path": (str, Path), "list[str]": list, "int": int,
               "float": (int, float), "int | list[int]": (int, list)}

# Smallest accepted value of each bounded count
_LEAST = {"n_train_backgrounds": 0, "n_val_per_class": 0,
          "n_test_per_class": 0, "seed": 0, "batch_per_class": 1,
          "total_minibatches": 1, "val_period": 1, "mcmc_iterations": 1,
          "bootstrap_samples": 2, "cov_samples": 2}

# The presets an observer can run on, where it cannot run on all of them
_OBSERVER_PRESETS = {"analytic_io": ("bke_system1", "bke_system2"),
                     "mcmc_io": ("lb",)}


# Images per block of a split or store (_write_blocks); each block is drawn
# from its own substream, a split block's noise in one apply_noise call
_NOISE_BLOCK = 64

# Pixels per chunk that run_observers reads, into one buffer it reuses: 256
# images at 64x64 and 64 at 128x128, 4 MB of float32, so a chunk is 4
# Hotelling blocks at 64x64 and both threads score it
_CHUNK_PIXELS = 256 * 64 * 64


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
        for f in fields(self):
            val = getattr(self, f.name)
            if type(val) is bool or not isinstance(val, _JSON_TYPES[f.type]):
                raise ConfigError(f"{f.name}: must be {f.type}, got {val!r}")
        if self.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {self.preset!r}; "
                              f"expected one of {PRESETS}")
        for i, obs in enumerate(self.observers):
            if not isinstance(obs, str) or obs not in OBSERVERS:
                raise ConfigError(f"observers: unknown observer {obs!r}")
            if obs in self.observers[:i]:
                raise ConfigError(f"observers: {obs!r} is listed twice")
            if self.preset not in _OBSERVER_PRESETS.get(obs, PRESETS):
                raise ConfigError(f"observers: {obs} needs preset "
                                  f"{' or '.join(_OBSERVER_PRESETS[obs])}, "
                                  f"not {self.preset!r}")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ConfigError(f"{key}: must be at least {least}, got "
                                  f"{getattr(self, key)}")
        if not 0.0 < self.learning_rate <= neuralnet._LARGEST_RATE:
            raise ConfigError(f"learning_rate: must be above 0 and at most "
                              f"{neuralnet._LARGEST_RATE:.8g}, got "
                              f"{self.learning_rate}")
        d = self.depths
        if not (d and all(type(k) is int and k >= 1 for k in d)
                and all(a < b for a, b in zip(d, d[1:]))):
            raise ConfigError(f"conv_layers: need one or more strictly "
                              f"increasing depths of at least 1, got "
                              f"{self.conv_layers}")
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


def _write_blocks(path, task, labels, seed, name, draw):
    """Write a dataset file of images with these labels, block b of
    _NOISE_BLOCK of them being draw(labels of the block, rng) on
    rng = substream(seed, name, b), and return the file's sha256.  The
    blocks go through workers.ordered_blocks: drawn on up to two executor
    threads, each as soon as a drawer is free, and appended whole, in
    block order, on this thread, which hashes the bytes as it writes them,
    so the file depends only on (seed, name, labels, draw) and is not read
    back."""
    w, h = task.grid
    blocks = [labels[lo:lo + _NOISE_BLOCK]
              for lo in range(0, len(labels), _NOISE_BLOCK)]
    with DatasetWriter(path, w, h, task.J, len(labels)) as out:
        workers.ordered_blocks(
            lambda b: draw(blocks[b], substream(seed, name, b)), len(blocks),
            lambda b, images: out.append(images, blocks[b]))
    return out.sha256.hexdigest()


def generate_dataset(plan: ExperimentPlan, force: bool = False) -> dict:
    """Write the noiseless training store and fixed noisy val/test splits.

    One table maps each file to its stream name, labels and block draw,
    and each is written by _write_blocks in table order.  Block b of a file
    draws from substream(seed, name, b), with the file's name
    "train-backgrounds", "val-images" or "test-images", so no background
    can appear in more than one file, and no file depends on the CPU count.
    The blocks are drawn on up to two executor threads and written in
    block order on the caller's thread, and each file's sha256 in the
    manifest is the one computed while writing it; no file is read back.
    Every file is written under a temporary name in the output
    directory.  Once all are complete, each file already there is set
    aside as .NAME.old, each temporary is renamed into place, the manifest
    last, and the set-aside files are removed.  So no rename lands on an
    existing file, which would make ext4 (auto_da_alloc) start writing the
    new file out at once, and a later unlink of the old one wait for that.
    If anything raises before every temporary is in place, an interrupt
    included, the new files and the temporaries are removed and the
    set-aside files renamed back, so the files already there keep their
    bytes and no other file is left.  Nothing is fsynced: this guards
    against a failing or interrupted process, not against power loss.
    Returns the manifest entries.
    """
    plan = replace(plan)  # checked again, as in run_observers
    task = plan.task
    out = plan.out_dir
    out.mkdir(parents=True, exist_ok=True)

    # file -> (stream name, labels, draw of a block), in writing order
    files = {}
    if plan.n_train_backgrounds > 0:
        files["train_backgrounds"] = (
            "train-backgrounds", np.zeros(plan.n_train_backgrounds, dtype=int),
            lambda block, rng: [task.sample_background(rng) for _ in block])
    for split, n in (("val", plan.n_val_per_class),
                     ("test", plan.n_test_per_class)):
        files[split] = (
            f"{split}-images", np.repeat(np.arange(task.J + 1), n),
            lambda block, rng: simulate_measurement(task, block, rng)[0])
    existing = [out / f"{n}.bin" for n in files if (out / f"{n}.bin").exists()]
    if existing and not force:
        raise FileExistsError(
            f"refusing to overwrite {existing[0]} (use force)")

    # file name -> temporary path, in renaming order: the manifest last
    temps = {f: out / f".{f}.partial"
             for f in [f"{n}.bin" for n in files] + ["manifest.txt"]}
    aside = {}  # file name -> the name its old file is set aside under
    placed = []  # the file names whose temporary is in place
    try:
        digests = {n: _write_blocks(temps[f"{n}.bin"], task, labels,
                                    plan.seed, name, draw)
                   for n, (name, labels, draw) in files.items()}
        manifest = {
            "preset": plan.preset,
            "seed": plan.seed,
            "n_train_backgrounds": plan.n_train_backgrounds,
            "n_val_per_class": plan.n_val_per_class,
            "n_test_per_class": plan.n_test_per_class,
        }
        for name, digest in digests.items():
            manifest[f"sha256_{name}"] = digest
        with open(temps["manifest.txt"], "w") as fh:
            for key, val in manifest.items():
                fh.write(f"{key}={val}\n")
        for name in temps:
            if (out / name).exists():
                os.replace(out / name, out / f".{name}.old")
                aside[name] = out / f".{name}.old"
        for name, tmp in temps.items():
            os.replace(tmp, out / name)
            placed.append(name)
    finally:
        if len(placed) < len(temps):  # put the old files back
            for name in placed:
                (out / name).unlink()
            for name, old in aside.items():
                os.replace(old, out / name)
        for path in [*temps.values(), *aside.values()]:
            path.unlink(missing_ok=True)
    return manifest


def _read_split(path, task, start=0, stop=None, out=None):
    """Images and labels of records start..stop (all by default) of a
    dataset file made for the task's grid and J, and the file's record
    count; with out, read into those buffers (read_dataset), as
    run_observers reads every chunk of a split."""
    if not path.exists():
        raise FileNotFoundError(f"missing {path}; run generate first")
    images, labels, meta = read_dataset(path, start, stop, out=out)
    found = (meta["width"], meta["height"], meta["n_locations"])
    if found != (*task.grid, task.J):
        raise ValueError(f"{path}: (width, height, J) is {found}, but the "
                         f"plan's task has {(*task.grid, task.J)}")
    return images, labels, meta["count"]


def _chunk_edges(n, shape):
    """Edges of the chunks in which run_observers reads a split of n images
    of shape (h, w): _CHUNK_PIXELS pixels of images each (at least one),
    the last taking the rest.  An observer's record of an image depends on
    that image alone, so any cut gives the records of the whole split."""
    k = max(1, _CHUNK_PIXELS // (shape[0] * shape[1]))
    return [*range(0, n, k), n]


def _analytic_io(task, plan):
    background = np.zeros(task.grid[::-1], dtype=np.float32)
    return lambda images, labels: observers.records_from_log_lrs(
        observers.laplacian_io_log_lrs_batch(
            images, task.signal_images, background, task.noise.scale),
        task.priors, labels)


def _hotelling(task, plan):
    """Scores with templates built at the first call, from covariance
    samples drawn from the plan's "hotelling-covariance" stream (none on
    the BKE tasks), and kept for the later calls, the split's later
    chunks."""
    state = None

    def score(images, labels):
        nonlocal state
        if state is None:
            backgrounds = None
            if task.kind != "bke_laplacian":
                rng = stream(plan.seed, "hotelling-covariance")
                backgrounds = np.empty((plan.cov_samples, *task.grid[::-1]),
                                       dtype=np.float32)
                for sample in backgrounds:  # drawn in place, one stack held
                    sample[...] = task.sample_background(rng)
            state = observers.build_hotelling(
                backgrounds, task.signal_images, task.noise.std ** 2)
        return observers.scanning_ho_records(images, labels, state)
    return score


def _mcmc_chain(g, task, cfg, rng, label):
    """One chain's one-row records, run by a task_map.  A pool sends this
    function by name, and it looks mcmc_io_record up here when called, so a
    worker runs whatever the parent had bound to that name."""
    return mcmc_io_record(g, task, cfg, rng, true_label=int(label))


def _mcmc_io(task, plan):
    """Scores with one chain per image, the chain of the split's image i
    drawing from substream(seed, "mcmc-chain", i), where i counts the
    images of earlier calls (the split's earlier chunks) too.  The chains
    of a call are mapped by workers.task_map (in process on one usable
    CPU) and their rows concatenated in image order, so the records do not
    depend on the worker count.  If a chain raises, the chains not yet
    started do not run."""
    cfg = McmcConfig(
        iterations=plan.mcmc_iterations,
        burn_in=None if plan.mcmc_burn_in < 0 else plan.mcmc_burn_in)
    scored = 0  # images of the earlier calls

    def score(images, labels):
        nonlocal scored
        first, scored = scored, scored + len(images)
        rngs = (substream(plan.seed, "mcmc-chain", i)
                for i in range(first, scored))
        with workers.task_map(len(images)) as tasks:
            return observers.Records.concatenate(list(tasks(
                _mcmc_chain, images, repeat(task), repeat(cfg), rngs,
                labels)))
    return score


def _cnn_io(task, plan):
    """Scores with the plan's checkpoint, checked against the task."""
    ckpt = plan.out_dir / "checkpoint.bin"
    if not ckpt.exists():
        raise FileNotFoundError(f"cnn_io requires a checkpoint at {ckpt}")
    state = neuralnet.load_checkpoint(ckpt)
    found = (state.arch.n_classes, state.arch.input_shape)
    expected = (task.J + 1, task.grid[::-1])
    if found != expected:
        raise ValueError(f"{ckpt}: (classes, input shape) is {found}, but "
                         f"the plan's task has {expected}")
    return lambda images, labels: neuralnet.cnn_io_records(
        images, labels, state, task.priors)


# Each observer's set-up maps (task, plan) to score(images, labels) ->
# Records; it only checks and loads, and the expensive work runs in score,
# which is called on the chunks of one test split in order
OBSERVERS = {"analytic_io": _analytic_io,
             "hotelling": _hotelling,
             "mcmc_io": _mcmc_io,
             "cnn_io": _cnn_io}


def _report(name, records, plan):
    """Write one observer's records and curves and return its report row,
    with its ALROC and AUC bootstrapped from the observer's named streams;
    run by a task_map."""
    out = plan.out_dir
    observers.records_to_csv(out / f"records_{name}.csv", records)
    evaluation.curve_to_csv(out / f"lroc_{name}.csv",
                            evaluation.empirical_lroc(records))
    alroc = evaluation.alroc(records, plan.bootstrap_samples,
                             stream(plan.seed, f"bootstrap-{name}"))
    evaluation.curve_to_csv(out / f"roc_{name}.csv",
                            evaluation.empirical_roc(records))
    auc = evaluation.auc(records, plan.bootstrap_samples,
                         stream(plan.seed, f"bootstrap-roc-{name}"))
    return {"observer": name, "task": plan.task.kind, "system": plan.preset,
            "alroc": alroc.value, "alroc_se": alroc.std_error,
            "auc": auc.value, "auc_se": auc.std_error,
            "n_records": len(records)}


def run_observers(plan: ExperimentPlan) -> list[dict]:
    """Run the configured observers on the test split; write records,
    curves, and the figure-of-merit report.

    A copy of the plan is checked first (replace runs __post_init__), as
    a field can be reassigned after construction; then the observer list
    must not be empty, and the split's header is read.  Every
    observer is set up next, in plan order, so a failed check (a missing
    or mismatched checkpoint) raises before any observer scores.  The
    split is then read a chunk at a time (_chunk_edges), one read_dataset
    call each, into one image buffer and one label buffer of the largest
    chunk's size, allocated once for the pass; each chunk is scored by
    every observer in plan order, so one chunk of images is held, not the
    split.  No scorer keeps a view of its input (the records copy the
    labels, and a pool pickles the images), so the next read may overwrite
    the buffers.  Each observer's records are its chunks' rows in image
    order, the bytes a call on the whole split gives.  A bad record fails
    its chunk's read, before any file is written.  The buffers are freed,
    and then each observer's files and figures of merit are one task of a
    workers.task_map, and the report lists the rows in observer order."""
    plan = replace(plan)
    if not plan.observers:
        raise ConfigError("observers: empty observer list")
    task = plan.task
    test_path = plan.out_dir / "test.bin"
    n = _read_split(test_path, task, 0, 0)[2]
    if n == 0:
        raise ConfigError(f"n_test_per_class: the observers need test "
                          f"images, and {test_path} has none")
    scorers = [OBSERVERS[name](task, plan) for name in plan.observers]
    chunks = [[] for _ in scorers]  # each observer's records, per chunk
    edges = _chunk_edges(n, task.grid[::-1])
    largest = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    buffers = (np.empty((largest, *task.grid[::-1]), dtype=np.float32),
               np.empty(largest, dtype=np.uint8))
    for lo, hi in zip(edges, edges[1:]):
        images, labels, _ = _read_split(test_path, task, lo, hi, buffers)
        for score, done in zip(scorers, chunks):
            done.append(score(images, labels))
    del buffers, images, labels  # so that the reports run without them
    records = [observers.Records.concatenate(c) for c in chunks]
    with workers.task_map(len(records)) as tasks:
        rows = list(tasks(_report, plan.observers, records, repeat(plan)))
    evaluation.report_to_csv(plan.out_dir / "report.csv", rows)
    return rows


def run_training(plan: ExperimentPlan):
    """Train the posterior network per plan; writes checkpoint + log CSV."""
    plan = replace(plan)  # checked again, as in run_observers
    task = plan.task
    out = plan.out_dir
    backgrounds = None
    if plan.n_train_backgrounds > 0:
        backgrounds = _read_split(out / "train_backgrounds.bin", task)[0]
    elif task.kind != "bke_laplacian":
        raise ConfigError(f"n_train_backgrounds: training on the {task.kind} "
                          "task needs stored backgrounds, and the plan has "
                          "none")
    val_images, val_labels, _ = _read_split(out / "val.bin", task)
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


# The columns ranking_report reads from a report CSV, the numbers last
_REPORT_COLUMNS = ("observer", "system", "alroc", "alroc_se", "auc", "auc_se")


def ranking_report(report_paths) -> dict:
    """Merge per-system report CSVs and, for each observer, flag ALROC/AUC
    ranking disagreement.  A file that lacks one of the columns read, or
    holds a figure of merit that is not a number, is rejected, naming it."""
    entries = []
    for path in report_paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for column in _REPORT_COLUMNS:
                if column not in (reader.fieldnames or ()):
                    raise ValueError(f"{path}: no {column!r} column")
            for row in reader:
                foms = []
                for column in _REPORT_COLUMNS[2:]:
                    try:
                        foms.append(float(row[column]))
                    except (TypeError, ValueError):  # None on a short row
                        raise ValueError(
                            f"{path}: line {reader.line_num}: {column} is "
                            f"{row[column]!r}, not a number") from None
                entries.append((
                    row["observer"], row["system"],
                    evaluation.FomEstimate(*foms[:2]),
                    evaluation.FomEstimate(*foms[2:])))
    return evaluation.compare_systems(entries)
