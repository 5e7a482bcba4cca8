"""The traced benchmark run wraps package functions at the module attributes
their callers look them up under; every one of those names must exist, and
removing the wrappers must restore each attribute."""

import os
from pathlib import Path

import numpy as np
import pytest

from scanobs import (cli, dataset, evaluation, imaging, mcmc, neuralnet,
                     observers, phantoms, rng, runner, tasks)
from scanobs.imaging import NoiseModel
from scanobs.phantoms import SignalSpec
from scanobs.tasks import TaskConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, dataset, evaluation, imaging, mcmc, neuralnet, observers,
          phantoms, rng, runner, tasks, dataset.DatasetWriter)


def test_tracer_wraps_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    try:
        layers.install(tracer)
        wrapped = sum(vars(owner)[name] is not value
                      for owner, names in zip(OWNERS, before)
                      for name, value in names.items())
    finally:
        tracer.unwrap_all()
    assert wrapped > 0
    for owner, names in zip(OWNERS, before):
        assert dict(vars(owner)) == names, owner


def test_traced_training_times_each_network_pass(tmp_path, monkeypatch):
    # the micro-batches run in workers, but the parent still calls the
    # network passes at their module attributes, once per step and per
    # validation, so the traced figures keep measuring them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    task = TaskConfig(kind="custom", grid=(64, 64),
                      noise=NoiseModel.gaussian(1.0),
                      signals=[SignalSpec(1, (32.0, 32.0), 1.5, 4.0, 4.0)])
    arch = neuralnet.Architecture(1, (64, 64), n_classes=2, filters=2,
                                  kernel=3)
    schedule = neuralnet.TrainSchedule(total_minibatches=2, batch_per_class=5,
                                       val_period=1)
    val_images = np.zeros((10, 64, 64), dtype=np.float32)
    tracer = Tracer()
    try:
        layers.install(tracer)
        neuralnet.train(arch, task, None, schedule, val_images,
                        np.arange(10) % 2, tmp_path / "log.csv")
    finally:
        tracer.unwrap_all()
    for name in ("neuralnet.loss_and_gradient",
                 "neuralnet.forward_posteriors"):
        assert sum(s.name == name for s in tracer.spans) == 2, name
        assert tracer.seconds(name) > 0, name


def test_traced_evaluation_times_inference(tmp_path, monkeypatch):
    # cnn_io's micro-batches run in workers, and its one network pass is
    # still timed in the parent
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plan = runner.ExperimentPlan("bke_system1", tmp_path,
                                 observers=["cnn_io"], n_val_per_class=0,
                                 n_test_per_class=1, bootstrap_samples=2)
    runner.generate_dataset(plan)
    arch = neuralnet.Architecture(1, (64, 64), n_classes=10, filters=2,
                                  kernel=3)
    neuralnet.save_checkpoint(tmp_path / "checkpoint.bin",
                              neuralnet.init_state(arch, seed=1))
    tracer = Tracer()
    try:
        layers.install(tracer)
        runner.run_observers(plan)
    finally:
        tracer.unwrap_all()
    name = "neuralnet.forward_posteriors"
    assert sum(s.name == name for s in tracer.spans) == 1
    assert tracer.seconds(name) > 0


@pytest.mark.parametrize("preset", ["bke_system1", "lb"])
def test_traced_generate_times_each_block(tmp_path, monkeypatch, preset):
    # the blocks are drawn on two threads, and each block's one
    # simulate_measurement call, its one noise draw and its one append are
    # still spans
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plan = runner.ExperimentPlan(preset, tmp_path, n_train_backgrounds=70,
                                 n_val_per_class=7, n_test_per_class=13)
    tracer = Tracer()
    try:
        layers.install(tracer)
        runner.generate_dataset(plan)
    finally:
        tracer.unwrap_all()
    blocks = 2 + 3  # of the 70 validation and 130 test images
    for name in ("tasks.simulate_measurement", "imaging.apply_noise"):
        assert tracer.calls(name) == blocks, name
        assert tracer.seconds(name) > 0, name
    # each block, the 70 backgrounds' two included, is appended whole on
    # the caller's thread
    assert tracer.calls("dataset.DatasetWriter.append") == 2 + blocks
