"""The traced benchmark run wraps package functions at the module attributes
their callers look them up under; every one of those names must exist, and
removing the wrappers must restore each attribute."""

import os
from pathlib import Path

import numpy as np

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
