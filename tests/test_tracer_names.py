"""The traced benchmark run wraps package functions at the module attributes
their callers look them up under; every one of those names must exist, and
removing the wrappers must restore each attribute."""

from pathlib import Path

from scanobs import (cli, dataset, evaluation, imaging, mcmc, neuralnet,
                     observers, phantoms, rng, runner, tasks)

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
