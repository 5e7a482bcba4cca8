import ast
import concurrent.futures
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest

from helpers import (
    records_from_csv,
    reference_write_blocks,
    traced_peak,
    write_dataset,
    write_malformed_checkpoint,
)
from scanobs import neuralnet, observers, runner, workers
from scanobs.cli import main
from scanobs.dataset import HEADER_SIZE, DatasetWriter, read_dataset
from scanobs.mcmc import McmcConfig, mcmc_io_record
from scanobs.neuralnet import TrainingDiverged, TrainSchedule, load_checkpoint
from scanobs.observers import Records
from scanobs.rng import substream
from scanobs.runner import (
    ConfigError,
    ExperimentPlan,
    generate_dataset,
    load_config,
    ranking_report,
    run_observers,
    run_training,
)
from scanobs.tasks import simulate_measurement, task_preset


def _write_config(tmp_path, **overrides):
    cfg = {"preset": "bke_system1", "out_dir": str(tmp_path / "out")}
    cfg.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_defaults(tmp_path):
    plan = load_config(_write_config(tmp_path))
    assert plan.preset == "bke_system1"
    assert plan.n_val_per_class == 200
    assert plan.total_minibatches == 50_000
    assert plan.batch_per_class == 80
    assert plan.conv_layers == 5
    assert plan.mcmc_iterations == 200_000
    assert plan.bootstrap_samples == 1000
    assert plan.learning_rate == 1e-4


def test_preset_constants():
    s1 = ExperimentPlan("bke_system1", "x").task
    assert s1.prf.height == 60.0 and s1.prf.width == 5.0
    assert s1.noise.kind == "laplacian"
    assert s1.noise.scale == pytest.approx(20.0 / math.sqrt(2.0))
    assert all(s.amplitude == 0.2 and s.width1 == 3.0 for s in s1.signals)
    assert len(s1.signals) == 9
    np.testing.assert_allclose(s1.priors, 0.1)

    s2 = ExperimentPlan("bke_system2", "x").task
    assert s2.prf.height == 144.0 and s2.prf.width == 12.0

    lb = ExperimentPlan("lb", "x").task
    assert lb.lumpy.mean_count == 8.0
    assert lb.lumpy.amplitude == 1.0 and lb.lumpy.lump_width == 7.0
    assert lb.prf.height == 40.0 and lb.prf.width == 1.5
    assert lb.noise.kind == "gaussian" and lb.noise.scale == 20.0
    assert all(s.amplitude == 0.5 and s.width1 == 2.0 for s in lb.signals)

    clb = ExperimentPlan("clb", "x").task
    assert clb.grid == (128, 128)
    assert clb.prf is None
    assert clb.noise.kind == "poisson_gaussian" and clb.noise.scale == 20.0


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, bogus_key=1))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, preset="no_such"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, observers=["psychic"]))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, seed="zero"))
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, seed=True))
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"preset": "lb"}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("overrides", [
    {"mcmc_iterations": 0}, {"mcmc_iterations": -3}, {"mcmc_burn_in": -7},
    {"mcmc_iterations": 100, "mcmc_burn_in": 100}])
def test_plan_rejects_bad_mcmc_settings(tmp_path, overrides):
    with pytest.raises(ConfigError, match="mcmc_"):
        ExperimentPlan("lb", tmp_path, **overrides)


def test_plan_accepts_default_and_zero_burn_in(tmp_path):
    assert ExperimentPlan("lb", tmp_path, mcmc_iterations=1).mcmc_burn_in == -1
    ExperimentPlan("lb", tmp_path, mcmc_iterations=1, mcmc_burn_in=0)


@pytest.mark.parametrize("overrides", [
    {"mcmc_iterations": 0}, {"mcmc_burn_in": -7}])
def test_cli_bad_mcmc_settings_are_one_line_errors(tmp_path, capsys,
                                                   overrides):
    cfg = _write_config(tmp_path, preset="lb", observers=["mcmc_io"],
                        **overrides)
    assert main(["generate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mcmc_" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"val_period": 0}, {"total_minibatches": 0}, {"batch_per_class": 0},
    {"bootstrap_samples": 0}, {"bootstrap_samples": 1}, {"conv_layers": []},
    {"conv_layers": 0}, {"conv_layers": [2, 0]}, {"n_train_backgrounds": -1},
    {"n_val_per_class": -1}, {"n_test_per_class": -1}, {"cov_samples": 0},
    {"cov_samples": 1}, {"learning_rate": 0}, {"learning_rate": -1.0},
    {"learning_rate": math.nan}, {"learning_rate": 1e39}, {"seed": -1},
    {"conv_layers": [True, 2]}, {"conv_layers": True},
    {"observers": ["hotelling", "hotelling"]},
    {"observers": ["analytic_io", "hotelling", "analytic_io"]},
    {"observers": [["hotelling"]]}, {"observers": [{"a": 1}]},
    {"conv_layers": [1, 1]}, {"conv_layers": [3, 1]}])
def test_plan_rejects_out_of_range_settings(tmp_path, overrides):
    key = next(iter(overrides))
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ExperimentPlan("bke_system1", tmp_path, **overrides)


@pytest.mark.parametrize("key, value, annotation", [
    ("n_test_per_class", "5", "int"), ("seed", None, "int"),
    ("learning_rate", "x", "float"), ("observers", "hotelling", "list[str]")])
def test_plan_rejects_a_wrong_typed_field(tmp_path, key, value, annotation):
    # a plan built directly, not from JSON: a one-line error naming the key,
    # not a TypeError from comparing a string or None with a bound, nor a
    # string of observers read letter by letter
    with pytest.raises(ConfigError) as exc:
        ExperimentPlan("bke_system1", tmp_path, **{key: value})
    assert str(exc.value) == f"{key}: must be {annotation}, got {value!r}"


def test_plan_accepts_smallest_settings(tmp_path):
    ExperimentPlan("bke_system1", tmp_path, n_train_backgrounds=0,
                   n_val_per_class=0, n_test_per_class=0, batch_per_class=1,
                   total_minibatches=1, val_period=1, bootstrap_samples=2,
                   conv_layers=[1], cov_samples=2)


@pytest.mark.parametrize("overrides", [
    {"val_period": 0}, {"total_minibatches": 0}, {"bootstrap_samples": 1},
    {"conv_layers": []}, {"cov_samples": 0}, {"learning_rate": 0},
    {"learning_rate": -1.0}, {"learning_rate": math.nan},
    {"learning_rate": 1e39}, {"conv_layers": [True, 2]},
    {"observers": [["hotelling"]]}, {"observers": [{"a": 1}]},
    {"conv_layers": [1, 1]}, {"conv_layers": [3, 1]}])
def test_cli_out_of_range_plans_are_one_line_errors(tmp_path, capsys,
                                                    overrides):
    key = next(iter(overrides))
    cfg = _write_config(tmp_path, **{"observers": ["analytic_io"],
                                     **overrides})
    for verb in ("generate", "train", "evaluate"):
        assert main([verb, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, build", [
    ({"preset": "no_such"}, lambda: task_preset("no_such")),
    ({"total_minibatches": 0}, lambda: TrainSchedule(0)),
    ({"batch_per_class": 0}, lambda: TrainSchedule(1, batch_per_class=0)),
    ({"val_period": -3}, lambda: TrainSchedule(1, val_period=-3)),
    ({"learning_rate": 1e39}, lambda: TrainSchedule(1, learning_rate=1e39)),
    ({"learning_rate": 0.0}, lambda: TrainSchedule(1, learning_rate=0.0)),
    ({"mcmc_iterations": 0}, lambda: McmcConfig(0)),
    ({"mcmc_iterations": 100, "mcmc_burn_in": 100},
     lambda: McmcConfig(100, 100)),
    ({"mcmc_burn_in": -7}, lambda: McmcConfig(burn_in=-7))],
    ids=["preset", "total_minibatches", "batch_per_class", "val_period",
         "learning_rate-large", "learning_rate-zero", "mcmc_iterations",
         "mcmc_iterations-burn_in", "mcmc_burn_in"])
def test_each_plan_rule_is_stated_once(tmp_path, overrides, build):
    # a key the plan hands to the task, the schedule or the chains is
    # checked by that object alone: the plan's one-line error is the
    # object's message, which starts with the key, less the "mcmc_" of the
    # chain settings
    key = next(iter(overrides))
    with pytest.raises(ValueError) as owned:
        build()
    with pytest.raises(ConfigError) as planned:
        ExperimentPlan(**{"preset": "lb", "out_dir": tmp_path, **overrides})
    prefix = "mcmc_" if key.startswith("mcmc_") else ""
    assert str(planned.value) == prefix + str(owned.value)
    assert str(planned.value).startswith(f"{key}: ")


def test_runner_and_cli_use_no_private_package_name():
    # the orchestration reaches the other modules through their public
    # names only, so that what a module keeps private stays its own
    src = Path(runner.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    for name in ("runner.py", "cli.py"):
        private = [f"{node.value.id}.{node.attr}"
                   for node in ast.walk(ast.parse((src / name).read_text()))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in modules
                   and node.attr.startswith("_")]
        assert private == [], name


@pytest.mark.parametrize("plan_seed, args", [(0, ["--seed", "-1"]),
                                             (-2, [])])
def test_cli_negative_seed_is_one_line_error(tmp_path, capsys, plan_seed,
                                             args):
    cfg = _write_config(tmp_path, seed=plan_seed)
    for verb in ("generate", "train", "evaluate"):
        assert main([verb, "--config", str(cfg), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_train_without_validation_images_is_one_line_error(tmp_path,
                                                              capsys):
    cfg = _write_config(tmp_path, n_val_per_class=0, n_test_per_class=1,
                        conv_layers=1, batch_per_class=1, total_minibatches=1,
                        val_period=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_val_per_class: ")
    assert err.count("\n") == 1
    assert not list((tmp_path / "out").glob("checkpoint*"))
    assert not list((tmp_path / "out").glob("training_log*"))


def test_cli_train_before_generate_is_one_line_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, conv_layers=1, total_minibatches=1)
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: missing {tmp_path / 'out' / 'val.bin'}; run generate "
        f"first\n")


# learning_rate 1e30 moves every weight by about 1e30 at step 0, so the
# loss of step 1 overflows; the only validation is after the last step
_DIVERGING = dict(n_val_per_class=1, n_test_per_class=1, conv_layers=1,
                  batch_per_class=1, total_minibatches=3, val_period=3,
                  learning_rate=1e30)


def test_diverged_training_saves_last_completed_step(tmp_path):
    plan = ExperimentPlan("bke_system1", tmp_path / "o", **_DIVERGING)
    generate_dataset(plan)
    with pytest.raises(TrainingDiverged, match="at step 1$"):
        run_training(plan)
    state = load_checkpoint(tmp_path / "o" / "checkpoint_diverged.bin")
    assert state.step == 1
    assert all(np.isfinite(p).all() for p in state.params)
    assert not (tmp_path / "o" / "checkpoint.bin").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print too
def test_cli_diverging_train_is_one_line_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, **_DIVERGING)
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: loss became non-finite at step 1\n"
    assert (tmp_path / "out" / "checkpoint_diverged.bin").exists()


@pytest.mark.filterwarnings("error")
def test_cli_nonfinite_validation_loss_is_one_line_error(tmp_path, capsys):
    # one step at learning_rate 1e30: the step's loss is finite, but the
    # validation loss after it is not
    cfg = _write_config(tmp_path, n_val_per_class=1, n_test_per_class=1,
                        conv_layers=1, batch_per_class=1, total_minibatches=1,
                        learning_rate=1e30)
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: validation loss became non-finite at step 1\n"
    out = tmp_path / "out"
    log = (out / "training_log_depth1.csv").read_text().splitlines()
    assert log[-1].startswith("1,") and log[-1].endswith(",nan")
    state = load_checkpoint(out / "checkpoint_diverged.bin")
    assert state.step == 0     # no state validated finite: the initial one
    assert all(np.isfinite(p).all() for p in state.params)
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("preset, observer", [
    ("lb", "analytic_io"), ("clb", "analytic_io"), ("bke_system1", "mcmc_io"),
    ("bke_system2", "mcmc_io"), ("clb", "mcmc_io")])
def test_cli_observer_of_another_preset_is_one_line_error(tmp_path, capsys,
                                                          preset, observer):
    cfg = _write_config(tmp_path, preset=preset, observers=[observer],
                        n_val_per_class=1, n_test_per_class=1)
    for verb in ("generate", "train", "evaluate"):
        assert main([verb, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: observers: {observer} needs preset ")
        assert err.endswith(f", not {preset!r}\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, observer", [("bke_system1", "hotelling"),
                                              ("lb", "mcmc_io")])
def test_cli_evaluate_empty_test_split_is_one_line_error(tmp_path, capsys,
                                                         preset, observer):
    cfg = _write_config(tmp_path, preset=preset, observers=[observer],
                        n_val_per_class=0, n_test_per_class=0)
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: n_test_per_class: the observers need test "
                   f"images, and {tmp_path / 'out' / 'test.bin'} has none\n")
    assert not list((tmp_path / "out").glob("*.csv"))


def test_cli_config_directory_is_one_line_error(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _write_clb_shaped_splits(out):
    """val.bin and test.bin as a clb plan writes them: 128x128, J = 9."""
    clb = task_preset("clb")
    out.mkdir()
    for split in ("val", "test"):
        with DatasetWriter(out / f"{split}.bin", *clb.grid, clb.J) as w:
            for label in range(clb.J + 1):
                w.append(np.zeros(clb.grid[::-1], np.float32), label)


@pytest.mark.parametrize("verb", ["evaluate", "train"])
def test_cli_split_of_another_task_is_one_line_error(tmp_path, capsys, verb):
    cfg = _write_config(tmp_path, observers=["analytic_io"], conv_layers=1,
                        total_minibatches=1)
    _write_clb_shaped_splits(tmp_path / "out")
    split = "test" if verb == "evaluate" else "val"
    assert main([verb, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {tmp_path / 'out' / split}.bin: (width, height, "
                   f"J) is (128, 128, 9), but the plan's task has "
                   f"(64, 64, 9)\n")
    assert not list((tmp_path / "out").glob("*.csv"))
    assert not list((tmp_path / "out").glob("checkpoint*"))


@pytest.mark.parametrize("verb, split", [("evaluate", "test"),
                                         ("train", "val")])
def test_cli_label_above_j_is_one_line_error(tmp_path, capsys, verb, split):
    cfg = _write_config(tmp_path, observers=["analytic_io"], conv_layers=1,
                        n_val_per_class=1, n_test_per_class=1,
                        batch_per_class=1, total_minibatches=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    path = tmp_path / "out" / f"{split}.bin"
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 3 * (1 + 4 * 64 * 64)] = 200  # record 3's label; J = 9
    path.write_bytes(raw)
    assert main([verb, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: record 3 has label 200, above J = 9\n"
    assert not list((tmp_path / "out").glob("*.csv"))
    assert not list((tmp_path / "out").glob("checkpoint*"))


def test_learning_rate_coercion(tmp_path):
    plan = load_config(_write_config(tmp_path, learning_rate=1))
    assert plan.learning_rate == 1.0 and isinstance(plan.learning_rate, float)


def test_load_config_accepts_depth_list(tmp_path):
    assert load_config(_write_config(tmp_path, conv_layers=[1, 3])) \
        .conv_layers == [1, 3]


@pytest.mark.parametrize("key, value", [
    ("conv_layers", "5"), ("observers", "hotelling"), ("out_dir", 5),
    ("learning_rate", True)])
def test_load_config_rejects_wrong_json_type(tmp_path, key, value):
    path = _write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}: key {key!r} must be ")


def test_generate_dataset_reproducible(tmp_path):
    plan1 = ExperimentPlan("lb", tmp_path / "a", n_train_backgrounds=4,
                           n_val_per_class=2, n_test_per_class=2, seed=5)
    plan2 = ExperimentPlan("lb", tmp_path / "b", n_train_backgrounds=4,
                           n_val_per_class=2, n_test_per_class=2, seed=5)
    m1 = generate_dataset(plan1)
    m2 = generate_dataset(plan2)
    for key in ("sha256_train_backgrounds", "sha256_val", "sha256_test"):
        assert m1[key] == m2[key]
    assert (tmp_path / "a" / "manifest.txt").exists()

    images, labels, meta = read_dataset(tmp_path / "a" / "test.bin")
    assert meta["count"] == 20 and meta["n_locations"] == 9
    assert list(np.bincount(labels, minlength=10)) == [2] * 10

    bgs, bg_labels, _ = read_dataset(tmp_path / "a" / "train_backgrounds.bin")
    assert len(bgs) == 4 and set(bg_labels) == {0}


def test_manifest_does_not_depend_on_the_wall_clock(tmp_path, monkeypatch):
    # one stamp per generate, should it read the clock
    stamps = iter(["2026-01-01T00:00:00", "2026-01-02T00:00:00"])
    monkeypatch.setattr(time, "strftime", lambda *args: next(stamps))
    for name in "ab":
        generate_dataset(ExperimentPlan("bke_system1", tmp_path / name,
                                        n_val_per_class=1, n_test_per_class=1,
                                        seed=3))
    assert ((tmp_path / "a" / "manifest.txt").read_bytes()
            == (tmp_path / "b" / "manifest.txt").read_bytes())


def test_generate_splits_are_disjoint(tmp_path):
    plan = ExperimentPlan("lb", tmp_path / "o", n_val_per_class=3,
                          n_test_per_class=3, seed=6)
    generate_dataset(plan)
    val, _, _ = read_dataset(tmp_path / "o" / "val.bin")
    test, _, _ = read_dataset(tmp_path / "o" / "test.bin")
    flat_val = {v.tobytes() for v in val}
    assert all(t.tobytes() not in flat_val for t in test)


def test_generate_refuses_overwrite(tmp_path):
    plan = ExperimentPlan("bke_system1", tmp_path / "o", n_val_per_class=1,
                          n_test_per_class=1)
    generate_dataset(plan)
    with pytest.raises(FileExistsError):
        generate_dataset(plan)
    generate_dataset(plan, force=True)  # no error


def _failed_generate_keeps_the_old_files(tmp_path, monkeypatch, owner,
                                        attr, fails, error):
    # owner.attr raises error at the call for which fails(number of the
    # call, from 1) is true; with 10 validation and 130 test images, the
    # first call draws or appends the validation block and the next two the
    # first two of the three test blocks.  Returns the set of threads that
    # made the calls, for each of the two failing runs.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "o"
    plan = ExperimentPlan("bke_system1", out, n_val_per_class=1,
                          n_test_per_class=13, seed=1)
    generate_dataset(plan)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"val.bin", "test.bin", "manifest.txt"}
    original = getattr(owner, attr)
    calls, lock = [], threading.Lock()

    def failing(*args):
        with lock:
            calls.append(threading.get_ident())
            number = len(calls)
        if fails(number):
            raise error
        return original(*args)

    monkeypatch.setattr(owner, attr, failing)
    plan.seed = 2
    alive = threading.active_count()
    with pytest.raises(type(error)):
        generate_dataset(plan, force=True)
    # the old files keep their bytes, no temporary is left, and no thread
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert threading.active_count() == alive
    threads = [set(calls)]

    # failing in an empty directory, a run leaves nothing behind
    calls.clear()
    plan.out_dir = tmp_path / "new"
    with pytest.raises(type(error)):
        generate_dataset(plan)
    assert list((tmp_path / "new").iterdir()) == []
    assert threading.active_count() == alive
    return threads + [set(calls)]


def test_interrupted_generate_keeps_the_old_files(tmp_path, monkeypatch):
    # interrupted at the second test block's append
    threads = _failed_generate_keeps_the_old_files(
        tmp_path, monkeypatch, DatasetWriter, "append",
        lambda number: number == 3, KeyboardInterrupt())
    # on the caller's thread
    assert all(run == {threading.get_ident()} for run in threads)


def test_failed_draw_keeps_the_old_files(tmp_path, monkeypatch):
    # the first two test blocks are drawn at once, one on each drawing
    # thread (they meet at a barrier), and the draw that called first, then
    # the one that called second, raises
    main = threading.get_ident()
    pair = threading.Barrier(2, timeout=60)
    for failing in (2, 3):
        def fails(number, failing=failing):
            if number not in (2, 3):
                return False
            pair.wait()
            return number == failing

        threads = _failed_generate_keeps_the_old_files(
            tmp_path / str(failing), monkeypatch, runner,
            "simulate_measurement", fails, RuntimeError("draw failed"))
        # the barrier needs two drawing threads; neither is the caller's
        assert all(main not in run for run in threads)
        monkeypatch.undo()


@pytest.mark.parametrize("failing", ["test.bin", "manifest.txt"])
def test_failed_rename_keeps_the_old_files(tmp_path, monkeypatch, failing):
    # the renames into place fail at the second file, or at the last: every
    # old file keeps its bytes, and no temporary, set-aside or new file is
    # left, in a directory of old files and in an empty one
    out = tmp_path / "o"
    plan = ExperimentPlan("bke_system1", out, n_val_per_class=1,
                          n_test_per_class=2, seed=1)
    generate_dataset(plan)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    replace = os.replace

    def failing_replace(src, dst):
        if Path(src).name == f".{failing}.partial":
            raise OSError(f"cannot rename {src}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    plan.seed = 2
    with pytest.raises(OSError, match="cannot rename"):
        generate_dataset(plan, force=True)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    plan.out_dir = tmp_path / "new"
    with pytest.raises(OSError, match="cannot rename"):
        generate_dataset(plan)
    assert list(plan.out_dir.iterdir()) == []


def test_generate_renames_onto_free_names(tmp_path, monkeypatch):
    # over old files, each is set aside and each new file renamed in, and
    # no rename lands on an existing path
    plan = ExperimentPlan("lb", tmp_path / "o", n_train_backgrounds=3,
                          n_val_per_class=1, n_test_per_class=1, seed=1)
    generate_dataset(plan)
    renames = []
    replace = os.replace

    def checked_replace(src, dst):
        assert not os.path.lexists(dst), dst
        renames.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", checked_replace)
    plan.seed = 2
    generate_dataset(plan, force=True)
    names = ["train_backgrounds.bin", "val.bin", "test.bin", "manifest.txt"]
    assert renames == [f".{n}.old" for n in names] + names
    assert sorted(p.name for p in plan.out_dir.iterdir()) == sorted(names)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("preset, store, n_val, n_test", [
    ("bke_system1", 0, 0, 7), ("bke_system2", 0, 1, 13),
    ("lb", 150, 1, 1)])
def test_manifest_hashes_the_bytes_written(tmp_path, monkeypatch, cpus,
                                           preset, store, n_val, n_test):
    # an empty validation split (its header only), a part of one block, a
    # pair of blocks and a part, and an lb store of a pair and a part
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    out = tmp_path / "o"
    manifest = generate_dataset(ExperimentPlan(
        preset, out, n_train_backgrounds=store, n_val_per_class=n_val,
        n_test_per_class=n_test, seed=8))
    files = sorted(p.stem for p in out.glob("*.bin"))
    assert files == sorted(["val", "test"]
                           + ["train_backgrounds"] * (store > 0))
    for name in files:
        assert manifest[f"sha256_{name}"] == hashlib.sha256(
            (out / f"{name}.bin").read_bytes()).hexdigest(), name
    assert f"sha256_val={manifest['sha256_val']}\n" in \
        (out / "manifest.txt").read_text()
    if n_val == 0:
        assert (out / "val.bin").stat().st_size == HEADER_SIZE


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("preset, n_per_class", [
    ("bke_system1", 0), ("bke_system1", 1), ("bke_system1", 6),
    ("bke_system2", 7), ("bke_system1", 500), ("lb", 1), ("lb", 13),
    ("clb", 1)])
def test_split_equals_per_image_writer(tmp_path, monkeypatch, cpus, preset,
                                       n_per_class):
    # the split against helpers.reference_write_blocks, which draws block b
    # image by image from substream(3, "test-images", b) and then its noise
    # from numpy primitives; with J = 9, 0, 10, 60, 70, 5000, 10, 130 and
    # 10 images: no block, part of one, one whole and a part, many pairs of
    # blocks of runner._NOISE_BLOCK = 64, and a pair and a part
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    task = task_preset(preset)
    labels = np.repeat(np.arange(task.J + 1), n_per_class)
    runner._write_blocks(
        tmp_path / "split.bin", task, labels, 3, "test-images",
        lambda block, rng: simulate_measurement(task, block, rng)[0])
    reference_write_blocks(tmp_path / "ref.bin", task, labels, 3,
                           "test-images")
    assert ((tmp_path / "split.bin").read_bytes()
            == (tmp_path / "ref.bin").read_bytes())


@pytest.mark.parametrize("cpus", [1, 2])
def test_store_draws_each_block_from_its_substream(tmp_path, monkeypatch,
                                                   cpus):
    # 150 backgrounds: a pair of blocks and a part
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    plan = ExperimentPlan("lb", tmp_path / "out", n_train_backgrounds=150,
                          n_val_per_class=0, n_test_per_class=0, seed=5)
    generate_dataset(plan)
    reference_write_blocks(tmp_path / "ref.bin", plan.task,
                           np.zeros(150, dtype=int), 5, "train-backgrounds",
                           noisy=False)
    assert ((tmp_path / "out" / "train_backgrounds.bin").read_bytes()
            == (tmp_path / "ref.bin").read_bytes())


@pytest.mark.parametrize("cpus", [1, 2])
def test_ordered_blocks_writes_in_order_on_one_thread(monkeypatch, cpus):
    # the caller's, and draws on at most one thread per usable CPU, none of
    # them the caller's
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    main, alive = threading.get_ident(), threading.active_count()
    drawers, writes = set(), []

    def draw(b):
        drawers.add(threading.get_ident())
        return -b

    workers.ordered_blocks(draw, 20, lambda b, block: writes.append(
        (b, block, threading.get_ident())))
    assert [(b, block) for b, block, _ in writes] == [
        (b, -b) for b in range(20)]
    assert {t for _, _, t in writes} == {main}
    assert 1 <= len(drawers) <= cpus and main not in drawers
    assert threading.active_count() == alive


@pytest.mark.parametrize("n", [3, 40])
def test_ordered_blocks_raises_a_write_error_in_the_caller(monkeypatch, n):
    # on 1 and 2 usable CPUs; the blocks after it, more than the blocks in
    # flight, are dropped without a hang (the call runs on a daemon thread,
    # so that a hang fails the test)
    alive = threading.active_count()
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        writes, raised = [], []

        def write(b, block):
            writes.append(b)
            if b == 2:
                raise OSError("disk full")

        def call():
            try:
                workers.ordered_blocks(lambda b: b, n, write)
            except OSError as exc:
                raised.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
        assert raised == ["disk full"]
        assert writes == [0, 1, 2]
        assert threading.active_count() == alive


@pytest.mark.parametrize("first", [True, False])
def test_ordered_blocks_raises_a_draw_error_in_the_caller(monkeypatch,
                                                          first):
    # the draw of block 0 (first), or of block 1, raises, on 1 and 2 usable
    # CPUs; at two, blocks 0 and 1 are drawn at once, one on each drawing
    # thread (they meet at a barrier).  The caller raises it on reaching
    # that block, the blocks before it written and none after it
    alive = threading.active_count()
    failing = 0 if first else 1
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        pair = threading.Barrier(cpus, timeout=60)
        writes = []

        def draw(b, pair=pair):
            if b < 2:
                pair.wait()
                if b == failing:
                    raise ArithmeticError(f"block {b}")
            return b

        with pytest.raises(ArithmeticError, match=f"^block {failing}$"):
            workers.ordered_blocks(draw, 10,
                                   lambda b, block: writes.append(b))
        assert writes == list(range(failing))
        assert threading.active_count() == alive


@pytest.mark.parametrize("cpus", [1, 2])
def test_ordered_blocks_drops_the_pending_work_on_an_interrupt(monkeypatch,
                                                               cpus):
    # a real SIGINT, sent to the caller (the main thread) by the draw of
    # block 1, interrupts the caller while it writes block 0 or waits for
    # block 1; each draw takes 50 ms, so the blocks not yet started when
    # the caller is interrupted are dropped undrawn
    assert threading.current_thread() is threading.main_thread()
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    main, alive = threading.get_ident(), threading.active_count()
    drawn, writes = [], []

    def draw(b):
        drawn.append(b)
        time.sleep(0.05)
        if b == 1:
            signal.pthread_kill(main, signal.SIGINT)
        return b

    with pytest.raises(KeyboardInterrupt):
        workers.ordered_blocks(draw, 40, lambda b, block: writes.append(b))
    assert writes in ([], [0])
    assert set(drawn) <= {0, 1, 2, 3}
    assert threading.active_count() == alive


def test_ordered_blocks_holds_at_most_its_blocks_in_flight(monkeypatch):
    # instant draws and slow writes, on 1 and 2 usable CPUs: the drawers
    # run ahead until the bound
    lock, pending = threading.Lock(), set()

    def draw(b):
        with lock:
            pending.add(b)
            most.append(len(pending))
        return b

    def write(b, block):
        time.sleep(0.01)
        with lock:
            pending.remove(b)

    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        most = []
        workers.ordered_blocks(draw, 30, write)
        assert max(most) == workers._IN_FLIGHT and not pending


def test_ordered_blocks_under_frequent_thread_switches(monkeypatch):
    # a 1 us switch interval interleaves the caller and the two drawing
    # threads often; a race would draw a block twice, drop, repeat or
    # reorder a write, overrun the bound, or hang (the call runs on a daemon
    # thread, so that a hang fails the test)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    lock, pending, most, draws, writes = threading.Lock(), set(), [0], [], []

    def draw(b):
        with lock:
            draws.append(b)
            pending.add(b)
            most.append(len(pending))
        return -b

    def write(b, block):
        writes.append((b, block))
        with lock:
            pending.remove(b)

    caller = threading.Thread(target=workers.ordered_blocks,
                              args=(draw, 5000, write), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(draws) == list(range(5000))
    assert writes == [(b, -b) for b in range(5000)]
    assert max(most) <= workers._IN_FLIGHT and not pending


@pytest.mark.parametrize("cpus", [1, 2])
def test_split_drawn_out_of_order_equals_the_reference(tmp_path, monkeypatch,
                                                      cpus):
    # even blocks take 20 ms longer to draw, so later blocks are often drawn
    # first; the file, its digest and the blocks in flight stay as they are
    # when blocks are drawn in order
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    ordered_blocks = workers.ordered_blocks
    lock, pending, most = threading.Lock(), set(), [0]

    def spied(draw, n, write):
        def slow_draw(b):
            if b % 2 == 0:
                time.sleep(0.02)
            block = draw(b)
            with lock:
                pending.add(b)
                most.append(len(pending))
            return block

        def counted_write(b, block):
            write(b, block)
            with lock:
                pending.remove(b)

        ordered_blocks(slow_draw, n, counted_write)

    monkeypatch.setattr(workers, "ordered_blocks", spied)
    out = tmp_path / "o"
    manifest = generate_dataset(ExperimentPlan(
        "bke_system1", out, n_val_per_class=0, n_test_per_class=70, seed=9))
    reference_write_blocks(tmp_path / "ref.bin", task_preset("bke_system1"),
                           np.repeat(np.arange(10), 70), 9, "test-images")
    data = (out / "test.bin").read_bytes()
    assert data == (tmp_path / "ref.bin").read_bytes()
    assert manifest["sha256_test"] == hashlib.sha256(data).hexdigest()
    assert max(most) <= workers._IN_FLIGHT and not pending


@pytest.mark.parametrize("n_val, n_test", [(0, 1), (1, 5)])
def test_one_block_file_is_drawn_on_one_thread(tmp_path, monkeypatch, n_val,
                                               n_test):
    # an empty split, a 10-image one, and cnn_train's 10-image and 50-image
    # splits: each file of one block starts one drawing thread, which draws
    # it, and the empty split starts none
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started, drawers = [], []
    start, draw = threading.Thread.start, runner.simulate_measurement

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def recorded_draw(*args):
        drawers.append(threading.get_ident())
        return draw(*args)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(runner, "simulate_measurement", recorded_draw)
    generate_dataset(ExperimentPlan("bke_system1", tmp_path / "o",
                                    n_val_per_class=n_val,
                                    n_test_per_class=n_test, seed=4))
    assert drawers == [thread.ident for thread in started]
    assert len(started) == (n_val > 0) + 1


def test_two_threads_runs_the_halves_on_two_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    main, alive = threading.get_ident(), threading.active_count()
    calls = []

    def record(lo, hi):
        calls.append((lo, hi, threading.get_ident() == main))

    workers.two_threads(record, 50, 16)
    assert sorted(calls) == [(0, 32, True), (32, 50, False)]
    for n, cpus in ((16, 2), (0, 2), (50, 1)):  # one half, or one CPU
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        calls.clear()
        workers.two_threads(record, n, 16)
        assert calls == [(0, n, True)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def second_half_fails(lo, hi):
        if lo:
            raise ArithmeticError(f"rows {lo}..{hi}")

    with pytest.raises(ArithmeticError, match="^rows 32..50$"):
        workers.two_threads(second_half_fails, 50, 16)
    assert threading.active_count() == alive


def test_two_threads_raises_the_first_halfs_error_after_both_end(
        monkeypatch):
    # the first half fails at once, while the second takes 0.2 s; then both
    # fail, the second half first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    alive = threading.active_count()
    finished = []

    def first_half_fails(lo, hi):
        if not lo:
            raise ArithmeticError(f"rows {lo}..{hi}")
        time.sleep(0.2)
        finished.append(lo)

    with pytest.raises(ArithmeticError, match="^rows 0..32$"):
        workers.two_threads(first_half_fails, 50, 16)
    assert finished == [32]
    assert threading.active_count() == alive

    def both_fail(lo, hi):
        if not lo:
            time.sleep(0.2)
        raise ArithmeticError(f"rows {lo}..{hi}")

    with pytest.raises(ArithmeticError, match="^rows 0..32$"):
        workers.two_threads(both_fail, 50, 16)
    assert threading.active_count() == alive


def test_no_helper_thread_is_alive_when_a_pool_is_made(tmp_path,
                                                       monkeypatch):
    # a generate, an evaluate with two observers and a two-step train run
    # ordered_blocks, two_threads and two pools; no thread of the first two
    # is alive when a pool is made, and so when it forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    alive, threads = threading.active_count(), []
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(*args, **kwargs):
        threads.append(threading.active_count())
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    plan = ExperimentPlan("bke_system1", tmp_path,
                          observers=["analytic_io", "hotelling"],
                          n_val_per_class=1, n_test_per_class=20, seed=3,
                          batch_per_class=1, total_minibatches=2,
                          val_period=1, conv_layers=1, bootstrap_samples=10)
    generate_dataset(plan)
    run_observers(plan)
    run_training(plan)
    assert threads == [alive, alive]  # the report pool, the training pool


def test_run_observers_analytic(tmp_path):
    plan = ExperimentPlan("bke_system1", tmp_path / "o",
                          observers=["analytic_io"], n_val_per_class=1,
                          n_test_per_class=30, seed=7, bootstrap_samples=50)
    generate_dataset(plan)
    rows = run_observers(plan)
    assert len(rows) == 1
    row = rows[0]
    assert row["observer"] == "analytic_io"
    assert row["n_records"] == 300
    assert 0.0 <= row["alroc"] <= row["auc"] <= 1.0
    assert row["alroc_se"] > 0
    out = tmp_path / "o"
    assert (out / "records_analytic_io.csv").exists()
    assert (out / "lroc_analytic_io.csv").exists()
    assert (out / "roc_analytic_io.csv").exists()
    assert (out / "report.csv").exists()
    records = records_from_csv(out / "records_analytic_io.csv")
    assert len(records) == 300


def _counted_pools(monkeypatch):
    """The worker counts of the process pools made from here on."""
    pools = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(workers, *args, **kwargs):
        pools.append(workers)
        return executor(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return pools


def test_reports_on_the_pool_equal_reports_in_process(tmp_path, monkeypatch):
    pools = _counted_pools(monkeypatch)
    found = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        plan = ExperimentPlan("bke_system2", tmp_path / str(cpus),
                              observers=["analytic_io", "hotelling"],
                              n_val_per_class=0, n_test_per_class=20, seed=4,
                              bootstrap_samples=50)
        generate_dataset(plan)
        rows = run_observers(plan)
        assert [r["observer"] for r in rows] == plan.observers
        found.append({p.name: p.read_bytes()
                      for p in sorted(plan.out_dir.glob("*.csv"))})
    assert pools == [2]  # one usable CPU writes the reports in process
    assert len(found[0]) == 7 and found[0] == found[1]


def test_failing_report_task_raises_and_writes_no_report(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    plan = ExperimentPlan("bke_system1", tmp_path / "o",
                          observers=["analytic_io", "hotelling"],
                          bootstrap_samples=20)
    plan.out_dir.mkdir()
    labels = np.arange(18) % 9 + 1  # no signal-absent image
    images = np.random.default_rng(0).normal(size=(18, 64, 64))
    write_dataset(plan.out_dir / "test.bin", images.astype(np.float32),
                  labels)
    pools = _counted_pools(monkeypatch)
    with pytest.raises(ValueError, match="signal-absent"):
        run_observers(plan)
    assert pools == [2]
    assert not (plan.out_dir / "report.csv").exists()


def test_run_observers_hotelling_and_mcmc_on_lb(tmp_path):
    plan = ExperimentPlan("lb", tmp_path / "o",
                          observers=["hotelling", "mcmc_io"],
                          n_val_per_class=1, n_test_per_class=2, seed=8,
                          cov_samples=60, mcmc_iterations=400,
                          mcmc_burn_in=40, bootstrap_samples=20)
    generate_dataset(plan)
    rows = run_observers(plan)
    names = [r["observer"] for r in rows]
    assert names == ["hotelling", "mcmc_io"]
    for row in rows:
        assert row["n_records"] == 20
        assert np.isfinite(row["alroc"])


def _observe_in_chunks(monkeypatch, plan):
    """run_observers on the plan's test split: the (start, stop) of each
    read of the split, the build_hotelling calls, the indices i of the
    "mcmc-chain" substreams drawn, and every CSV's bytes."""
    reads, chains, builds = [], [], []
    read, draw, build = (runner.read_dataset, runner.substream,
                         runner.observers.build_hotelling)

    def counted_read(path, start=0, stop=None, out=None):
        reads.append((start, stop))
        return read(path, start, stop, out=out)

    def counted_draw(seed, name, i):
        if name == "mcmc-chain":
            chains.append(i)
        return draw(seed, name, i)

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "read_dataset", counted_read)
        patch.setattr(runner, "substream", counted_draw)
        patch.setattr(runner.observers, "build_hotelling", counted_build)
        run_observers(plan)
    return reads, len(builds), chains, {
        p.name: p.read_bytes() for p in sorted(plan.out_dir.glob("*.csv"))}


# (observer, preset) of each observer's scorer in the cut test
_CUT = [("analytic_io", "bke_system1"), ("hotelling", "bke_system1"),
        ("hotelling", "lb"), ("mcmc_io", "lb"), ("cnn_io", "bke_system1")]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name, preset", _CUT)
def test_records_do_not_depend_on_the_cut(tmp_path, monkeypatch, name,
                                          preset, cpus):
    # an observer's record of an image depends on that image alone: a split
    # scored in random pieces, none a multiple of the 4-image micro-batch
    # (so none of the 64-row Hotelling block either), gives the records of
    # the split scored in one piece, bit for bit
    assert observers.HO_BLOCK_ROWS == 64
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    plan = ExperimentPlan(preset, tmp_path, observers=[name], seed=36,
                          cov_samples=30, mcmc_iterations=40,
                          mcmc_burn_in=10)
    task = plan.task
    arch = neuralnet.Architecture(1, task.grid[::-1], task.J + 1, filters=2)
    neuralnet.save_checkpoint(tmp_path / "checkpoint.bin",
                              neuralnet.init_state(arch, seed=62))
    rng = np.random.default_rng([36, cpus, _CUT.index((name, preset))])
    longest, total = (12, 30) if name == "mcmc_io" else (300, 700)
    sizes = []
    while sum(sizes) < total:
        size = int(rng.integers(1, longest))
        if size % 4:
            sizes.append(size)
    edges = np.cumsum([0, *sizes])
    labels = rng.integers(0, task.J + 1, size=edges[-1])
    images = simulate_measurement(task, labels, rng)[0]
    score = runner.OBSERVERS[name](task, plan)
    cut = score(((images[lo:hi], labels[lo:hi])
                 for lo, hi in zip(edges, edges[1:])), edges[-1])
    whole = runner.OBSERVERS[name](task, plan)([(images, labels)], edges[-1])
    for field in dataclasses.fields(Records):
        assert np.array_equal(getattr(cut, field.name),
                              getattr(whole, field.name)), field.name


# name -> (images per chunk, or None for the 256 of _CHUNK_PIXELS at 64x64;
# test images per class; the chunk edges): a split below one chunk (and one
# Hotelling block) is one piece, the last chunk takes what is left, 2
# images as a chunk of its own, and chunks can be single images
_CHUNKS = {"below-block": (16, 1, [0, 10]),
           "exact": (20, 4, [0, 20, 40]),
           "own-chunk": (7, 3, [0, 7, 14, 21, 28, 30]),
           "one-image": (1, 1, list(range(11))),
           "1024": (1024, 130, [0, 1024, 1300]),
           "default": (None, 130, [*range(0, 1300, 256), 1300])}


@pytest.mark.parametrize("preset, observers, chunks", [
    *[pytest.param("bke_system1", ["analytic_io", "hotelling", "cnn_io"], c,
                   id=f"bke_system1-{c}") for c in _CHUNKS],
    *[pytest.param("lb", ["hotelling", "mcmc_io"], c, id=f"lb-{c}")
      for c in list(_CHUNKS)[:-2]]])
def test_chunked_observers_equal_one_piece(tmp_path, monkeypatch, preset,
                                           observers, chunks):
    # the files equal those of the split read in one piece, each observer's
    # pass reads the split once, the Hotelling templates are built once, and
    # the chains draw from the substreams of the split's indices
    chunk, n_per_class, edges = _CHUNKS[chunks]
    if chunk is not None:
        monkeypatch.setattr(runner, "_CHUNK_PIXELS", chunk * 64 * 64)
    plan = ExperimentPlan(preset, tmp_path / "o", observers=observers,
                          n_val_per_class=0, n_test_per_class=n_per_class,
                          seed=31, cov_samples=30, mcmc_iterations=60,
                          mcmc_burn_in=10, bootstrap_samples=20)
    generate_dataset(plan)
    task = plan.task
    arch = neuralnet.Architecture(1, task.grid[::-1], task.J + 1, filters=2)
    neuralnet.save_checkpoint(plan.out_dir / "checkpoint.bin",
                              neuralnet.init_state(arch, seed=61))
    n = edges[-1]
    reads, builds, chains, chunked = _observe_in_chunks(monkeypatch, plan)
    assert reads == [(0, 0), *list(zip(edges, edges[1:])) * len(observers)]
    assert builds == 1
    assert chains == (list(range(n)) if "mcmc_io" in observers else [])
    monkeypatch.setattr(runner, "_chunk_edges", lambda count, shape: [0, n])
    reads, builds, chains, whole = _observe_in_chunks(monkeypatch, plan)
    assert reads == [(0, 0), *[(0, n)] * len(observers)]
    assert len(chunked) == 3 * len(observers) + 1
    assert chunked == whole


@pytest.mark.parametrize("preset, names, pools", [
    pytest.param("lb", ["mcmc_io"], 1, id="lb-mcmc_io"),
    pytest.param("bke_system1", ["cnn_io"], 1, id="bke_system1-cnn_io"),
    pytest.param("lb", ["mcmc_io", "cnn_io"], 3, id="lb-mcmc_io-cnn_io")])
def test_a_pass_forks_one_pool_whatever_its_chunks(tmp_path, monkeypatch,
                                                   preset, names, pools):
    # on two usable CPUs, 30 images read 9 at a time are four chunks, each
    # more than two 4-image micro-batches: the chains of the MCMC pass and
    # the network's micro-batches of the CNN pass each run on one pool, a
    # second observer adds one pool for the reports, and no pool is made
    # while another is open
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(runner, "_CHUNK_PIXELS", 9 * 64 * 64)
    plan = ExperimentPlan(preset, tmp_path / "o", observers=names,
                          n_val_per_class=0, n_test_per_class=3, seed=42,
                          mcmc_iterations=60, mcmc_burn_in=10,
                          bootstrap_samples=20)
    generate_dataset(plan)
    task = plan.task
    assert runner._chunk_edges(30, task.grid[::-1]) == [0, 9, 18, 27, 30]
    arch = neuralnet.Architecture(1, task.grid[::-1], task.J + 1, filters=2)
    neuralnet.save_checkpoint(plan.out_dir / "checkpoint.bin",
                              neuralnet.init_state(arch, seed=64))
    alive, opened = [], []  # the pools not yet shut down; that count per pool
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(workers, *args, **kwargs):
        pool = executor(workers, *args, **kwargs)
        opened.append(len(alive))
        alive.append(pool)
        shutdown = pool.shutdown

        def counted_shutdown(*args, **kwargs):
            alive.remove(pool)
            return shutdown(*args, **kwargs)
        pool.shutdown = counted_shutdown
        return pool

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    run_observers(plan)
    assert opened == [0] * pools and alive == []


def test_observers_hold_one_chunk_of_the_split(tmp_path, monkeypatch):
    # at one usable CPU the reports run in process too; the traced peak of
    # run_observers on a split of twelve chunks (eleven of 256 images and
    # one of 184) is below the split's 49 MB: at most the one chunk buffer,
    # the Hotelling workspace (64 rows in float64) and 4 MB for the rest
    # (the read buffer, the per-location statistics, the records and their
    # CSVs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    plan = ExperimentPlan("bke_system1", tmp_path / "o",
                          observers=["analytic_io", "hotelling"],
                          n_val_per_class=0, n_test_per_class=300, seed=32,
                          bootstrap_samples=20)
    generate_dataset(plan)
    pixels = 64 * 64
    split = 3000 * (4 * pixels + 1)
    bound = 256 * (4 * pixels + 1) + 64 * pixels * 8 + 4 * 2 ** 20
    peak = traced_peak(run_observers, plan)
    assert peak < bound < split


def test_bad_label_in_a_later_chunk_writes_no_file(tmp_path, monkeypatch):
    # with chunks of 16 images they are records 0..16 and 16..30; record
    # 21's label fails the second chunk's read, after the first chunk scored
    monkeypatch.setattr(runner, "_CHUNK_PIXELS", 16 * 64 * 64)
    plan = ExperimentPlan("bke_system1", tmp_path / "o",
                          observers=["analytic_io", "hotelling"],
                          n_val_per_class=0, n_test_per_class=3, seed=33,
                          bootstrap_samples=20)
    generate_dataset(plan)
    path = plan.out_dir / "test.bin"
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 21 * (1 + 4 * 64 * 64)] = 10
    path.write_bytes(raw)
    calls = _count_scoring_calls(monkeypatch)
    with pytest.raises(ValueError) as caught:
        run_observers(plan)
    assert str(caught.value) == f"{path}: record 21 has label 10, above J = 9"
    assert calls["laplacian_io_log_lrs_batch"] == 1
    assert not list(plan.out_dir.glob("*.csv"))


def test_bad_label_in_a_later_chunk_fails_in_the_reused_buffer(
        tmp_path, monkeypatch):
    # at the default chunks, 600 images are read as 256, 256 and 88 records
    # into one buffer of 256 images; record 530's label fails the third
    # read, after two chunks scored, and no file is written
    plan = ExperimentPlan("bke_system1", tmp_path / "o",
                          observers=["analytic_io", "hotelling"],
                          n_val_per_class=0, n_test_per_class=60, seed=39,
                          bootstrap_samples=20)
    generate_dataset(plan)
    path = plan.out_dir / "test.bin"
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 530 * (1 + 4 * 64 * 64)] = 10
    path.write_bytes(raw)
    reads = []
    read = runner.read_dataset

    def kept_read(path, start=0, stop=None, out=None):
        reads.append((start, stop, out))
        return read(path, start, stop, out=out)

    monkeypatch.setattr(runner, "read_dataset", kept_read)
    calls = _count_scoring_calls(monkeypatch)
    with pytest.raises(ValueError) as caught:
        run_observers(plan)
    assert str(caught.value) == f"{path}: record 530 has label 10, above J = 9"
    assert [r[:2] for r in reads] == [(0, 0), (0, 256), (256, 512),
                                      (512, 600)]
    images, labels = reads[1][2]
    assert images.shape == (256, 64, 64) and labels.shape == (256,)
    assert all(r[2][0] is images and r[2][1] is labels for r in reads[1:])
    assert calls["laplacian_io_log_lrs_batch"] == 2
    assert not list(plan.out_dir.glob("*.csv"))


@pytest.mark.parametrize("preset, names", [
    ("bke_system1", ["analytic_io", "hotelling", "cnn_io"]),
    ("lb", ["hotelling", "mcmc_io"])])
def test_scorers_see_one_buffer_and_keep_no_view_of_it(tmp_path, monkeypatch,
                                                       preset, names):
    # with chunks of 7 images, each pass reads 20 images in three reads
    # into one buffer: every chunk a pass gets is a view of the first
    # chunk's memory, and a chunk overwritten as soon as the pass draws the
    # next one (and the last once the pass is done) leaves the files as
    # they are without it
    monkeypatch.setattr(runner, "_CHUNK_PIXELS", 7 * 64 * 64)
    plan = ExperimentPlan(preset, tmp_path / "o", observers=names,
                          n_val_per_class=0, n_test_per_class=2, seed=39,
                          cov_samples=30, mcmc_iterations=60,
                          mcmc_burn_in=10, bootstrap_samples=20)
    generate_dataset(plan)
    task = plan.task
    arch = neuralnet.Architecture(1, task.grid[::-1], task.J + 1, filters=2)
    neuralnet.save_checkpoint(plan.out_dir / "checkpoint.bin",
                              neuralnet.init_state(arch, seed=63))
    clean = _observe_in_chunks(monkeypatch, plan)[3]
    chunks, passes = [], []  # every chunk drawn; every pass's records

    def kept(set_up):
        def kept_set_up(task, plan):
            score = set_up(task, plan)

            def overwritten(pieces):
                for images, labels in pieces:
                    chunks.append((images, labels))
                    yield images, labels
                    images[...], labels[...] = np.nan, 255

            def kept_score(pieces, n):
                passes.append(score(overwritten(pieces), n))
                return passes[-1]
            return kept_score
        return kept_set_up

    for name in names:
        monkeypatch.setitem(runner.OBSERVERS, name,
                            kept(runner.OBSERVERS[name]))
    assert _observe_in_chunks(monkeypatch, plan)[3] == clean
    assert [len(c[0]) for c in chunks] == [7, 7, 6] * len(names)
    first_images, first_labels = chunks[0]
    for images, labels in chunks:
        assert np.shares_memory(images, first_images)
        assert np.shares_memory(labels, first_labels)
    for records in passes:
        for field in dataclasses.fields(Records):
            value = getattr(records, field.name)
            assert not np.shares_memory(value, first_images), field.name
            assert not np.shares_memory(value, first_labels), field.name


def test_hotelling_covariance_stack_equals_list_and_stack(tmp_path,
                                                          monkeypatch):
    # the samples are drawn into one preallocated stack, in the order and
    # with the bytes of stacking a list of them
    plan = ExperimentPlan("lb", tmp_path / "o", observers=["hotelling"],
                          seed=9, cov_samples=40)
    task = plan.task
    built = []
    build = runner.observers.build_hotelling

    def keep(backgrounds, signals, noise_var):
        built.append((backgrounds, build(backgrounds, signals, noise_var)))
        return built[-1][1]

    monkeypatch.setattr(runner.observers, "build_hotelling", keep)
    labels = np.arange(10)
    images = np.zeros((10, *task.grid[::-1]), dtype=np.float32)
    runner.OBSERVERS["hotelling"](task, plan)([(images, labels)], 10)
    rng = runner.stream(plan.seed, "hotelling-covariance")
    listed = np.stack([task.sample_background(rng) for _ in range(40)])
    backgrounds, state = built[0]
    assert backgrounds.dtype == listed.dtype == np.float32
    assert np.array_equal(backgrounds, listed)
    want = build(listed, task.signal_images, task.noise.std ** 2)
    assert np.array_equal(state.templates, want.templates)
    assert np.array_equal(state.mean_background, want.mean_background)


# An lb plan for short MCMC chains, one test image per class
_CHAINS = {"preset": "lb", "observers": ["mcmc_io"], "n_val_per_class": 0,
           "n_test_per_class": 1, "seed": 12, "mcmc_iterations": 300,
           "mcmc_burn_in": 30, "bootstrap_samples": 20}


def _lb_chains(tmp_path, **overrides):
    """A generated test split of the _CHAINS plan, with its plan."""
    plan = ExperimentPlan(out_dir=tmp_path / "o", **{**_CHAINS, **overrides})
    generate_dataset(plan)
    images, labels, _ = read_dataset(plan.out_dir / "test.bin")
    return plan, images, labels


@pytest.mark.parametrize("cpus", [None, 1])
def test_mcmc_pool_equals_in_process_chains(tmp_path, monkeypatch, cpus):
    plan, images, labels = _lb_chains(tmp_path)
    task = plan.task
    cfg = McmcConfig(plan.mcmc_iterations, plan.mcmc_burn_in)
    expected = Records.concatenate([
        mcmc_io_record(images[i], task, cfg,
                       substream(plan.seed, "mcmc-chain", i),
                       true_label=int(labels[i]))
        for i in range(len(images))])
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
    pools = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counted(workers, *args, **kwargs):
        pools.append(workers)
        return executor(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    records = runner.OBSERVERS["mcmc_io"](task, plan)([(images, labels)],
                                                     len(images))
    if cpus == 1:  # one usable CPU runs the chains in process
        assert pools == []
    else:
        assert pools == [min(len(images), len(os.sched_getaffinity(0)))]
        assert len(images) > pools[0]  # some workers run several chains
    for name, column in vars(expected).items():
        assert np.array_equal(getattr(records, name), column), name


def _blas_threads():
    """The thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split(None, 5)[5].strip() for line in fh
                if "openblas" in line}
    for lib in map(ctypes.CDLL, libs):
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def test_mcmc_workers_run_one_blas_thread(tmp_path, monkeypatch):
    if _blas_threads() is None:
        pytest.skip("numpy did not load an OpenBLAS with a thread getter")
    plan, images, labels = _lb_chains(tmp_path)

    def report_threads(*args, **kwargs):
        raise RuntimeError(f"BLAS threads: {_blas_threads()}")

    monkeypatch.setattr(runner, "mcmc_io_record", report_threads)
    with pytest.raises(RuntimeError, match="^BLAS threads: 1$"):
        runner.OBSERVERS["mcmc_io"](plan.task, plan)([(images, labels)],
                                                     len(images))


def test_mcmc_records_do_not_depend_on_blas_threads(tmp_path):
    plan, _, _ = _lb_chains(tmp_path)
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({"out_dir": str(plan.out_dir), **_CHAINS}))
    src = str(Path(runner.__file__).resolve().parents[1])
    found = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "scanobs.cli", "evaluate",
                        "--config", str(config)],
                       env=env, check=True, capture_output=True, timeout=300)
        found.append((plan.out_dir / "records_mcmc_io.csv").read_bytes())
    assert found[0] == found[1]


def test_scanobs_imports_no_scipy():
    # numpy is the one run-time dependency: scipy serves only the tests
    src = str(Path(runner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = dedent("""
        import sys
        import scanobs.cli, scanobs.runner
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
        """)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == "[]\n"


def test_every_openblas_runs_one_thread_from_import():
    # a process started at two BLAS threads: importing scanobs sets every
    # OpenBLAS it loaded to one, and no later pool, Hotelling build or
    # many-row product starts a BLAS thread again
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs, so that task_map forks")
    src = str(Path(runner.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    code = dedent("""
        import ctypes, json, os
        import numpy as np
        import scanobs.runner
        from scanobs import observers, workers
        from scanobs.tasks import task_preset

        with open("/proc/self/maps") as fh:
            libs = sorted({line.split(None, 5)[5].strip() for line in fh
                           if "openblas" in line})
        counts = [getattr(blas, name)() for blas in map(ctypes.CDLL, libs)
                  for name in ("scipy_openblas_get_num_threads64_",
                               "openblas_get_num_threads",
                               "scipy_openblas_get_num_threads")
                  if hasattr(blas, name)]
        with workers.task_map(2) as tasks:
            assert list(tasks(abs, [-1, -2])) == [1, 2]
        task = task_preset("lb")
        rng = np.random.default_rng(24)
        observers.build_hotelling(
            np.stack([task.sample_background(rng) for _ in range(20)]),
            task.signal_images, task.noise.std ** 2)
        np.ones((256, 4096)) @ np.ones((4096, 9))
        print(json.dumps([counts, len(os.listdir("/proc/self/task"))]))
        """)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    counts, threads = json.loads(out)
    if not counts:
        pytest.skip("no OpenBLAS with a thread getter was loaded")
    assert counts == [1] * len(counts)
    assert threads == 1


def test_failing_chain_cancels_the_chains_not_started(tmp_path, monkeypatch):
    plan, images, labels = _lb_chains(tmp_path, n_test_per_class=3)
    first = substream(plan.seed, "mcmc-chain", 0).bit_generator.state
    started = tmp_path / "started"
    started.mkdir()
    chain = runner.mcmc_io_record

    def first_chain_fails(g, task, cfg, rng, true_label):
        if rng.bit_generator.state == first:
            raise ValueError("the first chain failed")
        (started / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
        time.sleep(0.2)
        return chain(g, task, cfg, rng, true_label=true_label)

    monkeypatch.setattr(runner, "mcmc_io_record", first_chain_fails)
    with pytest.raises(ValueError, match="the first chain failed"):
        runner.OBSERVERS["mcmc_io"](plan.task, plan)([(images, labels)],
                                                     len(images))
    assert len(list(started.iterdir())) < len(images) // 2


def test_dead_mcmc_worker_fails_fast(tmp_path, monkeypatch):
    plan, _, _ = _lb_chains(tmp_path)
    chain = runner.mcmc_io_record
    parent = os.getpid()

    def dies_on_label_3(g, task, cfg, rng, true_label):
        if true_label == 3 and os.getpid() != parent:
            os._exit(1)
        return chain(g, task, cfg, rng, true_label=true_label)

    def hung(signum, frame):
        raise TimeoutError("the pool hung after a worker died")

    monkeypatch.setattr(runner, "mcmc_io_record", dies_on_label_3)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        with pytest.raises(BrokenProcessPool):
            run_observers(plan)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_run_observers_errors(tmp_path):
    plan = ExperimentPlan("bke_system1", tmp_path / "o", observers=[])
    with pytest.raises(ConfigError):
        run_observers(plan)
    plan.observers = ["analytic_io"]
    with pytest.raises(FileNotFoundError):
        run_observers(plan)  # no test.bin yet

    with pytest.raises(ConfigError, match="^observers: analytic_io "):
        ExperimentPlan("lb", tmp_path / "lb", observers=["analytic_io"],
                       n_val_per_class=1, n_test_per_class=1)
    lb = ExperimentPlan("lb", tmp_path / "lb", observers=["hotelling"],
                        n_val_per_class=1, n_test_per_class=1)
    generate_dataset(lb)
    lb.observers = ["analytic_io"]  # a plan edited after construction
    with pytest.raises(ValueError):
        run_observers(lb)  # analytic IO needs the BKE task

    cnn = ExperimentPlan("bke_system1", tmp_path / "cnn",
                         observers=["cnn_io"], n_val_per_class=1,
                         n_test_per_class=1)
    generate_dataset(cnn)
    with pytest.raises(FileNotFoundError):
        run_observers(cnn)  # no checkpoint.bin


def test_train_then_evaluate_cnn(tmp_path):
    plan = ExperimentPlan("bke_system1", tmp_path / "o",
                          observers=["cnn_io"], n_val_per_class=2,
                          n_test_per_class=3, seed=9, conv_layers=1,
                          batch_per_class=2, total_minibatches=4,
                          val_period=2, learning_rate=1e-4,
                          bootstrap_samples=20)
    generate_dataset(plan)
    result = run_training(plan)
    assert (tmp_path / "o" / "checkpoint.bin").exists()
    assert (tmp_path / "o" / "training_log_depth1.csv").exists()
    assert result.final_state.step == 4
    rows = run_observers(plan)
    assert rows[0]["observer"] == "cnn_io"
    assert rows[0]["n_records"] == 30


def test_training_missing_store_for_lb(tmp_path):
    plan = ExperimentPlan("lb", tmp_path / "o", n_train_backgrounds=2,
                          conv_layers=1, total_minibatches=1)
    with pytest.raises(FileNotFoundError):
        run_training(plan)


def test_training_without_stored_backgrounds_for_lb(tmp_path, capsys):
    cfg = _write_config(tmp_path, preset="lb", n_val_per_class=1,
                        n_test_per_class=1, conv_layers=1,
                        total_minibatches=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_train_backgrounds: ")
    assert err.count("\n") == 1


class _Stop(Exception):
    pass


def test_bke_training_ignores_a_stale_store(tmp_path, monkeypatch):
    # an lb plan stores backgrounds; a BKE plan regenerated over it stores
    # none, so its training must not read the lumpy store left behind
    out = tmp_path / "o"
    generate_dataset(ExperimentPlan("lb", out, n_train_backgrounds=2,
                                    n_val_per_class=1, n_test_per_class=1))
    bke = ExperimentPlan("bke_system1", out, n_val_per_class=1,
                         n_test_per_class=1, conv_layers=1,
                         total_minibatches=1)
    generate_dataset(bke, force=True)
    assert (out / "train_backgrounds.bin").exists()
    seen = []

    def train(arch, task, backgrounds, *rest):
        seen.append(backgrounds)
        raise _Stop

    monkeypatch.setattr(neuralnet, "train", train)
    with pytest.raises(_Stop):
        run_training(bke)
    assert len(seen) == 1 and seen[0] is None


def test_depth_selection_writes_history(tmp_path):
    plan = ExperimentPlan("bke_system1", tmp_path / "o", n_val_per_class=2,
                          n_test_per_class=1, seed=10, conv_layers=[1, 3],
                          batch_per_class=2, total_minibatches=2,
                          val_period=2, learning_rate=1e-3)
    generate_dataset(plan)
    run_training(plan)
    lines = (tmp_path / "o" / "depth_selection.csv").read_text().splitlines()
    assert lines[0] == "conv_layers,val_loss"
    assert len(lines) >= 2
    assert (tmp_path / "o" / "checkpoint.bin").exists()


def test_ranking_report(tmp_path):
    from scanobs.evaluation import report_to_csv

    report_to_csv(tmp_path / "r1.csv", [{
        "observer": "analytic_io", "task": "bke_laplacian", "system": "s1",
        "alroc": 0.8, "alroc_se": 0.01, "auc": 0.85, "auc_se": 0.01,
        "n_records": 10}])
    report_to_csv(tmp_path / "r2.csv", [{
        "observer": "analytic_io", "task": "bke_laplacian", "system": "s2",
        "alroc": 0.6, "alroc_se": 0.01, "auc": 0.95, "auc_se": 0.01,
        "n_records": 10}])
    summary = ranking_report([tmp_path / "r1.csv", tmp_path / "r2.csv"])
    assert summary["alroc_ranking"] == {"analytic_io": ["s1", "s2"]}
    assert summary["auc_ranking"] == {"analytic_io": ["s2", "s1"]}
    assert summary["rankings_disagree"] == ["analytic_io"]


def test_ranking_report_ranks_each_observer_separately(tmp_path):
    from scanobs.evaluation import report_to_csv

    def row(observer, system, alroc, auc):
        return {"observer": observer, "task": "bke_laplacian",
                "system": system, "alroc": alroc, "alroc_se": 0.01,
                "auc": auc, "auc_se": 0.01, "n_records": 10}

    report_to_csv(tmp_path / "r1.csv", [row("analytic_io", "s1", 0.8, 0.85),
                                        row("hotelling", "s1", 0.5, 0.6)])
    report_to_csv(tmp_path / "r2.csv", [row("analytic_io", "s2", 0.6, 0.95),
                                        row("hotelling", "s2", 0.55, 0.65)])
    summary = ranking_report([tmp_path / "r1.csv", tmp_path / "r2.csv"])
    assert summary["alroc_ranking"] == {"analytic_io": ["s1", "s2"],
                                        "hotelling": ["s2", "s1"]}
    assert summary["auc_ranking"] == {"analytic_io": ["s2", "s1"],
                                      "hotelling": ["s2", "s1"]}
    assert summary["rankings_disagree"] == ["analytic_io"]
    with pytest.raises(ValueError):  # the same report merged twice
        ranking_report([tmp_path / "r1.csv", tmp_path / "r1.csv"])


def test_cli_generate_and_evaluate(tmp_path, capsys):
    cfg = _write_config(tmp_path, observers=["analytic_io"],
                        n_val_per_class=1, n_test_per_class=5,
                        bootstrap_samples=20)
    assert main(["generate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "sha256_test=" in out
    assert main(["evaluate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "analytic_io" in out and "ALROC=" in out


def test_cli_error_paths(tmp_path, capsys):
    cfg = _write_config(tmp_path, preset="no_such")
    assert main(["generate", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    good = _write_config(tmp_path, observers=["analytic_io"],
                         n_val_per_class=1, n_test_per_class=1)
    assert main(["evaluate", "--config", str(good)]) == 1  # nothing generated
    capsys.readouterr()


def test_cli_evaluate_short_test_set_is_one_line_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, observers=["analytic_io"])
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "test.bin").write_bytes(b"SCANOBS1\0\0")
    assert main(["evaluate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncated header" in err
    assert err.count("\n") == 1


def test_cli_evaluate_even_kernel_checkpoint_is_one_line_error(tmp_path,
                                                              capsys):
    cfg = _write_config(tmp_path, observers=["cnn_io"], n_val_per_class=1,
                        n_test_per_class=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    write_malformed_checkpoint(tmp_path / "out" / "checkpoint.bin",
                               input_shape=(64, 64), n_classes=10)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kernel must be odd" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("input_shape, n_classes", [((64, 64), 5),
                                                    ((64, 64), 12),
                                                    ((32, 64), 10)])
def test_cli_evaluate_checkpoint_of_another_task_is_one_line_error(
        tmp_path, capsys, input_shape, n_classes):
    cfg = _write_config(tmp_path, observers=["cnn_io"], n_val_per_class=1,
                        n_test_per_class=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    arch = neuralnet.Architecture(1, input_shape, n_classes, filters=2)
    neuralnet.save_checkpoint(ckpt, neuralnet.init_state(arch, seed=57))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: (classes, input shape) is {(n_classes, input_shape)}"
        f", but the plan's task has (10, (64, 64))\n")
    assert not list((tmp_path / "out").glob("*.csv"))


def test_cli_evaluate_cut_checkpoint_is_one_line_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, observers=["cnn_io"], n_val_per_class=1,
                        n_test_per_class=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    arch = neuralnet.Architecture(1, (64, 64), 10, filters=2)
    neuralnet.save_checkpoint(ckpt, neuralnet.init_state(arch, seed=58))
    ckpt.write_bytes(ckpt.read_bytes()[:-2])  # cut inside the last block
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: trailing or missing data\n")
    assert not list((tmp_path / "out").glob("*.csv"))


def _count_scoring_calls(monkeypatch):
    """Calls of the work an observer does when it scores: the analytic IO's
    log-LRs, the Hotelling build, the MCMC chains and the network's forward
    passes, each counted by a wrapper over the name the observers call."""
    calls = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        calls[name] = 0
        monkeypatch.setattr(owner, name, wrapper)

    counted(runner.observers, "laplacian_io_log_lrs_batch")
    counted(runner.observers, "build_hotelling")
    counted(runner, "mcmc_io_record")
    counted(neuralnet, "forward_posteriors")
    return calls


@pytest.mark.parametrize("name, preset, work", [
    ("analytic_io", "bke_system1", "laplacian_io_log_lrs_batch"),
    ("hotelling", "bke_system1", "build_hotelling"),
    ("hotelling", "lb", "build_hotelling"),
    ("mcmc_io", "lb", "mcmc_io_record"),
    ("cnn_io", "bke_system1", "forward_posteriors")])
def test_observer_set_up_does_no_scoring_work(tmp_path, monkeypatch, name,
                                              preset, work):
    # the chains run in process, so that their calls are counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    plan = ExperimentPlan(preset, tmp_path, observers=[name], cov_samples=4,
                          mcmc_iterations=20, mcmc_burn_in=5)
    task = plan.task
    arch = neuralnet.Architecture(1, task.grid[::-1], task.J + 1, filters=2)
    neuralnet.save_checkpoint(tmp_path / "checkpoint.bin",
                              neuralnet.init_state(arch, seed=60))
    calls = _count_scoring_calls(monkeypatch)
    score = runner.OBSERVERS[name](task, plan)
    assert set(calls.values()) == {0}
    records = score([(np.zeros((2, *task.grid[::-1]), dtype=np.float32),
                      np.array([0, 1]))], 2)
    assert len(records) == 2
    assert calls[work] >= 1  # the wrappers see the work when it scores


def test_observers_are_set_up_before_any_scores(tmp_path, monkeypatch):
    # perfbench reassigns a plan's observers after construction, past the
    # plan's own checks: run_observers checks the list again, so the
    # analytic IO's preset fails before the Hotelling observer listed ahead
    # of it draws or solves anything
    plan = ExperimentPlan("lb", tmp_path / "out", observers=["hotelling"],
                          n_val_per_class=0, n_test_per_class=1,
                          cov_samples=4)
    generate_dataset(plan)
    plan.observers = ["hotelling", "analytic_io"]
    calls = _count_scoring_calls(monkeypatch)
    with pytest.raises(ValueError, match="observers: analytic_io needs preset"):
        run_observers(plan)
    assert set(calls.values()) == {0}
    assert not list(plan.out_dir.glob("*.csv"))


@pytest.mark.parametrize("reassigned, message", [
    (["hotelling", "hotelling"], "observers: 'hotelling' is listed twice"),
    (["mcmc_io"], "observers: mcmc_io needs preset lb, not 'bke_system1'")],
    ids=["twice", "preset"])
def test_reassigned_observers_are_checked_before_any_scores(
        tmp_path, monkeypatch, reassigned, message):
    # the plan's checks of a list given at construction, made again by
    # run_observers on a list assigned after it
    plan = ExperimentPlan("bke_system1", tmp_path / "out",
                          observers=["hotelling"], n_val_per_class=0,
                          n_test_per_class=1)
    generate_dataset(plan)
    plan.observers = reassigned
    calls = _count_scoring_calls(monkeypatch)
    with pytest.raises(ConfigError) as caught:
        run_observers(plan)
    assert str(caught.value) == message
    assert set(calls.values()) == {0}
    assert not list(plan.out_dir.glob("*.csv"))


@pytest.mark.parametrize("run", [generate_dataset, run_observers,
                                 run_training])
@pytest.mark.parametrize("key, value, annotation", [
    ("seed", "x", "int"), ("observers", "hotelling", "list[str]")])
def test_reassigned_field_is_checked_again(tmp_path, run, key, value,
                                           annotation):
    # each stage checks a copy of the plan, so a field assigned after
    # construction gives the one-line error of a plan built with it
    plan = ExperimentPlan("bke_system1", tmp_path / "out",
                          observers=["hotelling"])
    setattr(plan, key, value)
    with pytest.raises(ConfigError) as caught:
        run(plan)
    assert str(caught.value) == f"{key}: must be {annotation}, got {value!r}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_classes", [None, 5])
def test_cli_checkpoint_is_checked_before_any_observer_runs(tmp_path, capsys,
                                                            monkeypatch,
                                                            n_classes):
    cfg = _write_config(tmp_path,
                        observers=["analytic_io", "hotelling", "cnn_io"],
                        n_val_per_class=1, n_test_per_class=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    if n_classes is not None:
        arch = neuralnet.Architecture(1, (64, 64), n_classes, filters=2)
        neuralnet.save_checkpoint(out / "checkpoint.bin",
                                  neuralnet.init_state(arch, seed=58))
    capsys.readouterr()
    calls = _count_scoring_calls(monkeypatch)
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert calls["laplacian_io_log_lrs_batch"] == calls["build_hotelling"] == 0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / "checkpoint.bin") in err
    for written in ("records_*", "lroc_*", "roc_*", "report.csv"):
        assert not list(out.glob(written)), written


def test_cli_evaluate_loads_the_checkpoint_once(tmp_path, capsys,
                                               monkeypatch):
    cfg = _write_config(tmp_path, observers=["cnn_io"], n_val_per_class=1,
                        n_test_per_class=1, bootstrap_samples=20)
    assert main(["generate", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    arch = neuralnet.Architecture(1, (64, 64), 10, filters=2)
    neuralnet.save_checkpoint(ckpt, neuralnet.init_state(arch, seed=59))
    loads = []
    load = neuralnet.load_checkpoint
    monkeypatch.setattr(neuralnet, "load_checkpoint",
                        lambda path: loads.append(path) or load(path))
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert "cnn_io" in capsys.readouterr().out
    assert loads == [ckpt]


@pytest.mark.parametrize("slope", [-0.1, 1.5, math.nan])
def test_cli_evaluate_checkpoint_slope_outside_unit_interval(tmp_path, capsys,
                                                           slope):
    cfg = _write_config(tmp_path, observers=["cnn_io"], n_val_per_class=1,
                        n_test_per_class=1)
    assert main(["generate", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    write_malformed_checkpoint(ckpt, input_shape=(64, 64), n_classes=10,
                               kernel=3, leaky_slope=slope)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: leaky_slope must be in [0, 1]")
    assert err.count("\n") == 1


def test_cli_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_val_per_class=1, n_test_per_class=1)
    alt = tmp_path / "alt"
    assert main(["generate", "--config", str(cfg), "--seed", "42",
                 "--out", str(alt)]) == 0
    capsys.readouterr()
    assert (alt / "test.bin").exists()
    assert "seed=42" in (alt / "manifest.txt").read_text()


def test_cli_report(tmp_path, capsys):
    from scanobs.evaluation import report_to_csv

    report_to_csv(tmp_path / "r1.csv", [{
        "observer": "a", "task": "t", "system": "s1", "alroc": 0.7,
        "alroc_se": 0.01, "auc": 0.8, "auc_se": 0.01, "n_records": 5}])
    report_to_csv(tmp_path / "r2.csv", [{
        "observer": "a", "task": "t", "system": "s2", "alroc": 0.5,
        "alroc_se": 0.01, "auc": 0.9, "auc_se": 0.01, "n_records": 5}])
    assert main(["report", str(tmp_path / "r1.csv"),
                 str(tmp_path / "r2.csv")]) == 0
    out = capsys.readouterr().out
    assert "ALROC ranking: s1 > s2" in out
    assert "WARNING" in out
    # the same report merged twice is a one-line error, not a traceback
    assert main(["report", str(tmp_path / "r1.csv"),
                 str(tmp_path / "r1.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_report_on_malformed_csv_is_one_line_error(tmp_path, capsys):
    from scanobs.evaluation import report_to_csv

    good = tmp_path / "report.csv"
    report_to_csv(good, [{
        "observer": "a", "task": "t", "system": "s1", "alroc": 0.7,
        "alroc_se": 0.01, "auc": 0.8, "auc_se": 0.01, "n_records": 5}])
    text = good.read_text()
    records = tmp_path / "records_a.csv"  # passed by mistake
    records.write_text("image_id,true_label,t,j_star,binary_statistic\n"
                       "0,0,0.5,1,0.25\n")
    no_alroc = tmp_path / "no_alroc.csv"
    no_alroc.write_text(text.replace(",alroc,", ",alroc_mean,", 1))
    not_a_number = tmp_path / "not_a_number.csv"
    not_a_number.write_text(text.replace("0.01", "n/a", 1))
    for path, message in (
            (records, "no 'observer' column"),
            (no_alroc, "no 'alroc' column"),
            (not_a_number, "line 2: alroc_se is 'n/a', not a number")):
        assert main(["report", str(good), str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
