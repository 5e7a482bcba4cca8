import concurrent.futures
import ctypes
import json
import math
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from helpers import records_from_csv, write_malformed_checkpoint
from scanobs import neuralnet, runner
from scanobs.cli import main
from scanobs.dataset import DatasetWriter, read_dataset
from scanobs.mcmc import McmcConfig, mcmc_io_record
from scanobs.neuralnet import TrainingDiverged, load_checkpoint
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
from scanobs.tasks import task_preset


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
    {"learning_rate": math.nan}, {"learning_rate": 1e39}])
def test_plan_rejects_out_of_range_settings(tmp_path, overrides):
    key = next(iter(overrides))
    with pytest.raises(ConfigError, match=f"^{key}: "):
        ExperimentPlan("bke_system1", tmp_path, **overrides)


def test_plan_accepts_smallest_settings(tmp_path):
    ExperimentPlan("bke_system1", tmp_path, n_train_backgrounds=0,
                   n_val_per_class=0, n_test_per_class=0, batch_per_class=1,
                   total_minibatches=1, val_period=1, bootstrap_samples=2,
                   conv_layers=[1], cov_samples=2)


@pytest.mark.parametrize("overrides", [
    {"val_period": 0}, {"total_minibatches": 0}, {"bootstrap_samples": 1},
    {"conv_layers": []}, {"cov_samples": 0}, {"learning_rate": 0},
    {"learning_rate": -1.0}, {"learning_rate": math.nan},
    {"learning_rate": 1e39}])
def test_cli_out_of_range_plans_are_one_line_errors(tmp_path, capsys,
                                                    overrides):
    key = next(iter(overrides))
    cfg = _write_config(tmp_path, observers=["analytic_io"], **overrides)
    for verb in ("generate", "train", "evaluate"):
        assert main([verb, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
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


def test_interrupted_generate_keeps_the_old_files(tmp_path, monkeypatch):
    out = tmp_path / "o"
    plan = ExperimentPlan("bke_system1", out, n_val_per_class=1,
                          n_test_per_class=3, seed=1)
    generate_dataset(plan)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"val.bin", "test.bin", "manifest.txt"}
    simulate = runner.simulate_measurement
    calls = []

    def interrupt_at_fifth_test_image(task, label, rng):
        calls.append(label)
        if len(calls) == 10 + 5:  # the 10 validation images come first
            raise KeyboardInterrupt
        return simulate(task, label, rng)

    monkeypatch.setattr(runner, "simulate_measurement",
                        interrupt_at_fifth_test_image)
    plan.seed = 2
    with pytest.raises(KeyboardInterrupt):
        generate_dataset(plan, force=True)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # interrupted in an empty directory, a run leaves nothing behind
    calls.clear()
    plan.out_dir = tmp_path / "new"
    with pytest.raises(KeyboardInterrupt):
        generate_dataset(plan)
    assert list((tmp_path / "new").iterdir()) == []


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
    records = runner.OBSERVERS["mcmc_io"](images, labels, task, plan)
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
        runner.OBSERVERS["mcmc_io"](images, labels, plan.task, plan)


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
        runner.OBSERVERS["mcmc_io"](images, labels, plan.task, plan)
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

    lb = ExperimentPlan("lb", tmp_path / "lb", observers=["analytic_io"],
                        n_val_per_class=1, n_test_per_class=1)
    generate_dataset(lb)
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
