"""Which public functions the traced run wraps, and the per-layer metrics.

The layers are the package modules.  ``rng`` and ``cli`` are thin and get no
metrics of their own.  Each function is wrapped at the name its caller looks
it up under: ``tasks`` imports ``apply_noise`` by name, so the noise draw of
``simulate_measurement`` is wrapped as ``scanobs.tasks.apply_noise``, that of
the training batches as ``scanobs.neuralnet.apply_noise``, and that of the
benchmark's own clustered-lumpy store as ``scanobs.imaging.apply_noise``.
"""

from __future__ import annotations

import numpy as np

from scanobs import (dataset, evaluation, imaging, mcmc, neuralnet,
                     observers, phantoms, runner, tasks)

from spans import Tracer


def forward_flops(arch) -> float:
    """Multiply-adds x 2 of one image through the convs and the dense head."""
    h, w = arch.input_shape
    channels = [1] + [arch.filters] * (arch.conv_layers - 1)
    conv = sum(2 * h * w * c * arch.filters * arch.kernel ** 2
               for c in channels)
    return conv + 2 * arch.dense_inputs * arch.n_classes


def train_flops(arch) -> float:
    """Forward plus the weight and input gradients: three times forward."""
    return 3 * forward_flops(arch)


def im2col_bytes(arch) -> list[int]:
    """Bytes of the float32 column matrix each conv layer builds per image."""
    h, w = arch.input_shape
    channels = [1] + [arch.filters] * (arch.conv_layers - 1)
    return [4 * c * arch.kernel ** 2 * h * w for c in channels]


def install(tr: Tracer):
    wrap = tr.wrap
    wrap(phantoms, "sample_lumpy", "phantoms.sample_lumpy")
    wrap(phantoms, "sample_clb", "phantoms.sample_clb")
    wrap(tasks, "render_lumpy_image", "imaging.render_lumpy_image",
         work=lambda *a, **k: 1)
    for owner in (tasks, imaging):
        wrap(owner, "render_clb_image", "imaging.render_clb_image",
             work=lambda real, *a, **k: real.blob_count)
    for owner in (tasks, neuralnet, imaging):
        wrap(owner, "apply_noise", "imaging.apply_noise",
             work=lambda img, *a, **k: np.size(img))
    wrap(runner, "simulate_measurement", "tasks.simulate_measurement")
    wrap(dataset.DatasetWriter, "append", "dataset.DatasetWriter.append")
    wrap(runner, "read_dataset", "dataset.read_dataset", peak=True)
    wrap(observers, "laplacian_io_log_lrs_batch",
         "observers.laplacian_io_log_lrs_batch", peak=True,
         work=lambda images, sigs, *a, **k: len(images) * sigs[0].size
         * len(sigs))
    for owner in (observers, mcmc):
        wrap(owner, "posteriors_from_lrs", "observers.posteriors_from_lrs")
        wrap(owner, "scanning_decision", "observers.scanning_decision")
    for name in ("records_to_csv", "build_hotelling", "scanning_ho_records"):
        wrap(observers, name, f"observers.{name}")
    wrap(runner, "mcmc_io_record", "mcmc.mcmc_io_record",
         work=lambda g, task, cfg, *a, **k: cfg.iterations)
    wrap(neuralnet, "loss_and_gradient", "neuralnet.loss_and_gradient",
         peak=True,
         work=lambda images, labels, state: len(labels)
         * train_flops(state.arch))
    wrap(neuralnet, "forward_posteriors", "neuralnet.forward_posteriors",
         peak=True,
         work=lambda images, state, *a, **k: len(images)
         * forward_flops(state.arch))
    for name in ("adam_step", "validation_loss", "save_checkpoint",
                 "load_checkpoint"):
        wrap(neuralnet, name, f"neuralnet.{name}")
    for name in ("alroc", "auc"):
        wrap(evaluation, name, f"evaluation.{name}",
             work=lambda records, n_bootstrap=1000, *a, **k: n_bootstrap)
    wrap(evaluation, "empirical_lroc", "evaluation.empirical_lroc", peak=True)
    wrap(evaluation, "empirical_roc", "evaluation.empirical_roc")
    for name in ("generate_dataset", "run_observers", "run_training"):
        wrap(runner, name, f"runner.{name}")


def _s(name):
    return "s", lambda tr: tr.seconds(name)


def _peak(name):
    return "MB", lambda tr: tr.peak_mb(name)


def _self(name):
    return "s", lambda tr: tr.self_seconds(name)


# name -> (unit, value from the spans of one traced round)
LAYER_METRICS = {
    "phantoms.sample_lumpy.s": _s("phantoms.sample_lumpy"),
    "phantoms.sample_clb.s": _s("phantoms.sample_clb"),
    "imaging.render_lumpy_image.s": _s("imaging.render_lumpy_image"),
    "imaging.render_lumpy_image.images_per_s": (
        "images/s", lambda tr: tr.rate("imaging.render_lumpy_image")),
    "imaging.render_clb_image.s": _s("imaging.render_clb_image"),
    "imaging.render_clb_image.blobs_per_s": (
        "blobs/s", lambda tr: tr.rate("imaging.render_clb_image")),
    "imaging.apply_noise.s": _s("imaging.apply_noise"),
    "imaging.apply_noise.mpixels_per_s": (
        "Mpixels/s", lambda tr: tr.rate("imaging.apply_noise", scale=1e6)),
    "tasks.simulate_measurement.self_s": _self("tasks.simulate_measurement"),
    "dataset.DatasetWriter.append.s": _s("dataset.DatasetWriter.append"),
    "dataset.read_dataset.s": _s("dataset.read_dataset"),
    "dataset.read_dataset.peak_mb": _peak("dataset.read_dataset"),
    "observers.laplacian_io_log_lrs_batch.s":
        _s("observers.laplacian_io_log_lrs_batch"),
    "observers.laplacian_io_log_lrs_batch.gelems_per_s": (
        "Gelem/s", lambda tr: tr.rate("observers.laplacian_io_log_lrs_batch",
                                      scale=1e9)),
    "observers.laplacian_io_log_lrs_batch.peak_mb":
        _peak("observers.laplacian_io_log_lrs_batch"),
    "observers.posteriors_from_lrs.s": _s("observers.posteriors_from_lrs"),
    "observers.posteriors_from_lrs.calls": (
        "count", lambda tr: tr.calls("observers.posteriors_from_lrs")),
    "observers.scanning_decision.calls": (
        "count", lambda tr: tr.calls("observers.scanning_decision")),
    "observers.records_to_csv.s": _s("observers.records_to_csv"),
    "observers.build_hotelling.s": _s("observers.build_hotelling"),
    "observers.scanning_ho_records.s": _s("observers.scanning_ho_records"),
    "mcmc.mcmc_io_record.s": _s("mcmc.mcmc_io_record"),
    "mcmc.mcmc_io_record.iters_per_s": (
        "iterations/s", lambda tr: tr.rate("mcmc.mcmc_io_record")),
    "neuralnet.loss_and_gradient.s": _s("neuralnet.loss_and_gradient"),
    "neuralnet.loss_and_gradient.gflops_per_s": (
        "GFLOP/s", lambda tr: tr.rate("neuralnet.loss_and_gradient",
                                      scale=1e9)),
    "neuralnet.loss_and_gradient.peak_mb": _peak("neuralnet.loss_and_gradient"),
    "neuralnet.adam_step.s": _s("neuralnet.adam_step"),
    "neuralnet.validation_loss.s": _s("neuralnet.validation_loss"),
    "neuralnet.save_checkpoint.s": _s("neuralnet.save_checkpoint"),
    "neuralnet.forward_posteriors.s": _s("neuralnet.forward_posteriors"),
    "neuralnet.forward_posteriors.gflops_per_s": (
        "GFLOP/s", lambda tr: tr.rate("neuralnet.forward_posteriors",
                                      scale=1e9)),
    "neuralnet.forward_posteriors.peak_mb": _peak("neuralnet.forward_posteriors"),
    "neuralnet.load_checkpoint.s": _s("neuralnet.load_checkpoint"),
    "evaluation.alroc.s": _s("evaluation.alroc"),
    "evaluation.auc.s": _s("evaluation.auc"),
    "evaluation.bootstrap_replicates_per_s": (
        "replicates/s", lambda tr: tr.rate("evaluation.alroc",
                                           "evaluation.auc")),
    "evaluation.empirical_lroc.s": _s("evaluation.empirical_lroc"),
    "evaluation.empirical_lroc.peak_mb": _peak("evaluation.empirical_lroc"),
    "evaluation.empirical_roc.s": _s("evaluation.empirical_roc"),
    "runner.run_observers.self_s": _self("runner.run_observers"),
    "runner.run_training.self_s": _self("runner.run_training"),
    "runner.generate_dataset.self_s": _self("runner.generate_dataset"),
}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    return {name: (float(fn(tr)), unit)
            for name, (unit, fn) in LAYER_METRICS.items()}

