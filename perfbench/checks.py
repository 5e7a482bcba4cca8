"""Output checks, each against an independent computation or a required
property.  They run once per benchmark run, after the timed rounds, on the
outputs of the last round (every round of a run repeats the same inputs).

Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import struct

import numpy as np

from scanobs import imaging, neuralnet, phantoms
from scanobs.imaging import NoiseModel, PrfSpec
from scanobs.mcmc import McmcConfig, mcmc_io_record
from scanobs.phantoms import LumpyParams, SignalSpec
from scanobs.tasks import TaskConfig, task_preset

# |bootstrap SE / DeLong SE - 1| bound.  With 1000 replicates the bootstrap
# SE itself scatters by about 2 percent; ratios measured here were 0.96-1.04.
SE_RATIO_BOUND = 0.15
# Figure-of-merit gaps must exceed this many combined standard errors.
SE_MULTIPLE = 3.0
# Relative residual a Hotelling template may leave in K w = s: twice the
# 1e-6 that build_hotelling asks of conjugate gradients, whose stopping test
# reads the recursively updated residual rather than the true one.
CG_RTOL = 2e-6
# Likelihood ratios of the MCMC enumeration oracle agree within 2 percent.
MCMC_LR_RTOL = 0.02
MCMC_ORACLE_ITERATIONS = 200_000
# Poisson-Gaussian noise moments: largest |z| of a per-pixel mean, and the
# bound on the pixel-averaged variance ratio, over NOISE_DRAWS draws.
NOISE_DRAWS = 200
NOISE_MAX_Z = 6.0
NOISE_VAR_RTOL = 0.02


# -- independent readers ------------------------------------------------------

def read_images(path):
    """Images and labels of a SCANOBS1 file, parsed from its layout."""
    raw = path.read_bytes()
    _, _, count, width, height, _ = struct.unpack_from("<8sIQIII", raw)
    rec = np.frombuffer(raw, dtype=np.uint8, offset=64).reshape(
        count, 1 + 4 * width * height)
    images = rec[:, 1:].copy().view("<f4").reshape(count, height, width)
    return images.astype(np.float64), rec[:, 0].astype(int)


def read_records(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lam_keys = [k for k in rows[0] if k.startswith("lambda_")]
    return {
        "label": np.array([int(r["true_label"]) for r in rows]),
        "t": np.array([float(r["t"]) for r in rows]),
        "j_star": np.array([int(r["j_star"]) for r in rows]),
        "binary": np.array([float(r["binary_statistic"]) for r in rows]),
        "lams": np.array([[float(r[k]) for k in lam_keys] for r in rows]),
    }


def read_report(path):
    with open(path, newline="") as fh:
        return {row["observer"]: row for row in csv.DictReader(fh)}


# -- figures of merit -----------------------------------------------------------

def pair_scores(t_sig, t_abs, credit):
    """(present x absent) matrix: credit for t_i > t_k, half on ties."""
    gt = t_sig[:, None] > t_abs[None, :]
    eq = t_sig[:, None] == t_abs[None, :]
    return (gt + 0.5 * eq) * credit[:, None]


def brute_force_fom(rec, binary):
    """ALROC (or AUC when ``binary``) over all present x absent pairs, with
    its DeLong placement-value standard error."""
    absent = rec["label"] == 0
    t = rec["binary"] if binary else rec["t"]
    sig = ~absent
    credit = np.ones(sig.sum()) if binary else \
        (rec["j_star"][sig] == rec["label"][sig]).astype(float)
    psi = pair_scores(t[sig], t[absent], credit)
    v10, v01 = psi.mean(axis=1), psi.mean(axis=0)
    se = math.sqrt(v10.var(ddof=1) / len(v10) + v01.var(ddof=1) / len(v01))
    return float(psi.mean()), se


def fom_checks(out_dir, observers, tag, check_se=True):
    """Report ALROC/AUC equal the brute-force pair counts; with ``check_se``
    (large samples only) bootstrap SEs lie near the DeLong SEs."""
    checks = []
    report = read_report(out_dir / "report.csv")
    for obs in observers:
        rec = read_records(out_dir / f"records_{obs}.csv")
        for fom, binary in (("alroc", False), ("auc", True)):
            value, se = brute_force_fom(rec, binary)
            got = float(report[obs][fom])
            got_se = float(report[obs][f"{fom}_se"])
            checks.append((f"{tag}.{obs}.{fom}_brute_force",
                           abs(got - value) <= 1e-12,
                           f"report {got!r} brute force {value!r}"))
            if not check_se:
                continue
            ratio = got_se / se
            checks.append((f"{tag}.{obs}.{fom}_se_vs_delong",
                           abs(ratio - 1.0) <= SE_RATIO_BOUND,
                           f"bootstrap/DeLong = {ratio:.4f}"))
    return checks


def manifest_checks(out_dir, tag):
    entries = dict(line.strip().split("=", 1)
                   for line in (out_dir / "manifest.txt").read_text()
                   .splitlines() if "=" in line)
    checks = []
    for key, digest in entries.items():
        if key.startswith("sha256_"):
            name = key[len("sha256_"):]
            actual = hashlib.sha256(
                (out_dir / f"{name}.bin").read_bytes()).hexdigest()
            checks.append((f"{tag}.manifest_sha256.{name}", actual == digest,
                           actual[:16]))
    return checks


def combined_gap(a, b, fom):
    """(a - b) in units of their combined standard error."""
    se = math.hypot(float(a[f"{fom}_se"]), float(b[f"{fom}_se"]))
    return (float(a[fom]) - float(b[fom])) / se


# -- bke_criterion1 -------------------------------------------------------------

def bke_checks(outputs, seed):
    plans = outputs["plans"]
    rng = np.random.default_rng([seed, 0xB4E])
    checks = []
    reports = {}
    for plan in plans:
        out, task, tag = plan.out_dir, plan.task, plan.preset
        checks += manifest_checks(out, tag)
        checks += fom_checks(out, plan.observers, tag)
        report = reports[plan.preset] = read_report(out / "report.csv")
        for fom in ("alroc", "auc"):
            z = combined_gap(report["analytic_io"], report["hotelling"], fom)
            checks.append((f"{tag}.ideal_observer_not_beaten.{fom}",
                           z >= -SE_MULTIPLE, f"IO - HO = {z:.2f} SE"))

        images, _ = read_images(out / "test.bin")
        sample = rng.choice(len(images), size=16, replace=False)
        g = images[sample].reshape(len(sample), -1)
        s = task.signal_images.reshape(task.J, -1).astype(np.float64)
        c = task.noise.scale
        log_prior = np.log(task.priors[1:])
        io = log_prior + np.array(
            [[(np.abs(gi) - np.abs(gi - sj)).sum() / c for sj in s]
             for gi in g])
        ho = np.array([[sj @ (gi - sj / 2.0) / (2.0 * c * c) for sj in s]
                       for gi in g])
        for obs, expect in (("analytic_io", io), ("hotelling", ho)):
            lams = read_records(out / f"records_{obs}.csv")["lams"][sample]
            err = np.abs(lams - expect).max() / (1.0 + np.abs(expect).max())
            checks.append((f"{tag}.{obs}.lambda_formula", err <= 1e-9,
                           f"max rel err {err:.2e} on {len(sample)} images"))

    s1, s2 = (reports[p]["analytic_io"] for p in ("bke_system1", "bke_system2"))
    z_alroc = combined_gap(s1, s2, "alroc")
    z_auc = combined_gap(s2, s1, "auc")
    checks.append(("reversal.alroc_ranks_system1_first", z_alroc > SE_MULTIPLE,
                   f"gap {float(s1['alroc']) - float(s2['alroc']):.4f} = "
                   f"{z_alroc:.2f} SE"))
    checks.append(("reversal.auc_ranks_system2_first", z_auc > SE_MULTIPLE,
                   f"gap {float(s2['auc']) - float(s1['auc']):.4f} = "
                   f"{z_auc:.2f} SE"))
    return checks


# -- cnn_train ------------------------------------------------------------------

def gradient_check(arch, seed):
    """Directional central difference of the float64 loss at ``arch``."""
    rng = np.random.default_rng([seed, 0xFD])
    state = neuralnet.init_state(arch, seed=seed, dtype=np.float64)
    state.input_std = 20.0
    images = rng.normal(0.0, 20.0, size=(2,) + arch.input_shape)
    labels = np.array([0, 1 + int(rng.integers(arch.n_classes - 1))])
    _, grads = neuralnet.loss_and_gradient(images, labels, state)
    direction = [rng.standard_normal(p.shape) for p in state.params]
    norm = math.sqrt(sum((d * d).sum() for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(float((g * d).sum()) for g, d in zip(grads, direction))

    def loss_at(eps):
        moved = state.copy()
        moved.params = [p + eps * d for p, d in zip(state.params, direction)]
        return neuralnet.loss_and_gradient(images, labels, moved)[0]

    # Two step sizes: a step that straddles a leaky-ReLU kink or a max-pool
    # switch spoils its central difference, and the smaller one is then
    # unlikely to straddle one too.
    err = min(abs((loss_at(eps) - loss_at(-eps)) / (2.0 * eps) - analytic)
              for eps in (1e-6, 1e-7)) / max(abs(analytic), 1e-12)
    return ("cnn.gradient_finite_difference", err <= 1e-5,
            f"directional derivative {analytic:.6e}, rel err {err:.1e}")


def cnn_checks(outputs, seed):
    plan, result = outputs["plan"], outputs["train_result"]
    out = plan.out_dir
    checks = manifest_checks(out, "cnn") + fom_checks(
        out, plan.observers, "cnn", check_se=False)
    state = neuralnet.load_checkpoint(out / "checkpoint.bin")
    saved = result.best_state
    same = (state.arch == saved.arch and state.step == saved.step
            and state.input_mean == saved.input_mean
            and state.input_std == saved.input_std
            and all(a.dtype == b.dtype and np.array_equal(a, b)
                    for group in ("params", "m", "v")
                    for a, b in zip(getattr(state, group),
                                    getattr(saved, group))))
    checks.append(("cnn.checkpoint_round_trip", same,
                   f"{len(state.params)} parameter blocks, step {state.step}"))

    images, _ = read_images(out / "test.bin")
    sample = np.random.default_rng([seed, 0xCC]).choice(
        len(images), size=10, replace=False)
    probs = neuralnet.forward_posteriors(images[sample].astype(np.float32),
                                         state).astype(np.float64)
    sums = np.abs(probs.sum(axis=1) - 1.0).max()
    checks.append(("cnn.posteriors_normalized",
                   probs.min() >= 0.0 and sums <= 1e-5,
                   f"min {probs.min():.2e}, max |sum - 1| {sums:.1e}"))
    logp = np.log(probs)
    lams = read_records(out / "records_cnn_io.csv")["lams"][sample]
    err = np.abs(lams - (logp[:, 1:] - logp[:, :1])).max()
    checks.append(("cnn.lambda_is_log_posterior_ratio",
                   err <= 1e-4 * (1.0 + np.abs(lams).max()),
                   f"max abs err {err:.1e}"))

    with open(out / f"training_log_depth{result.best_state.arch.conv_layers}"
              ".csv", newline="") as fh:
        log = list(csv.DictReader(fh))
    steps = plan.total_minibatches
    periods = sum(1 for s in range(1, steps + 1)
                  if s % plan.val_period == 0 or s == steps)
    finite = all(math.isfinite(float(r[k])) for r in log
                 for k in ("train_loss", "val_loss"))
    checks.append(("cnn.training_log_rows", len(log) == periods and finite,
                   f"{len(log)} rows for {periods} validation periods"))
    checks.append(gradient_check(state.arch, seed))
    return checks


# -- lumpy_backgrounds ------------------------------------------------------------

def lump_value(x, y, centers, lumpy, prf):
    """Closed-form imaged lump sum at one point, scalar float64."""
    var = prf.width ** 2 + lumpy.lump_width ** 2
    coef = lumpy.amplitude * prf.height * lumpy.lump_width ** 2 / var
    return math.fsum(coef * math.exp(-((x - cx) ** 2 + (y - cy) ** 2)
                                     / (2.0 * var)) for cx, cy in centers)


def clb_value(x, y, real, p):
    """Clustered-lumpy blob sum A exp(-alpha n^beta / ell) at one point."""
    terms = []
    for cl in real.clusters:
        for (ox, oy), ang in zip(cl.offsets, cl.angles):
            dx, dy = x - (cl.center[0] + ox), y - (cl.center[1] + oy)
            vx = math.cos(ang) * dx - math.sin(ang) * dy
            vy = math.sin(ang) * dx + math.cos(ang) * dy
            n = math.hypot(vx, vy)
            if n == 0.0:
                terms.append(p.blob_amplitude)
                continue
            ell = p.half_axis_x * p.half_axis_y / math.sqrt(
                (p.half_axis_y * vx / n) ** 2 + (p.half_axis_x * vy / n) ** 2)
            terms.append(p.blob_amplitude
                         * math.exp(-p.shape_alpha * n ** p.shape_beta / ell))
    return math.fsum(terms)


def pixel_check(name, image, ref_fn, rng, n=24):
    """Rendered float32 pixels within one float32 rounding of ``ref_fn``."""
    h, w = image.shape
    worst = 0.0
    for iy, ix in zip(rng.integers(h, size=n), rng.integers(w, size=n)):
        ref = ref_fn(ix + 0.5, iy + 0.5)
        ulp = float(np.spacing(np.float32(abs(ref))))
        worst = max(worst, abs(float(image[iy, ix]) - ref) / ulp)
    return (name, worst <= 1.0, f"max error {worst:.2f} float32 ulp at {n} "
            "pixels")


def _tiny_lumpy_task(mean_count):
    grid = (8, 8)
    return TaskConfig(
        kind="custom", grid=grid,
        prf=PrfSpec(height=10.0, width=1.0, grid=grid),
        lumpy=LumpyParams(mean_count=mean_count, amplitude=0.3,
                          lump_width=2.0, field_of_view=grid),
        noise=NoiseModel.gaussian(2.0),
        signals=[SignalSpec(1, (2.5, 2.5), 0.15, 1.0, 1.0),
                 SignalSpec(2, (5.5, 5.5), 0.15, 1.0, 1.0)])


def _pixel_centers(grid):
    w, h = grid
    ys, xs = np.mgrid[0:h, 0:w] + 0.5
    return xs.ravel(), ys.ravel()


def mcmc_enumeration_check(seed):
    """The chain's LRs against a sum over every lump configuration of a
    3-candidate, at-most-2-lump support with Poisson-multinomial prior
    weights (Nbar/K)^N / prod(n_k!)."""
    task = _tiny_lumpy_task(1.5)
    cand = np.array([[2.5, 2.5], [5.5, 5.5], [3.5, 4.5]])
    xs, ys = _pixel_centers(task.grid)
    lump = np.array([[lump_value(x, y, [c], task.lumpy, task.prf)
                      for x, y in zip(xs, ys)] for c in cand])
    sig = task.signal_images.reshape(task.J, -1).astype(np.float64)
    sigma2 = task.noise.scale ** 2
    # The oracle image is fixed and only the chain follows the seed.  For
    # images drawn per seed the estimator's variance is heavy-tailed (rare
    # configurations with exp(v) up to 165): a 300k-iteration chain missed
    # by 2.2% on one image of 40, and a 3M-iteration chain on that image
    # came within 0.4%.  On this image ten 300k chains stayed within 0.25%.
    noise = np.random.default_rng(3).normal(0.0, 2.0, size=lump.shape[1])
    g = lump[0] + sig[0] + noise

    log_w, v = [], []
    k, nbar = len(cand), task.lumpy.mean_count
    for counts in itertools.product(range(3), repeat=k):
        if sum(counts) > 2:
            continue
        r = g - np.array(counts) @ lump
        log_w.append(sum(counts) * math.log(nbar / k)
                     - sum(math.lgamma(n + 1) for n in counts)
                     - (r @ r) / (2.0 * sigma2))
        v.append((sig @ r - (sig * sig).sum(axis=1) / 2.0) / sigma2)
    log_w, v = np.array(log_w), np.array(v)
    top = log_w.max()
    w = np.exp(log_w - top)
    exact = np.log((w[:, None] * np.exp(v)).sum(axis=0) / w.sum())

    cfg = McmcConfig(iterations=MCMC_ORACLE_ITERATIONS, candidate_centers=cand,
                     max_count=2)
    rec = mcmc_io_record(g.reshape(8, 8), task, cfg,
                         np.random.default_rng([seed, 0x3C3D]), true_label=1)
    est = rec.per_location - np.log(task.priors[1:])
    err = float(np.abs(np.expm1(est - exact)).max())
    return ("lb.mcmc_matches_enumeration", err <= MCMC_LR_RTOL,
            f"max LR rel err {err:.4f} ({MCMC_ORACLE_ITERATIONS} iterations)")


def mcmc_frozen_chain_check(seed):
    """With a vanishing lump rate the chain stays at b = 0, so its estimate
    is the Gaussian background-known log LR."""
    task = _tiny_lumpy_task(1e-9)
    g = np.random.default_rng([seed, 0xF0]).normal(0.0, 2.0, size=(8, 8))
    rec = mcmc_io_record(g, task, McmcConfig(iterations=2000, burn_in=100),
                         np.random.default_rng([seed, 0xF1]))
    sig = task.signal_images.reshape(task.J, -1).astype(np.float64)
    expect = np.log(task.priors[1:]) + (
        sig @ g.ravel() - (sig * sig).sum(axis=1) / 2.0) / task.noise.scale ** 2
    err = float(np.abs(rec.per_location - expect).max())
    return ("lb.mcmc_frozen_chain_is_bke", err <= 1e-9, f"max abs err {err:.1e}")


def lb_checks(outputs, seed):
    plan = outputs["plan"]
    task = plan.task
    rng = np.random.default_rng([seed, 0x1B])
    checks = manifest_checks(plan.out_dir, "lb")

    for i in range(2):
        real = phantoms.sample_lumpy(task.lumpy, rng)
        image = imaging.render_lumpy_image(real, task.lumpy, task.prf)
        checks.append(pixel_check(
            f"lb.render_lumpy_oracle.{i}", image,
            lambda x, y: lump_value(x, y, real.centers, task.lumpy, task.prf),
            rng))
    clb = task_preset("clb")
    real, clean = outputs["clb"][0]
    checks.append(pixel_check(
        "lb.render_clb_oracle", clean,
        lambda x, y: clb_value(x, y, real, clb.clb), rng))

    for backgrounds, noise_var, state in outputs["hotelling"]:
        x = np.asarray(backgrounds, dtype=np.float64).reshape(
            len(backgrounds), -1)
        centered = x - x.mean(axis=0)
        worst = 0.0
        for w, s in zip(state.templates, state.signals):
            kw = centered.T @ (centered @ w) / (len(x) - 1) + noise_var * w
            worst = max(worst, np.linalg.norm(kw - s) / np.linalg.norm(s))
        checks.append(("lb.hotelling_template_residual", worst <= CG_RTOL,
                       f"max |Kw - s|/|s| = {worst:.2e} over "
                       f"{len(state.templates)} templates, "
                       f"{len(x)} samples"))

    checks.append(mcmc_enumeration_check(seed))
    checks.append(mcmc_frozen_chain_check(seed))

    noise = clb.noise
    b = clean.astype(np.float64)
    draws = np.stack([imaging.apply_noise(clean, noise, rng)
                      for _ in range(NOISE_DRAWS)]).astype(np.float64)
    var = b + noise.scale ** 2
    z = np.abs(draws.mean(axis=0) - b) / np.sqrt(var / NOISE_DRAWS)
    ratio = draws.var(axis=0, ddof=1) / var
    low = b <= np.median(b)
    ratios = [float(ratio[m].mean()) for m in (low, ~low)]
    checks.append(("lb.poisson_gaussian_mean", z.max() <= NOISE_MAX_Z,
                   f"max |z| {z.max():.2f} over {b.size} pixels, "
                   f"{NOISE_DRAWS} draws"))
    checks.append(("lb.poisson_gaussian_variance",
                   all(abs(r - 1.0) <= NOISE_VAR_RTOL for r in ratios),
                   "var/(b + sigma^2) = %.4f (low b), %.4f (high b)" %
                   tuple(ratios)))
    return checks


CHECKS = {
    "bke_criterion1": bke_checks,
    "cnn_train": cnn_checks,
    "lumpy_backgrounds": lb_checks,
}
