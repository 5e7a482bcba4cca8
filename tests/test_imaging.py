import hashlib
import math
import os
import sys

import numpy as np
import pytest

from helpers import (
    reference_lump_image,
    reference_render_clb_image,
    reference_render_lumpy_image,
    reference_write_blocks,
    traced_peak,
)
from quadrature import gaussian_lump, gaussian_signal, prf_pixel_value
from scanobs import imaging, runner
from scanobs.imaging import (
    NoiseModel,
    PrfSpec,
    apply_noise,
    lump_kernel,
    pixel_grid,
    render_clb_image,
    render_lumpy_image,
    render_signal_image,
)
from scanobs.phantoms import (
    ClbCluster,
    ClbParams,
    ClbRealization,
    LumpyParams,
    LumpyRealization,
    SignalSpec,
    sample_clb,
    sample_lumpy,
)
from scanobs.tasks import PRESETS, simulate_measurement, task_preset

LB_PRF = PrfSpec(height=40.0, width=1.5, grid=(64, 64))
LB_PARAMS = LumpyParams()


def test_empty_lumpy_renders_zero():
    img = render_lumpy_image(LumpyRealization(np.empty((0, 2))),
                             LB_PARAMS, LB_PRF)
    assert img.shape == (64, 64)
    assert np.all(img == 0)


def test_single_lump_peak_value():
    # peak coefficient a*h*w_b^2/(w_h^2+w_b^2) = 40*49/51.25
    center = (31.5, 31.5)  # a pixel center
    img = render_lumpy_image(LumpyRealization(np.array([center])),
                             LB_PARAMS, LB_PRF)
    expected = 40.0 * 49.0 / (1.5 ** 2 + 49.0)
    assert img[31, 31] == pytest.approx(expected, rel=1e-5)
    assert img.max() == img[31, 31]


def test_lumpy_render_matches_quadrature():
    center = (20.3, 41.7)
    img = render_lumpy_image(LumpyRealization(np.array([center])),
                             LB_PARAMS, LB_PRF)
    obj = gaussian_lump(center, 1.0, 7.0)
    rng = np.random.default_rng(0)
    for _ in range(12):
        ix, iy = rng.integers(10, 54, size=2)
        ref = prf_pixel_value(obj, 40.0, 1.5, (ix + 0.5, iy + 0.5), center)
        assert img[iy, ix] == pytest.approx(ref, rel=1e-6)


def test_empty_clb_renders_zero():
    img = render_clb_image(ClbRealization([]), ClbParams())
    assert img.shape == (128, 128)
    assert np.all(img == 0)


def _one_blob(position, angle):
    return ClbRealization([ClbCluster(np.asarray(position, dtype=float),
                                      np.zeros((1, 2)), np.array([angle]))])


def test_clb_blob_value_on_major_axis():
    params = ClbParams()
    pos = (40.5, 40.5)  # a pixel center
    img = render_clb_image(_one_blob(pos, 0.0), params)
    # pixel at distance Lx along x: value A*exp(-alpha*Lx^beta/Lx)
    expected = 40.0 * math.exp(-2.1 * 5.0 ** 0.5 / 5.0)
    assert img[40, 45] == pytest.approx(expected, rel=1e-5)
    assert img[40, 40] == pytest.approx(40.0, rel=1e-6)  # blob center


def test_clb_rotation_by_pi_invariant():
    params = ClbParams()
    a = render_clb_image(_one_blob((50.2, 61.8), 0.7), params)
    b = render_clb_image(_one_blob((50.2, 61.8), 0.7 + math.pi), params)
    np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7)


def test_zero_amplitude_signal():
    spec = SignalSpec(1, (32.0, 32.0), amplitude=0.0, width1=3.0, width2=3.0)
    img = render_signal_image(spec, (64, 64), prf=PrfSpec(60.0, 5.0, (64, 64)))
    assert np.all(img == 0)


def test_signal_closed_form_amplitude_system1():
    # A = a*h*w1*w2/sqrt((w_h^2+w1^2)(w_h^2+w2^2)) = 0.2*60*9/34
    prf = PrfSpec(height=60.0, width=5.0, grid=(64, 64))
    spec = SignalSpec(1, (32.5, 32.5), amplitude=0.2, width1=3.0, width2=3.0)
    img = render_signal_image(spec, prf.grid, prf=prf)
    assert img[32, 32] == pytest.approx(0.2 * 60.0 * 9.0 / 34.0, rel=1e-6)


def test_signal_render_matches_quadrature():
    prf = PrfSpec(height=60.0, width=5.0, grid=(64, 64))
    spec = SignalSpec(1, (30.7, 28.2), amplitude=0.2, width1=3.0, width2=2.0,
                      angle=0.5)
    img = render_signal_image(spec, prf.grid, prf=prf)
    obj = gaussian_signal(spec.center, 0.2, 3.0, 2.0, 0.5)
    rng = np.random.default_rng(1)
    for _ in range(12):
        ix, iy = rng.integers(15, 48, size=2)
        ref = prf_pixel_value(obj, 60.0, 5.0, (ix + 0.5, iy + 0.5),
                              spec.center)
        assert img[iy, ix] == pytest.approx(ref, rel=1e-6)


def test_signal_without_prf_has_object_peak():
    spec = SignalSpec(1, (64.5, 64.5), amplitude=80.0, width1=5.0,
                      width2=8.0, angle=-math.pi / 4)
    img = render_signal_image(spec, (128, 128))
    assert img[64, 64] == pytest.approx(80.0, rel=1e-6)


def test_gaussian_noise_std():
    rng = np.random.default_rng(2)
    img = apply_noise(np.zeros((1000, 1000)), NoiseModel.gaussian(20.0), rng)
    assert abs(img.std() - 20.0) / 20.0 < 0.01
    assert abs(img.mean()) < 3 * 20.0 / 1000.0


def test_laplacian_noise_std():
    rng = np.random.default_rng(3)
    c = 20.0 / math.sqrt(2.0)
    img = apply_noise(np.zeros((1000, 1000)), NoiseModel.laplacian(c), rng)
    assert abs(img.std() - 20.0) / 20.0 < 0.01


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("shape, bit_generator", [
    ((64, 64), np.random.PCG64),          # one image: one draw
    ((2, 64, 64), np.random.PCG64),
    ((65, 64, 64), np.random.PCG64),      # halves of 33 and 32 images
    ((7, 5, 3), np.random.PCG64DXSM),
    ((6, 8, 8), np.random.MT19937),
])
def test_laplacian_stack_noise_equals_one_draw(monkeypatch, cpus, shape,
                                               bit_generator):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    c = 20.0 / math.sqrt(2.0)
    img = np.random.default_rng(1).normal(0.0, 5.0, shape).astype(np.float32)
    rng, ref = (np.random.Generator(bit_generator(7)) for _ in range(2))
    for gen in (rng, ref):  # leaves a buffered 32-bit word in PCG64
        gen.integers(0, 5, dtype=np.uint32)
    got = apply_noise(img, NoiseModel.laplacian(c), rng)
    want = (img.astype(np.float64)
            + ref.laplace(0.0, c, size=shape)).astype(np.float32)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)
    # rng is left where one draw leaves it, buffered word included
    assert np.array_equal(rng.integers(0, 2 ** 32, 3, dtype=np.uint32),
                          ref.integers(0, 2 ** 32, 3, dtype=np.uint32))
    assert np.array_equal(rng.random(3), ref.random(3))


def test_laplacian_split_is_exact_under_a_short_switch_interval(
        tmp_path, monkeypatch):
    # the two threads draw their blocks into one dict and share the task;
    # switching threads every microsecond must not lose, reorder or mix a
    # block: 340 images are two pairs of 64-image blocks and a part
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    task = task_preset("bke_system1")
    labels = np.repeat(np.arange(task.J + 1), 34)
    reference_write_blocks(tmp_path / "ref.bin", task, labels, 4, "val-images")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            runner._write_blocks(
                tmp_path / "split.bin", task, labels, 4, "val-images",
                lambda block, rng: simulate_measurement(task, block, rng)[0])
            assert ((tmp_path / "split.bin").read_bytes()
                    == (tmp_path / "ref.bin").read_bytes())
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["gaussian", "poisson_gaussian"])
def test_gaussian_and_poisson_gaussian_stack_noise_equals_one_draw(kind):
    # a Poisson-Gaussian stack is all its Poisson values, then all its
    # Gaussian values, not the images' noise in turn; the larger stacks
    # cross several noise sub-blocks and end in a ragged one
    for shape in [(5, 8, 8), (37, 64, 64), (9, 128, 128)]:
        img = np.random.default_rng(1).uniform(-1.0, 50.0, shape)
        img = img.astype(np.float32)
        clean = img.copy()
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = apply_noise(img, NoiseModel(kind, 3.0), rng)
        if kind == "gaussian":
            want = img.astype(np.float64) + ref.normal(0.0, 3.0, img.shape)
        else:
            want = (ref.poisson(np.clip(img, 0.0, None))
                    + ref.normal(0.0, 3.0, img.shape))
        assert got.dtype == np.float32
        assert np.array_equal(got, want.astype(np.float32))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(img, clean)


@pytest.mark.parametrize("kind", ["laplacian", "gaussian",
                                  "poisson_gaussian"])
def test_apply_noise_holds_the_output_and_two_sub_blocks(kind):
    # a 64-image 64x64 block: the float32 output and at most two float64
    # noise sub-blocks, plus the int64 Poisson counts held between the two
    # draws, not the whole stack's noise in float64
    img = np.random.default_rng(2).uniform(0.0, 50.0, (64, 64, 64))
    img = img.astype(np.float32)
    bound = 4 * img.size + 2 * 8 * imaging._NOISE_PIXELS + 64 * 1024
    if kind == "poisson_gaussian":
        bound += 8 * img.size
    assert traced_peak(apply_noise, img, NoiseModel(kind, 3.0),
                       np.random.default_rng(3)) <= bound


def test_poisson_gaussian_variance():
    rng = np.random.default_rng(4)
    img = apply_noise(np.full((1000, 1000), 100.0),
                      NoiseModel.poisson_gaussian(20.0), rng)
    assert abs(img.var() - 500.0) / 500.0 < 0.02
    assert abs(img.mean() - 100.0) < 0.3


def test_poisson_gaussian_clamps_negative_rates():
    rng = np.random.default_rng(5)
    img = apply_noise(np.full((100, 100), -1e-6),
                      NoiseModel.poisson_gaussian(1.0), rng)
    assert np.isfinite(img).all()


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("cauchy", 1.0)
    with pytest.raises(ValueError):
        NoiseModel.gaussian(0.0)


@pytest.mark.parametrize("make, name", [
    (lambda: PrfSpec(math.nan, math.nan, (64, 64)), "height"),
    (lambda: PrfSpec(40.0, math.nan, (64, 64)), "width"),
    (lambda: PrfSpec(0.0, 1.5, (64, 64)), "height"),
    (lambda: PrfSpec(40.0, -1.5, (64, 64)), "width"),
    (lambda: NoiseModel("gaussian", math.nan), "scale"),
    (lambda: NoiseModel.laplacian(-1.0), "scale"),
])
def test_prf_and_noise_reject_nan_and_non_positive(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        make()


@pytest.mark.parametrize("grid", [(0, 64), (64, -3), (64.5, 64), (64,),
                                  [64, 64]])
def test_prf_rejects_a_grid_that_is_not_two_positive_ints(grid):
    with pytest.raises(ValueError, match="^grid must be two positive ints"):
        PrfSpec(1.0, 1.0, grid)


# sha256 of the images of simulate_measurement(task, label, rng) for labels
# 0..J in turn, then of the generator's end state, on rng [26, 7]; the MCMC
# pins and the acceptance and observer tests are built on these draws
SINGLE_IMAGE_SHA256 = {
    "bke_system1":
        "c22a8e2f690bc3065d40e3cdb718b1598d95d497000c43d66d930ee7d3cbac8e",
    "bke_system2":
        "0191f58ee60c192b77f02efd0cbd6b92a09beb906627e165dd1484c9d36d6bc7",
    "lb": "cefe92d5ff86adc44da6bc695c9e4da6e7a06d23cba3bb0e6ee94c0c17e565f9",
    "clb": "7d789d97a23399b5d6b29ee83d364fcb605e4a0c851171f50926ff330a37fa4c",
}


@pytest.mark.parametrize("preset", PRESETS)
def test_single_image_bytes_are_pinned(preset):
    task = task_preset(preset)
    rng = np.random.default_rng([26, 7])
    digest = hashlib.sha256()
    for label in range(task.J + 1):
        img, found = simulate_measurement(task, label, rng)
        assert found == label and img.shape == task.grid[::-1]
        digest.update(img.tobytes())
    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == SINGLE_IMAGE_SHA256[preset]


@pytest.mark.parametrize("label, message", [
    (1.5, "^labels must be ints, not float64$"),
    (True, "^labels must be ints, not bool$"),
    (np.array([0, 1.0]), "^labels must be ints, not float64$"),
    (np.array([False, True]), "^labels must be ints, not bool$"),
    (10, "^label 10 outside 0..9$"),
    (np.array([3, -1, 12]), "^label -1 outside 0..9$"),
])
def test_simulate_rejects_labels_that_are_not_ints_in_range(label, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        simulate_measurement(task_preset("bke_system1"), label, rng)


def test_simulate_bke_absent_is_pure_noise():
    task = task_preset("bke_system1")
    rng = np.random.default_rng(6)
    img, label = simulate_measurement(task, 0, rng)
    assert label == 0
    assert abs(img.mean()) < 3 * 20.0 / 64.0


def test_simulate_bke_mean_equals_signal():
    task = task_preset("bke_system1")
    rng = np.random.default_rng(7)
    n = 4000
    acc = np.zeros((64, 64))
    for _ in range(n):
        img, _ = simulate_measurement(task, 5, rng)
        acc += img
    mean = acc / n
    se = 20.0 / math.sqrt(n)
    diff = np.abs(mean - task.signal_images[4])
    assert diff.max() < 5 * se
    assert (diff < 3 * se).mean() > 0.985


def test_simulate_lb_mean_is_background_plus_signal():
    task = task_preset("lb")
    rng = np.random.default_rng(8)
    n = 1500
    acc = np.zeros((64, 64))
    acc_bg = np.zeros((64, 64))
    for _ in range(n):
        img, _ = simulate_measurement(task, 3, rng)
        acc += img
        acc_bg += task.sample_background(rng)
    diff = acc / n - acc_bg / n - task.signal_images[2]
    # background variability dominates the per-pixel standard error
    bg_std = 12.0  # empirical scale of the lumpy background
    se = math.sqrt(2.0) * math.sqrt(bg_std ** 2 + 400.0) / math.sqrt(n)
    assert (np.abs(diff) < 3 * se).mean() > 0.985
    assert np.abs(diff).max() < 6 * se


def test_lump_factors_match_reference_lump_image():
    # inside the field, on a pixel center, and outside it
    centers = [(20.3, 41.7), (31.5, 31.5), (-5.0, 69.0)]
    for prf in (LB_PRF, PrfSpec(height=40.0, width=1.5, grid=(64, 48))):
        w, h = prf.grid
        factors = lump_kernel(LB_PARAMS, prf)
        fy, fx = factors(np.array(centers))
        assert fy.dtype == fx.dtype == np.float64
        assert fy.shape == (3, h) and fx.shape == (3, w)
        for center, y, x in zip(centers, fy, fx):
            # the reference rounds dx^2 + dy^2 before its exp, a relative
            # error of up to eps (dx^2 + dy^2) / (2 var): 1.0e-14 at the
            # pixel farthest from (-5, 69)
            np.testing.assert_allclose(
                y[:, None] * x, reference_lump_image(center, LB_PARAMS, prf),
                rtol=2e-14, atol=0)
            # one (x, y) tuple gives the same bytes as its row
            one_y, one_x = factors(center)
            assert one_y.shape == (h,) and one_x.shape == (w,)
            assert one_y.tobytes() == y.tobytes()
            assert one_x.tobytes() == x.tobytes()
        fy, fx = factors(np.empty((0, 2)))
        assert fy.shape == (0, h) and fx.shape == (0, w)
    for bad in (np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            lump_kernel(LB_PARAMS, LB_PRF)(bad)


def test_pixel_grid_convention():
    X, Y = pixel_grid(3, 2)
    assert X.shape == (2, 3)
    assert X[0, 0] == 0.5 and X[0, 2] == 2.5
    assert Y[1, 0] == 1.5


def test_rendering_is_deterministic():
    real = LumpyRealization(np.array([(10.0, 12.0), (40.0, 30.0)]))
    a = render_lumpy_image(real, LB_PARAMS, LB_PRF)
    b = render_lumpy_image(real, LB_PARAMS, LB_PRF)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("count", [0, 1, 20])
def test_lumpy_render_equals_per_lump_reference(count):
    rng = np.random.default_rng(count)
    real = LumpyRealization(rng.uniform(-5.0, 69.0, size=(count, 2)))
    img = render_lumpy_image(real, LB_PARAMS, LB_PRF)
    ref = reference_render_lumpy_image(real, LB_PARAMS, LB_PRF)
    assert img.dtype == np.float32 and img.shape == (64, 64)
    np.testing.assert_array_equal(img, ref)


def test_lumpy_render_equals_reference_on_sampled_backgrounds():
    task = task_preset("lb")
    rng = np.random.default_rng(11)
    prf = PrfSpec(height=40.0, width=1.5, grid=(64, 48))  # not square
    for _ in range(30):
        real = sample_lumpy(task.lumpy, rng)
        for p in (task.prf, prf):
            np.testing.assert_array_equal(
                render_lumpy_image(real, task.lumpy, p),
                reference_render_lumpy_image(real, task.lumpy, p))


def _blobs(rng, count, fov):
    w, h = fov
    return ClbRealization([ClbCluster(
        np.array([w / 2.0, h / 2.0]),
        rng.normal(0.0, 12.0, size=(count, 2)),
        rng.uniform(0.0, 2.0 * math.pi, size=count))])


@pytest.mark.parametrize("count, fov", [
    (65, (128, 128)),     # crosses the 64-blob chunk boundary
    (3, (128, 37)),       # height not a multiple of the row tile
    (70, (40, 23)),       # narrow field: more rows per tile, ragged last tile
    (2, (700, 5)),        # wider than a tile: one row per tile
])
def test_clb_render_equals_whole_image_reference(count, fov):
    params = ClbParams(field_of_view=fov)
    real = _blobs(np.random.default_rng(count), count, fov)
    img = render_clb_image(real, params)
    assert img.dtype == np.float32 and img.shape == (fov[1], fov[0])
    ref = reference_render_clb_image(real, params)
    np.testing.assert_array_equal(img, ref)


@pytest.mark.parametrize("count, fov", [(200, (128, 128)), (3, (128, 37))])
def test_clb_render_is_the_same_on_one_and_two_cpus(monkeypatch, count,
                                                    fov):
    params = ClbParams(field_of_view=fov)
    real = _blobs(np.random.default_rng(count), count, fov)
    found = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        found.append(render_clb_image(real, params))
    np.testing.assert_array_equal(found[0], found[1])
    np.testing.assert_array_equal(found[1],
                                  reference_render_clb_image(real, params))


def test_clb_render_blob_at_pixel_center_equals_reference():
    params = ClbParams()
    real = ClbRealization([ClbCluster(np.array([40.5, 40.5]),
                                      np.array([[0.0, 0.0], [3.0, -2.0]]),
                                      np.array([0.3, 1.1]))])
    img = render_clb_image(real, params)
    ref = reference_render_clb_image(real, params)
    np.testing.assert_array_equal(img, ref)
    assert np.isfinite(img).all()


def _assert_within_one_ulp_of_hypot_reference(real, params):
    """The rendering within one float32 ulp of the ``hypot`` reference, the
    bound of the benchmark's clustered-lumpy oracle; prints how many pixels
    differ at all (``pytest -rP`` shows it)."""
    img = render_clb_image(real, params)
    ref = reference_render_clb_image(real, params)
    assert np.isfinite(img).all()
    np.testing.assert_array_max_ulp(img, ref, maxulp=1)
    print(f"{np.count_nonzero(img != ref)} of {img.size} pixels differ from "
          f"the hypot reference")


@pytest.mark.parametrize("beta, half_axes", [
    (0.3, (5.0, 2.0)), (1.0, (5.0, 2.0)), (1.7, (5.0, 2.0)),
    (0.5, (2.0, 5.0)),    # Lx < Ly
    (1.7, (2.0, 5.0)),
])
def test_clb_render_shapes_within_one_ulp_of_hypot_reference(beta,
                                                             half_axes):
    params = ClbParams(shape_beta=beta, half_axis_x=half_axes[0],
                       half_axis_y=half_axes[1], field_of_view=(96, 80))
    rng = np.random.default_rng(int(10 * beta))
    real = ClbRealization([
        ClbCluster(np.array([30.0, 40.0]), rng.normal(0.0, 12.0, (70, 2)),
                   rng.uniform(0.0, 2.0 * math.pi, 70)),
        ClbCluster(np.array([60.0, 20.0]), np.zeros((0, 2)), np.zeros(0)),
        ClbCluster(np.array([20.5, 30.5]),            # on a pixel center
                   np.array([[0.0, 0.0], [41.0, 9.0]]), np.array([0.4, 2.0])),
    ])
    _assert_within_one_ulp_of_hypot_reference(real, params)


def test_clb_render_sampled_within_one_ulp_of_hypot_reference():
    params = task_preset("clb").clb
    rng = np.random.default_rng(2024)
    for _ in range(5):
        _assert_within_one_ulp_of_hypot_reference(sample_clb(params, rng),
                                                  params)
