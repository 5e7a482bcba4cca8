import math

import numpy as np
import pytest

from helpers import reference_render_clb_image, reference_render_lumpy_image
from quadrature import gaussian_lump, gaussian_signal, prf_pixel_value
from scanobs.imaging import (
    NoiseModel,
    PrfSpec,
    apply_noise,
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
    sample_lumpy,
)
from scanobs.tasks import simulate_measurement, task_preset

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


def test_clb_render_blob_at_pixel_center_equals_reference():
    params = ClbParams()
    real = ClbRealization([ClbCluster(np.array([40.5, 40.5]),
                                      np.array([[0.0, 0.0], [3.0, -2.0]]),
                                      np.array([0.3, 1.1]))])
    img = render_clb_image(real, params)
    ref = reference_render_clb_image(real, params)
    np.testing.assert_array_equal(img, ref)
    assert np.isfinite(img).all()
