import math

import numpy as np
import pytest

from helpers import lroc_trapezoid_area
from scanobs.evaluation import (
    FomEstimate,
    alroc,
    auc,
    compare_systems,
    curve_to_csv,
    empirical_lroc,
    empirical_roc,
    report_to_csv,
)
from scanobs.observers import Records, records_to_csv


def _records(t, j_star, labels, binary=None):
    """Records with the given columns; the binary statistic defaults to t."""
    t = np.asarray(t, dtype=np.float64)
    binary = t if binary is None else np.asarray(binary, dtype=np.float64)
    return Records(t, np.asarray(j_star), np.asarray(labels),
                   np.repeat(t[:, None], 9, axis=1), binary)


def _synthetic(rng, n_sig, n_abs, shift=1.0, p_correct=0.8):
    t = [rng.normal() for _ in range(n_abs)]
    j_star = [1] * n_abs
    for _ in range(n_sig):
        correct = rng.random() < p_correct
        t.append(rng.normal(shift))
        j_star.append(1 if correct else 2)
    return _records(t, j_star, [0] * n_abs + [1] * n_sig)


def test_perfect_observer():
    records = _records([-1.0 - i for i in range(10)]
                       + [1.0 + i for i in range(10)],
                       [1] * 10 + [3] * 10, [0] * 10 + [3] * 10)
    assert alroc(records, n_bootstrap=50).value == 1.0
    assert auc(records, n_bootstrap=50).value == 1.0
    curve = empirical_lroc(records)
    assert lroc_trapezoid_area(curve) == pytest.approx(1.0)
    assert curve.pcl[-1] == 1.0 and curve.fpf[-1] == 1.0


def test_hopeless_observer():
    records = _records([1.0 + i for i in range(10)]
                       + [-1.0 - i for i in range(10)],
                       [1] * 10 + [2] * 10,  # always mislocalized too
                       [0] * 10 + [1] * 10)
    assert alroc(records, n_bootstrap=50).value == 0.0
    assert auc(records, n_bootstrap=50).value == 0.0


def test_guessing_observer_alroc_near_chance():
    # with exchangeable scores and uniform localization over 9 sites the
    # expected ALROC is (1/2) * (1/9) = 1/18
    rng = np.random.default_rng(0)
    n = 4000
    t = [rng.normal() for _ in range(n)]
    j_star = [1] * n
    for _ in range(n):
        t.append(rng.normal())
        j_star.append(rng.integers(1, 10))
    records = _records(t, j_star, [0] * n + [5] * n)
    est = alroc(records, n_bootstrap=10)
    assert abs(est.value - 1.0 / 18.0) < 3.0 * math.sqrt(0.5 / 9 / n)
    assert abs(auc(records, n_bootstrap=10).value - 0.5) < 0.03


def test_pairwise_equals_trapezoid():
    rng = np.random.default_rng(1)
    for trial in range(5):
        records = _synthetic(rng, 150, 120, shift=0.8)
        pair = alroc(records, n_bootstrap=10).value
        trap = lroc_trapezoid_area(empirical_lroc(records))
        # identical up to tie handling on the discrete grid
        assert pair == pytest.approx(trap, abs=1.0 / min(150, 120))


def test_roc_pairwise_equals_trapezoid():
    rng = np.random.default_rng(2)
    records = _synthetic(rng, 200, 180)
    pair = auc(records, n_bootstrap=10).value
    curve = empirical_roc(records)
    assert pair == pytest.approx(float(np.trapezoid(curve.pcl, curve.fpf)),
                                 abs=1.0 / 180)


def test_alroc_never_exceeds_auc():
    rng = np.random.default_rng(3)
    for trial in range(10):
        records = _synthetic(rng, 100, 100, shift=rng.uniform(0, 2),
                             p_correct=rng.uniform(0.2, 1.0))
        a = alroc(records, n_bootstrap=10).value
        b = auc(records, n_bootstrap=10).value
        assert a <= b + 1e-12


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    records = _synthetic(rng, 120, 120)
    mapped = Records(np.arctan(records.statistic) * 3.0 + 1.0,
                     records.chosen_location, records.true_label,
                     records.per_location,
                     np.arctan(records.binary_statistic))
    assert alroc(records, n_bootstrap=10).value == pytest.approx(
        alroc(mapped, n_bootstrap=10).value, abs=1e-12)
    assert auc(records, n_bootstrap=10).value == pytest.approx(
        auc(mapped, n_bootstrap=10).value, abs=1e-12)


def test_ties_get_half_credit():
    records = _records([0.0, 0.0], [1, 1], [0, 1])
    assert auc(records, n_bootstrap=10).value == 0.5
    assert alroc(records, n_bootstrap=10).value == 0.5
    records = _records([0.0, 0.0], [1, 2], [0, 1])  # tied but mislocalized
    assert alroc(records, n_bootstrap=10).value == 0.0


def test_bootstrap_se_tracks_monte_carlo_se():
    # the within-class bootstrap SE should approximate the sampling SD of
    # the ALROC over independent datasets
    rng = np.random.default_rng(5)
    values = []
    for _ in range(200):
        records = _synthetic(rng, 200, 200, shift=1.0, p_correct=0.85)
        values.append(alroc(records, n_bootstrap=10).value)
    mc_se = np.std(values, ddof=1)
    records = _synthetic(rng, 200, 200, shift=1.0, p_correct=0.85)
    boot_se = alroc(records, n_bootstrap=1000,
                    rng=np.random.default_rng(6)).std_error
    assert abs(boot_se - mc_se) / mc_se < 0.25


def test_bootstrap_reproducible_and_counted():
    rng = np.random.default_rng(7)
    records = _synthetic(rng, 80, 80)
    drawn = np.random.default_rng(8)
    a = alroc(records, n_bootstrap=200, rng=drawn)
    b = alroc(records, n_bootstrap=200, rng=np.random.default_rng(8))
    assert a.std_error == b.std_error
    assert a.std_error > 0
    # 200 replicates, each one absent and one present resample
    counted = np.random.default_rng(8)
    for _ in range(200):
        counted.integers(80, size=80)
        counted.integers(80, size=80)
    assert drawn.bit_generator.state == counted.bit_generator.state


def _sorting_bootstrap_se(t_abs, t_sig, correct, n_bootstrap, rng):
    """Bootstrap SE that resamples both classes and re-sorts the absent
    scores in every replicate."""
    vals = np.empty(n_bootstrap)
    for i in range(n_bootstrap):
        ia = rng.integers(len(t_abs), size=len(t_abs))
        isg = rng.integers(len(t_sig), size=len(t_sig))
        order = np.sort(t_abs[ia])
        n_lt = np.searchsorted(order, t_sig[isg], side="left")
        n_le = np.searchsorted(order, t_sig[isg], side="right")
        score = (n_lt + 0.5 * (n_le - n_lt)) * correct[isg]
        vals[i] = score.sum() / (len(t_sig) * len(t_abs))
    return float(vals.std(ddof=1))


def _tied_records(rng, n_abs, n_sig):
    """Integer-rounded scores, so most comparisons tie, and mixed
    localization."""
    t = np.round(np.concatenate((rng.normal(size=n_abs),
                                 rng.normal(0.7, size=n_sig))) * 2)
    labels = np.concatenate((np.zeros(n_abs, int),
                             rng.integers(1, 4, size=n_sig)))
    j_star = np.where(rng.random(n_abs + n_sig) < 0.6, labels, 4)
    j_star[:n_abs] = rng.integers(1, 4, size=n_abs)
    binary = np.round(t + rng.normal(size=len(t)))
    return _records(t, j_star, labels, binary)


@pytest.mark.parametrize("n_abs,n_sig", [(300, 900), (1, 50), (40, 1),
                                         (7, 7)])
def test_bootstrap_se_equals_sorting_reference(n_abs, n_sig):
    records = _tied_records(np.random.default_rng(n_abs + n_sig), n_abs,
                            n_sig)
    absent = records.true_label == 0
    correct = records.chosen_location[~absent] == records.true_label[~absent]
    assert 0 < correct.sum() < n_sig or n_sig == 1
    t, b = records.statistic, records.binary_statistic
    got = alroc(records, n_bootstrap=300, rng=np.random.default_rng(11))
    assert got.std_error == _sorting_bootstrap_se(
        t[absent], t[~absent], correct, 300, np.random.default_rng(11))
    got = auc(records, n_bootstrap=300, rng=np.random.default_rng(12))
    assert got.std_error == _sorting_bootstrap_se(
        b[absent], b[~absent], np.ones(n_sig, dtype=bool), 300,
        np.random.default_rng(12))


def test_requires_both_classes():
    with pytest.raises(ValueError):
        alroc(_records([0.0], [1], [0]))
    with pytest.raises(ValueError):
        auc(_records([0.0], [1], [1]))


def test_compare_systems_agree_and_disagree():
    def fom(v):
        return FomEstimate(v, 0.01)

    agree = compare_systems([("io", "s1", fom(0.8), fom(0.9)),
                             ("io", "s2", fom(0.6), fom(0.7))])
    assert agree["alroc_ranking"] == {"io": ["s1", "s2"]}
    assert agree["rankings_disagree"] == []

    flip = compare_systems([("io", "s1", fom(0.8), fom(0.7)),
                            ("io", "s2", fom(0.6), fom(0.9))])
    assert flip["alroc_ranking"] == {"io": ["s1", "s2"]}
    assert flip["auc_ranking"] == {"io": ["s2", "s1"]}
    assert flip["rankings_disagree"] == ["io"]

    with pytest.raises(ValueError):
        compare_systems([])
    with pytest.raises(ValueError):  # one system reported twice
        compare_systems([("io", "s1", fom(0.8), fom(0.9)),
                         ("io", "s1", fom(0.6), fom(0.7))])


def test_curve_csv(tmp_path):
    rng = np.random.default_rng(9)
    curve = empirical_lroc(_synthetic(rng, 30, 30))
    path = tmp_path / "curve.csv"
    curve_to_csv(path, curve)
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (len(curve.thresholds), 3)
    np.testing.assert_allclose(data[1:, 0], curve.thresholds[1:])
    np.testing.assert_allclose(data[:, 1], curve.fpf)


def test_records_and_report_writers_emit_exact_text(tmp_path):
    records = Records(np.array([0.5, -1.25]), np.array([2, 1]),
                      np.array([0, 2]),
                      np.array([[0.1, 0.5], [-1.25, -3.0]]),
                      np.array([0.1 + 0.2, 1e-20]))
    records_to_csv(tmp_path / "records.csv", records)
    assert (tmp_path / "records.csv").read_bytes() == (
        b"image_id,true_label,t,j_star,binary_statistic,lambda_1,lambda_2\r\n"
        b"0,0,0.5,2,0.30000000000000004,0.1,0.5\r\n"
        b"1,2,-1.25,1,1e-20,-1.25,-3.0\r\n")
    report_to_csv(tmp_path / "report.csv", [
        {"observer": "hotelling", "task": "lb_gaussian", "system": "lb",
         "alroc": 0.625, "alroc_se": 0.1 + 0.2, "auc": 0.75, "auc_se": 1e-3,
         "n_records": 90},
        {"observer": "mcmc_io", "task": "lb_gaussian", "system": "lb",
         "alroc": 1.0, "alroc_se": 0.0, "auc": 1.0, "auc_se": 0.0,
         "n_records": 10}])
    assert (tmp_path / "report.csv").read_bytes() == (
        b"observer,task,system,alroc,alroc_se,auc,auc_se,n_records\r\n"
        b"hotelling,lb_gaussian,lb,0.625,0.30000000000000004,0.75,0.001,90"
        b"\r\n"
        b"mcmc_io,lb_gaussian,lb,1.0,0.0,1.0,0.0,10\r\n")
