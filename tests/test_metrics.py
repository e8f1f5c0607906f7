import numpy as np
import pytest

from fluxgrid import Grid2D, bias, metric_report, pearson, r_squared, rmse
from fluxgrid.errors import DegenerateVarianceError, DimensionMismatchError

from oracle import oracle_bias, oracle_pearson, oracle_r_squared, oracle_rmse


def grid(values):
    return Grid2D.from_values(np.asarray(values, dtype=float))


PRED = grid([[1, 2], [3, 6]])
TRUTH = grid([[1, 2], [3, 4]])


class TestRmse:
    def test_identical_zero(self):
        assert rmse(TRUTH, TRUTH) == 0.0

    def test_hand_fixture(self):
        assert rmse(PRED, TRUTH) == pytest.approx(1.0, abs=1e-15)

    def test_constant_offset(self):
        shifted = grid(TRUTH.values - 2.5)
        assert rmse(shifted, TRUTH) == pytest.approx(2.5, rel=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rmse(PRED, grid(np.zeros((3, 2))))


class TestRSquared:
    def test_identical_one(self):
        assert r_squared(TRUTH, TRUTH) == 1.0

    def test_mean_prediction_zero(self):
        mean_pred = grid(np.full((2, 2), TRUTH.values.mean()))
        assert r_squared(mean_pred, TRUTH) == pytest.approx(0.0, abs=1e-14)

    def test_hand_fixture(self):
        assert r_squared(PRED, TRUTH) == pytest.approx(0.2, abs=1e-14)

    def test_constant_truth_raises(self):
        with pytest.raises(DegenerateVarianceError):
            r_squared(PRED, grid(np.full((2, 2), 1.0)))


class TestPearson:
    def test_identical_one(self):
        assert pearson(PRED, PRED) == pytest.approx(1.0, abs=1e-14)

    def test_anomaly_negation(self):
        negated = grid(2 * TRUTH.values.mean() - TRUTH.values)
        assert pearson(negated, TRUTH) == pytest.approx(-1.0, abs=1e-14)

    def test_affine_invariance(self):
        scaled = grid(3.0 * TRUTH.values + 7.0)
        assert pearson(scaled, TRUTH) == pytest.approx(1.0, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(DegenerateVarianceError, match="pred"):
            pearson(grid(np.ones((2, 2))), TRUTH)
        with pytest.raises(DegenerateVarianceError, match="truth"):
            pearson(PRED, grid(np.ones((2, 2))))

    def test_clamped(self):
        assert -1.0 <= pearson(PRED, TRUTH) <= 1.0


class TestBias:
    def test_identical_zero(self):
        assert bias(TRUTH, TRUTH) == 0.0

    def test_hand_fixture(self):
        assert bias(PRED, TRUTH) == pytest.approx(0.5, abs=1e-15)

    def test_constant_offset_exact(self):
        shifted = grid(TRUTH.values + 1.25)
        assert bias(shifted, TRUTH) == pytest.approx(1.25, rel=1e-15)


def test_rmse_squared_at_least_bias_squared():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = grid(rng.normal(size=(5, 7)))
        t = grid(rng.normal(size=(5, 7)))
        assert rmse(p, t) ** 2 >= bias(p, t) ** 2 - 1e-15


def test_r_squared_not_scale_invariant_but_pearson_is():
    rng = np.random.default_rng(19)
    p = grid(rng.normal(size=(6, 6)))
    t = grid(rng.normal(size=(6, 6)))
    p_scaled = grid(2.0 * p.values)
    assert pearson(p_scaled, t) == pytest.approx(pearson(p, t), abs=1e-12)
    assert r_squared(p_scaled, t) != pytest.approx(r_squared(p, t), abs=1e-6)


def test_matches_loop_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        h, w = rng.integers(2, 17, size=2)
        p = rng.normal(size=(h, w))
        t = rng.normal(size=(h, w))
        gp, gt = grid(p), grid(t)
        assert rmse(gp, gt) == pytest.approx(oracle_rmse(p.tolist(), t.tolist()), rel=1e-12)
        assert bias(gp, gt) == pytest.approx(oracle_bias(p.tolist(), t.tolist()), rel=1e-12, abs=1e-15)
        assert r_squared(gp, gt) == pytest.approx(oracle_r_squared(p.tolist(), t.tolist()), rel=1e-12)
        assert pearson(gp, gt) == pytest.approx(oracle_pearson(p.tolist(), t.tolist()), rel=1e-12, abs=1e-15)


def test_metric_report_bundle():
    rep = metric_report(PRED, TRUTH)
    assert rep.rmse == pytest.approx(1.0)
    assert rep.r2 == pytest.approx(0.2)
    assert rep.bias == pytest.approx(0.5)
    assert rep.n == 4
    assert rep.l_flux is None and rep.l_spec is None


@pytest.mark.parametrize("shape", [(2, 3), (17, 5), (256, 256)])
def test_metric_report_equals_the_four_functions(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    t = rng.normal(size=shape) + 3.0
    p = t + 0.3 * rng.normal(size=shape) - 0.1
    gp, gt = grid(p), grid(t)
    rep = metric_report(gp, gt)
    for got, func in ((rep.rmse, rmse), (rep.r2, r_squared), (rep.pcc, pearson),
                      (rep.bias, bias)):
        assert got == pytest.approx(func(gp, gt), rel=1e-12)
    # and the textbook formulas, one pass each
    d = p - t
    assert rep.rmse == pytest.approx(np.sqrt(np.mean(d * d)), rel=1e-12)
    assert rep.bias == pytest.approx(np.mean(d), rel=1e-12)
    assert rep.r2 == pytest.approx(1 - np.sum(d * d) / np.sum((t - t.mean()) ** 2), rel=1e-12)
    assert rep.pcc == pytest.approx(np.corrcoef(p.ravel(), t.ravel())[0, 1], rel=1e-12)
    assert rep.n == p.size


@pytest.mark.parametrize("constant", ["pred", "truth", "both"])
@pytest.mark.parametrize("value", [0.0, 1.0, -3.5, 0.1, -3.7])  # 0.1, -3.7: inexact means
def test_metric_report_raises_like_the_functions(constant, value):
    rng = np.random.default_rng(31)
    pair = {"pred": grid(rng.normal(size=(64, 48))), "truth": grid(rng.normal(size=(64, 48)))}
    keys = ["pred", "truth"] if constant == "both" else [constant]
    for key in keys:
        pair[key] = grid(np.full((64, 48), value))
    p, t = pair["pred"], pair["truth"]
    rmse(p, t), bias(p, t)  # never raise
    with pytest.raises(DegenerateVarianceError) as want:
        r_squared(p, t) if constant != "pred" else pearson(p, t)
    with pytest.raises(DegenerateVarianceError) as got:
        metric_report(p, t)
    assert str(got.value) == str(want.value)
