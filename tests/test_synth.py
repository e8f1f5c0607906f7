import numpy as np
import pytest

from fluxgrid import (AdvDiffSpec, Grid2D, GrfSpec, gen_affine, gen_constant,
                      gen_grf, make_scenario, pde_loss, ralsd, step_advdiff)
from fluxgrid.errors import StabilityError


class TestAnalyticFields:
    def test_constant(self):
        g = gen_constant(4, 4, 288.15)
        assert np.all(g.values == 288.15)

    def test_affine_cell_centers(self):
        g = gen_affine(4, 4, 1.0, 0.0, 0.0)
        np.testing.assert_allclose(g.values[0], [0.5, 1.5, 2.5, 3.5])

    def test_affine_degenerates_to_constant(self):
        a = gen_affine(3, 5, 0.0, 0.0, 4.5)
        b = gen_constant(3, 5, 4.5)
        assert np.array_equal(a.values, b.values)


class TestGrf:
    def test_deterministic(self):
        a = gen_grf(GrfSpec(32, 32, -2.0, 99))
        b = gen_grf(GrfSpec(32, 32, -2.0, 99))
        assert np.array_equal(a.values, b.values)

    def test_zero_mean(self):
        g = gen_grf(GrfSpec(64, 32, -3.0, 5))
        assert abs(g.values.mean()) < 1e-12

    def test_amplitude_is_std(self):
        g = gen_grf(GrfSpec(32, 32, -2.0, 1, amplitude=4.0))
        assert g.values.std() == pytest.approx(4.0, rel=1e-12)

    def test_slope_closure(self):
        alphas = [ralsd(gen_grf(GrfSpec(128, 128, -3.0, s))).alpha for s in range(10)]
        assert np.mean(alphas) == pytest.approx(-3.0, abs=0.15)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GrfSpec(32, 32, 1.0, 0)
        with pytest.raises(ValueError):
            GrfSpec(8, 32, -2.0, 0)

    @pytest.mark.parametrize("field", ["target_slope", "amplitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_named(self, field, value):
        kwargs = {"target_slope": -2.0, "amplitude": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GrfSpec(32, 32, seed=0, **kwargs)


class TestStepper:
    @pytest.mark.parametrize("field", ["u_x", "u_y", "diffusivity", "dt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_field_named(self, field, value):
        kwargs = {"u_x": 0.0, "u_y": 0.0, "diffusivity": 0.1, "dt": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field}.* must be finite"):
            AdvDiffSpec(steps=1, initial=gen_constant(16, 16, 280.0), **kwargs)

    def test_equilibrium_constant(self):
        init = gen_constant(16, 16, 280.0)
        out = step_advdiff(AdvDiffSpec(0.0, 0.0, 0.1, 0.1, 50, init))
        np.testing.assert_allclose(out.values, 280.0, rtol=1e-13)

    def test_unit_cfl_exact_shift(self):
        rng = np.random.default_rng(4)
        init = Grid2D.from_values(rng.normal(size=(16, 16)))
        out = step_advdiff(AdvDiffSpec(1.0, 0.0, 0.0, 1.0, 1, init))
        assert np.array_equal(out.values, np.roll(init.values, 1, axis=1))

    def test_negative_velocity_shift(self):
        rng = np.random.default_rng(4)
        init = Grid2D.from_values(rng.normal(size=(16, 16)))
        out = step_advdiff(AdvDiffSpec(0.0, -1.0, 0.0, 1.0, 1, init))
        assert np.array_equal(out.values, np.roll(init.values, -1, axis=0))

    def test_heat_conservation_1000_steps(self):
        base = gen_grf(GrfSpec(32, 32, -2.5, 3))
        init = base.with_values(base.values + 288.15)
        out = step_advdiff(AdvDiffSpec(0.3, -0.2, 0.2, 0.1, 1000, init))
        drift = abs(out.values.sum() - init.values.sum()) / abs(init.values.sum())
        assert drift < 1e-8

    def test_diffusion_shrinks_variance(self):
        yy, xx = np.mgrid[0:32, 0:32]
        blob = np.exp(-((xx - 16.0) ** 2 + (yy - 16.0) ** 2) / 20.0)
        cur = Grid2D.from_values(blob)
        prev_var = cur.values.var()
        for _ in range(10):
            cur = step_advdiff(AdvDiffSpec(0.0, 0.0, 0.2, 0.1, 1, cur))
            assert cur.values.var() < prev_var
            prev_var = cur.values.var()

    def test_cfl_violation_names_both_numbers(self):
        init = gen_constant(8, 8, 1.0)
        with pytest.raises(StabilityError, match="advective CFL"):
            step_advdiff(AdvDiffSpec(3.0, 0.0, 0.0, 1.0, 1, init))
        with pytest.raises(StabilityError, match="diffusive CFL"):
            step_advdiff(AdvDiffSpec(0.0, 0.0, 1.0, 1.0, 1, init))


class TestMakeScenario:
    def test_zero_steps_is_initial(self):
        init = gen_grf(GrfSpec(16, 16, -2.0, 7))
        pair = make_scenario(AdvDiffSpec(0.1, 0.1, 0.05, 0.1, 0, init), 2)
        assert np.array_equal(pair.fine.values, init.values)
        assert (pair.coarse.height, pair.coarse.width) == (8, 8)

    def test_loss_finite_nonnegative(self):
        init = gen_grf(GrfSpec(16, 16, -2.0, 8))
        pair = make_scenario(AdvDiffSpec(0.2, 0.0, 0.1, 0.1, 20, init), 2)
        res = pde_loss(pair, pair.fine)
        assert np.isfinite(res.loss) and res.loss >= 0.0

    def test_transport_regimes_separate_fine_ratios(self):
        # empirical characterization: smoothing collapses the diffusive
        # flux (gradient magnitude) faster than the advective boundary
        # sum, so the diffusion-dominated run ends with the LARGER mean
        # per-cell |r_eff|; pure advection preserves the field statistics
        dif_wins = 0
        for seed in range(10):
            init = gen_grf(GrfSpec(32, 32, -2.5, 200 + seed))
            adv = make_scenario(AdvDiffSpec(1.0, 0.0, 0.0, 1.0, 10, init), 2)
            dif = make_scenario(AdvDiffSpec(0.0, 0.0, 0.1, 1.0, 10, init), 2)
            r_adv = np.abs(pde_loss(adv, adv.fine).fine_report.r_eff).mean()
            r_dif = np.abs(pde_loss(dif, dif.fine).fine_report.r_eff).mean()
            dif_wins += r_dif > r_adv
        assert dif_wins >= 8
