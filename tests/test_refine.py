import sys
from dataclasses import replace

import numpy as np
import pytest

from fluxgrid import (Grid2D, GridPair, GrfSpec, RefineConfig, coarsen_block_mean,
                      gen_constant, gen_grf, gradient, make_pair, objective,
                      pde_loss, refine)
from fluxgrid.errors import ConvergenceStallError, DimensionMismatchError
from fluxgrid.refine import _Objective
from fluxgrid.supergrid import FluxRatioLoss


def grid(values, dx=1.0, dy=1.0):
    return Grid2D.from_values(np.asarray(values, dtype=float), dx, dy)


def noisy_pair(seed, h=16, w=16, scale=2, noise=0.2):
    """Coarse truth plus a perturbed fine initial guess."""
    rng = np.random.default_rng(seed)
    truth = gen_grf(GrfSpec(h, w, -2.5, seed))
    coarse = coarsen_block_mean(truth, scale, scale)
    init = truth.with_values(truth.values + noise * rng.normal(size=(h, w)))
    return init, coarse


class TestConfig:
    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            RefineConfig(lambda_pde=-1.0)

    def test_bad_grad_mode(self):
        with pytest.raises(ValueError):
            RefineConfig(grad_mode="symbolic")

    def test_bad_step(self):
        with pytest.raises(ValueError):
            RefineConfig(step_size=0.0)

    @pytest.mark.parametrize("field,value", [
        ("lambda_pde", float("nan")), ("lambda_pde", float("inf")), ("tol", float("nan")),
        ("tol", -1e-9), ("step_size", float("nan")), ("step_size", float("inf")),
        ("fd_h", float("nan")), ("fd_h", 0.0), ("max_iters", -3)])
    def test_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RefineConfig(**{field: value})

    def test_zero_lambda_and_tol_accepted(self):
        RefineConfig(lambda_pde=0.0, tol=0.0)


class TestObjective:
    def test_decomposition(self):
        init, coarse = noisy_pair(0)
        cfg = RefineConfig(lambda_pde=3.0, normalize_pde=False)
        total, fid, pde = objective(init, init, coarse, cfg)
        assert total == pytest.approx(fid + 3.0 * pde, rel=1e-12)
        assert fid == 0.0

    def test_fidelity_is_mean_square(self):
        init, coarse = noisy_pair(1)
        bumped = init.with_values(init.values + 0.5)
        cfg = RefineConfig(lambda_pde=0.0)
        total, fid, _ = objective(bumped, init, coarse, cfg)
        assert fid == pytest.approx(0.25, rel=1e-12)
        assert total == fid

    def test_pde_term_matches_loss(self):
        init, coarse = noisy_pair(2)
        cfg = RefineConfig(lambda_pde=1.0, normalize_pde=False)
        _, _, pde = objective(init, init, coarse, cfg)
        pair = make_pair(init, 2, 2)
        pair = type(pair)(coarse, init, 2, 2)
        assert pde == pytest.approx(pde_loss(pair, init, eps=cfg.eps).loss,
                                    rel=1e-14)

    def test_dims_must_nest(self):
        init, _ = noisy_pair(3)
        bad_coarse = grid(np.zeros((5, 5)))
        with pytest.raises(DimensionMismatchError):
            objective(init, init, bad_coarse, RefineConfig())

    @pytest.mark.parametrize("evaluate", [objective, gradient])
    def test_init_dims_must_match_the_field(self, evaluate):
        fine, coarse = noisy_pair(3)
        init = grid(np.zeros((16, 12)))
        with pytest.raises(DimensionMismatchError, match="init is 16x12, fine field is 16x16"):
            evaluate(fine, init, coarse, RefineConfig())


class TestGradient:
    def test_lambda_zero_exact(self):
        init, coarse = noisy_pair(4)
        shifted = init.with_values(init.values + 1.0)
        cfg = RefineConfig(lambda_pde=0.0)
        g = gradient(shifted, init, coarse, cfg)
        np.testing.assert_allclose(g, 2.0 / init.values.size, rtol=1e-13)

    def test_constant_field_stationary(self):
        const = gen_constant(8, 8, 280.0)
        coarse = coarsen_block_mean(const, 2, 2)
        cfg = RefineConfig(lambda_pde=1.0, normalize_pde=False)
        g = gradient(const, const, coarse, cfg)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_analytic_matches_numeric(self):
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            fine = grid(rng.normal(size=(8, 8)))
            init = grid(rng.normal(size=(8, 8)))
            coarse = coarsen_block_mean(fine, 2, 2)
            cfg_a = RefineConfig(lambda_pde=0.7, normalize_pde=False)
            cfg_n = RefineConfig(lambda_pde=0.7, normalize_pde=False,
                                 grad_mode="numeric_central")
            g_a = gradient(fine, init, coarse, cfg_a)
            g_n = gradient(fine, init, coarse, cfg_n)
            scale = np.abs(g_n).max()
            assert np.abs(g_a - g_n).max() / scale < 1e-4

    @pytest.mark.parametrize("fine_shape, scales, cell", [
        ((6, 6), (1, 1), (1, 1)),  # 1x1 fine cells
        ((6, 8), (1, 2), (1, 2)),  # 1x4 fine cells
        ((8, 6), (2, 1), (2, 1)),  # 4x1 fine cells
        # cells of 2: the lines' clipped neighbours repeat (np.add.at in the adjoint)
        ((6, 6), (2, 2), (1, 1)),  # 2x2 fine cells
        ((6, 6), (2, 3), (1, 1)),  # 2x3 fine cells
        ((6, 6), (3, 2), (1, 1)),  # 3x2 fine cells
    ])
    def test_analytic_matches_numeric_thin_cells(self, fine_shape, scales, cell):
        rng = np.random.default_rng(60)
        fine = grid(rng.normal(size=fine_shape), dx=0.6, dy=1.7)
        init = grid(rng.normal(size=fine_shape), dx=0.6, dy=1.7)
        coarse = coarsen_block_mean(grid(rng.normal(size=fine_shape), dx=0.6, dy=1.7),
                                    *scales)
        kwargs = dict(lambda_pde=0.9, normalize_pde=False, cell_override=cell,
                      ratio_eps=1e-3)
        g_a = gradient(fine, init, coarse, RefineConfig(**kwargs))
        g_n = gradient(fine, init, coarse,
                       RefineConfig(grad_mode="numeric_central", **kwargs))
        assert np.abs(g_a - g_n).max() / np.abs(g_n).max() < 1e-4

    def test_directional_derivative_512(self):
        init, coarse = noisy_pair(12, h=512, w=512, scale=4, noise=0.05)
        fine = init.with_values(init.values + 0.02 * np.random.default_rng(13)
                                .normal(size=(512, 512)))
        cfg = RefineConfig(lambda_pde=50.0, normalize_pde=False, cell_override=(4, 4))
        v = np.random.default_rng(14).normal(size=(512, 512))
        # the ratio is strongly curved here; h = 1e-4 already costs 7e-4 rel
        h = 1e-6
        j_plus = objective(fine.with_values(fine.values + h * v), init, coarse, cfg)[0]
        j_minus = objective(fine.with_values(fine.values - h * v), init, coarse, cfg)[0]
        numeric = (j_plus - j_minus) / (2.0 * h)
        analytic = float(np.sum(gradient(fine, init, coarse, cfg) * v))
        assert analytic == pytest.approx(numeric, rel=1e-6)


class TestRefine:
    def test_objective_monotone_nonincreasing(self):
        init, coarse = noisy_pair(5)
        cfg = RefineConfig(lambda_pde=1.0, max_iters=15)
        trace = refine(init, coarse, cfg)
        obj = np.array(trace.objective)
        assert np.all(np.diff(obj) <= 0.0)
        assert trace.final_field is not None

    def test_trace_lengths_consistent(self):
        init, coarse = noisy_pair(6)
        trace = refine(init, coarse, RefineConfig(max_iters=10))
        n = len(trace.objective)
        assert len(trace.fidelity) == n and len(trace.pde) == n
        assert n >= 1
        assert trace.iters_run <= 10

    def test_lambda_zero_stays_at_init(self):
        init, coarse = noisy_pair(7)
        trace = refine(init, coarse, RefineConfig(lambda_pde=0.0, max_iters=5))
        # init is the fidelity minimizer, so the first gradient vanishes
        assert trace.converged
        assert np.array_equal(trace.final_field.values, init.values)

    def test_pde_decreases_on_noisy_scenario(self):
        init, coarse = noisy_pair(8, h=32, w=32, scale=4)
        cfg = RefineConfig(lambda_pde=1.0, max_iters=20, cell_override=(4, 4))
        trace = refine(init, coarse, cfg)
        assert trace.pde[-1] < trace.pde[0]

    def test_normalization_scales_lambda(self):
        init, coarse = noisy_pair(9)
        cfg = RefineConfig(lambda_pde=2.0, max_iters=1)
        trace = refine(init, coarse, cfg)
        assert trace.pde[0] > 0
        assert trace.lambda_used == pytest.approx(2.0 / trace.pde[0], rel=1e-12)

    def test_unnormalized_lambda_passthrough(self):
        init, coarse = noisy_pair(10)
        cfg = RefineConfig(lambda_pde=0.5, normalize_pde=False, max_iters=1)
        trace = refine(init, coarse, cfg)
        assert trace.lambda_used == 0.5

    def test_trace_matches_public_objective(self):
        init, coarse = noisy_pair(13, h=32, w=32, scale=4)
        cfg = RefineConfig(lambda_pde=1.0, max_iters=5, cell_override=(2, 2))
        trace = refine(init, coarse, cfg)
        public = replace(cfg, lambda_pde=trace.lambda_used, normalize_pde=False)
        for k, field in ((0, init), (-1, trace.final_field)):
            want = objective(field, init, coarse, public)
            got = (trace.objective[k], trace.fidelity[k], trace.pde[k])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_stall_carries_trace(self):
        init, coarse = noisy_pair(11)
        # a constant-zero gradient never stalls, so force one by refusing
        # the objective any room to descend: tol huge doesn't stall, but a
        # numeric gradient with an enormous fd_h gives a bogus direction
        cfg = RefineConfig(lambda_pde=1.0, grad_mode="numeric_central",
                           fd_h=1e3, step_size=1e-20, max_iters=3,
                           normalize_pde=False)
        try:
            trace = refine(init, coarse, cfg)
        except ConvergenceStallError as exc:
            assert exc.trace is not None
            assert len(exc.trace.objective) >= 1
            assert exc.trace.final_field is not None
        else:
            # descent succeeded anyway; the trace must still be coherent
            assert trace.final_field is not None


class TestNumericPath:
    """The numeric_central gradient is a central-difference loop over the
    public objective, also inside refine with a normalized lambda."""

    def test_gradient_is_a_loop_over_objective(self):
        rng = np.random.default_rng(90)
        fine, init = grid(rng.normal(size=(8, 8))), grid(rng.normal(size=(8, 8)))
        coarse = coarsen_block_mean(grid(rng.normal(size=(8, 8))), 2, 2)
        cfg = RefineConfig(lambda_pde=0.7, normalize_pde=False,
                           grad_mode="numeric_central")
        want = np.zeros((8, 8))
        for idx in np.ndindex(want.shape):
            vals = fine.values.copy()
            vals[idx] = fine.values[idx] + cfg.fd_h
            j_plus = objective(fine.with_values(vals), init, coarse, cfg)[0]
            vals[idx] = fine.values[idx] - cfg.fd_h
            j_minus = objective(fine.with_values(vals), init, coarse, cfg)[0]
            want[idx] = (j_plus - j_minus) / (2.0 * cfg.fd_h)
        got = gradient(fine, init, coarse, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_gradient_builds_one_loss(self, monkeypatch):
        built = []
        for module in (sys.modules["fluxgrid.refine"], sys.modules["fluxgrid.supergrid"]):
            class Counting(module.FluxRatioLoss):
                def __init__(self, *args, **kwargs):
                    built.append(1)
                    super().__init__(*args, **kwargs)
            monkeypatch.setattr(module, "FluxRatioLoss", Counting)
        rng = np.random.default_rng(91)
        init = grid(rng.normal(size=(8, 8)))
        coarse = coarsen_block_mean(grid(rng.normal(size=(8, 8))), 2, 2)
        gradient(init, init, coarse, RefineConfig(grad_mode="numeric_central"))
        assert len(built) == 1

    def test_refine_first_step_with_normalized_lambda(self):
        rng = np.random.default_rng(92)
        init = grid(rng.normal(size=(8, 8)))
        coarse = coarsen_block_mean(grid(rng.normal(size=(8, 8))), 2, 2)
        cfg = RefineConfig(lambda_pde=1.0, max_iters=1, grad_mode="numeric_central")
        trace = refine(init, coarse, cfg)
        pde0 = objective(init, init, coarse, cfg)[2]
        assert trace.lambda_used == pytest.approx(1.0 / pde0, rel=1e-12)
        assert trace.lambda_used != 1.0

        public = replace(cfg, lambda_pde=trace.lambda_used, normalize_pde=False)
        j0 = objective(init, init, coarse, public)
        grad = gradient(init, init, coarse, public)
        step = cfg.step_size
        for _ in range(31):
            cand = init.with_values(init.values - step * grad)
            got = objective(cand, init, coarse, public)
            if got[0] < j0[0]:
                break
            step *= 0.5
        else:
            pytest.fail("the public loop stalled")
        assert trace.iters_run == 1 and len(trace.objective) == 2
        assert (trace.objective[1], trace.fidelity[1], trace.pde[1]) == \
            pytest.approx(got, rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(trace.final_field.values, cand.values, rtol=1e-12,
                                   atol=1e-12 * np.abs(cand.values).max())


def public_objective(fine, init, coarse, cfg):
    return objective(fine, init, coarse, cfg)[0]


class TestBuffers:
    """refine reuses its work arrays; the fields it hands out must not move."""

    def test_init_values_unchanged(self):
        init, coarse = noisy_pair(14, h=32, w=32, scale=4)
        before = init.values.copy()
        refine(init, coarse, RefineConfig(max_iters=6, cell_override=(2, 2)))
        assert np.array_equal(init.values, before)

    def test_final_field_survives_a_later_call(self):
        init, coarse = noisy_pair(15, h=32, w=32, scale=4)
        cfg = RefineConfig(max_iters=5, cell_override=(2, 2))
        first = refine(init, coarse, cfg)
        kept = first.final_field.values.copy()
        refine(init, coarse, replace(cfg, max_iters=7))
        refine(first.final_field, coarse, cfg)
        assert np.array_equal(first.final_field.values, kept)

    def test_analytic_gradient_takes_the_last_evaluation(self):
        # the fidelity gradient reuses the last evaluation's T - T_init, so
        # after evaluating at a and then b it is b's, not a's
        init, coarse = noisy_pair(17, h=32, w=32, scale=4)
        rng = np.random.default_rng(18)
        a, b = (init.with_values(init.values + 0.1 * rng.normal(size=(32, 32)))
                for _ in range(2))
        obj = _Objective(init, init, coarse, RefineConfig(lambda_pde=0.8, cell_override=(2, 2)))
        obj(a)
        obj(b)
        got = obj.gradient_into(np.empty((32, 32)), b)
        want = (b.values - init.values) * (2.0 / b.values.size)
        loss = FluxRatioLoss(GridPair.from_grids(coarse, init), cell_override=(2, 2))
        loss.forward(b)
        assert np.array_equal(got, loss.adjoint(want, scale=obj.lam))

    def test_stall_keeps_last_accepted_field(self):
        # step 1e10 is accepted after halvings for a while, then 30
        # halvings no longer reach a descent step; every rejected candidate
        # is written into a work buffer, never into the accepted field
        init, coarse = noisy_pair(0)
        before = init.values.copy()
        cfg = RefineConfig(lambda_pde=1.0, step_size=1e10, tol=0.0, max_iters=200)
        with pytest.raises(ConvergenceStallError) as info:
            refine(init, coarse, cfg)
        trace = info.value.trace
        assert len(trace.objective) >= 2  # at least one accepted step
        public = replace(cfg, lambda_pde=trace.lambda_used, normalize_pde=False)
        assert public_objective(trace.final_field, init, coarse, public) == \
            pytest.approx(trace.objective[-1], rel=1e-12)
        assert np.array_equal(init.values, before)


def test_trace_matches_plain_loop_oracle():
    """refine's 10-iteration trace against a loop over the public objective
    and gradient with the same rule: step_size halved up to 30 times until
    the objective falls, stop on a relative drop below tol."""
    init, coarse = noisy_pair(16, h=128, w=128, scale=4)
    cfg = RefineConfig(lambda_pde=1.0, max_iters=10, cell_override=(4, 4))
    trace = refine(init, coarse, cfg)

    pde0 = objective(init, init, coarse, replace(cfg, normalize_pde=False))[2]
    public = replace(cfg, lambda_pde=1.0 / pde0, normalize_pde=False)
    current = init
    want = [objective(init, init, coarse, public)]
    for _ in range(cfg.max_iters):
        grad = gradient(current, init, coarse, public)
        if np.abs(grad).max() < 1e-15:
            break
        step = cfg.step_size
        for _ in range(31):
            cand = current.with_values(current.values - step * grad)
            got = objective(cand, init, coarse, public)
            if got[0] < want[-1][0]:
                break
            step *= 0.5
        else:
            pytest.fail("the oracle loop stalled")
        rel_drop = (want[-1][0] - got[0]) / abs(want[-1][0])
        current = cand
        want.append(got)
        if rel_drop < cfg.tol:
            break

    assert trace.lambda_used == pytest.approx(public.lambda_pde, rel=1e-12)
    assert trace.iters_run == len(want) - 1
    got = list(zip(trace.objective, trace.fidelity, trace.pde))
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert row == pytest.approx(expected, rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(trace.final_field.values, current.values, rtol=1e-12,
                               atol=1e-12 * np.abs(current.values).max())
