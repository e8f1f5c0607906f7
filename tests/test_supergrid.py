import tracemalloc

import numpy as np
import pytest

from fluxgrid import (Grid2D, GridPair, RefineConfig, build_partition, cell_fluxes,
                      choose_supergrid, coarsen_block_mean, gen_grf, GrfSpec,
                      make_pair, pde_loss, refine, upsample_quadratic)
from fluxgrid.errors import DimensionMismatchError
from fluxgrid import supergrid
from fluxgrid.supergrid import FluxRatioLoss

from oracle import oracle_cell_fluxes, oracle_pde_loss


def grid(values, dx=1.0, dy=1.0):
    return Grid2D.from_values(np.asarray(values, dtype=float), dx, dy)


class TestChooseSupergrid:
    def test_square_gcd(self):
        assert choose_supergrid(16, 16) == (1, 1)

    def test_rectangular(self):
        assert choose_supergrid(12, 8) == (3, 2)

    def test_coprime_single_cell(self):
        assert choose_supergrid(7, 5) == (7, 5)


def assert_matches_oracle(shape, cell, seed):
    """cell_fluxes equals the loop oracle, with and without anomaly."""
    vals = np.random.default_rng(seed).normal(size=shape)
    g = grid(vals, dx=0.7, dy=1.3)
    part = build_partition(g, *cell)
    for anomaly in (False, True):
        rep = cell_fluxes(g, part, eps=1e-6, anomaly=anomaly)
        want = oracle_cell_fluxes(vals.tolist(), 0.7, 1.3, *cell, 1e-6,
                                  anomaly=anomaly)
        for got, expected in zip((rep.phi_adv, rep.phi_diff, rep.r_eff), want):
            np.testing.assert_allclose(got.ravel(), expected, rtol=1e-10, atol=1e-14)
    return rep


class TestBuildPartition:
    def test_one_pixel_cells_match_oracle(self):
        # all four edges are the one pixel, counted once per edge with that
        # edge's normal, so the normals cancel
        rep = assert_matches_oracle((4, 6), (1, 1), seed=41)
        assert np.all(rep.phi_adv == 0.0)

    def test_one_row_cells_match_oracle(self):
        assert_matches_oracle((4, 6), (1, 3), seed=42)

    def test_one_column_cells_match_oracle(self):
        assert_matches_oracle((6, 4), (3, 1), seed=43)

    def test_whole_grid_cell_matches_oracle(self):
        rep = assert_matches_oracle((3, 5), (3, 5), seed=44)
        assert rep.r_eff.shape == (1, 1)

    def test_rectangular_cells(self):
        part = build_partition(grid(np.zeros((6, 4))), 3, 2)
        assert (part.n_rows, part.n_cols) == (2, 2)

    def test_non_divisible(self):
        with pytest.raises(DimensionMismatchError, match="height"):
            build_partition(grid(np.zeros((5, 4))), 2, 2)
        with pytest.raises(DimensionMismatchError, match="width"):
            build_partition(grid(np.zeros((4, 5))), 2, 2)


class TestCellFluxes:
    def test_constant_field(self):
        g = grid(np.full((4, 4), 5.0))
        rep = cell_fluxes(g, build_partition(g, 2, 2), eps=1e-6)
        assert np.all(rep.phi_adv == 0.0)
        assert np.all(rep.phi_diff == 0.0)
        assert np.all(rep.r_eff == 0.0)

    def test_negation_invariance(self):
        # T -> -T flips both T and the unit direction, so their product
        # (and the gradient magnitude) is unchanged
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(6, 6))
        g = grid(vals)
        neg = grid(-vals)
        part = build_partition(g, 3, 3)
        a = cell_fluxes(g, part, eps=1e-9)
        b = cell_fluxes(neg, part, eps=1e-9)
        np.testing.assert_allclose(b.phi_adv, a.phi_adv, rtol=1e-12)
        np.testing.assert_allclose(b.phi_diff, a.phi_diff, rtol=1e-12)
        np.testing.assert_allclose(b.r_eff, a.r_eff, rtol=1e-12)

    def test_single_cell_matches_oracle(self):
        vals = np.tile(np.arange(4.0), (4, 1))  # T(i,j) = j
        g = grid(vals)
        rep = cell_fluxes(g, build_partition(g, 4, 4), eps=1e-6)
        adv, diff, r = oracle_cell_fluxes(vals.tolist(), 1.0, 1.0, 4, 4, 1e-6)
        assert rep.phi_adv[0, 0] == pytest.approx(adv[0], rel=1e-12)
        assert rep.phi_diff[0, 0] == pytest.approx(diff[0], rel=1e-12)
        assert rep.r_eff[0, 0] == pytest.approx(r[0], rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(8, 8))
        g = grid(vals)
        g10 = grid(10.0 * vals)
        part = build_partition(g, 4, 4)
        a = cell_fluxes(g, part, eps=1e-12)
        b = cell_fluxes(g10, part, eps=1e-12)
        np.testing.assert_allclose(b.phi_adv, 10.0 * a.phi_adv, rtol=1e-6)
        np.testing.assert_allclose(b.phi_diff, 10.0 * a.phi_diff, rtol=1e-12)
        np.testing.assert_allclose(b.r_eff, a.r_eff, rtol=1e-6)

    def test_anomaly_mode_shift_invariant(self):
        rng = np.random.default_rng(15)
        vals = rng.normal(size=(6, 6))
        part = build_partition(grid(vals), 3, 3)
        a = cell_fluxes(grid(vals), part, eps=1e-8, anomaly=True)
        b = cell_fluxes(grid(vals + 250.0), part, eps=1e-8, anomaly=True)
        np.testing.assert_allclose(b.phi_adv, a.phi_adv, rtol=1e-6, atol=1e-9)

    def test_partition_grid_mismatch(self):
        part = build_partition(grid(np.zeros((4, 4))), 2, 2)
        with pytest.raises(DimensionMismatchError):
            cell_fluxes(grid(np.zeros((6, 6))), part, eps=1e-6)


class TestPdeLoss:
    def test_identity_pair_zero(self):
        rng = np.random.default_rng(1)
        f = grid(rng.normal(size=(6, 6)))
        pair = make_pair(f, 1, 1)
        res = pde_loss(pair, pair.coarse)
        assert res.loss == 0.0

    def test_constant_pair_zero(self):
        f = grid(np.full((8, 8), 281.0))
        pair = make_pair(f, 2, 2)
        res = pde_loss(pair, f)
        assert res.loss == 0.0
        assert res.n_cells == 16  # gcd(4,4)=4 -> 4x4 cells of 1x1

    def test_nearest_neighbor_upsample_matches_oracle(self):
        rng = np.random.default_rng(21)
        fine = grid(rng.normal(size=(8, 8)), dx=0.5, dy=0.5)
        pair = make_pair(fine, 2, 2)
        nn = np.kron(pair.coarse.values, np.ones((2, 2)))
        nn_grid = grid(nn, dx=0.5, dy=0.5)
        res = pde_loss(pair, nn_grid, eps=1e-6, cell_override=(2, 2))
        expected = oracle_pde_loss(pair.coarse.values.tolist(), 1.0, 1.0,
                                   nn.tolist(), 0.5, 0.5, 2, 2, 2, 2, 1e-6)
        assert res.loss == pytest.approx(expected, rel=1e-10)

    def test_loss_is_mean_of_cells(self):
        rng = np.random.default_rng(23)
        fine = grid(rng.normal(size=(12, 12)))
        pair = make_pair(fine, 2, 2)
        res = pde_loss(pair, fine)
        assert res.loss == pytest.approx(res.per_cell_sq_diff.mean(), rel=1e-15)
        assert res.loss >= 0.0

    def test_dim_mismatch_named_axis(self):
        fine = grid(np.zeros((8, 8)))
        pair = make_pair(fine, 2, 2)
        with pytest.raises(DimensionMismatchError, match="fine field"):
            pde_loss(pair, grid(np.zeros((8, 10))))

    def test_random_grids_match_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ch = int(rng.integers(1, 4))
            cw = int(rng.integers(1, 4))
            n_r = int(rng.integers(1, 4))
            n_c = int(rng.integers(1, 4))
            sy = int(rng.integers(1, 3))
            sx = int(rng.integers(1, 3))
            h, w = ch * n_r * sy, cw * n_c * sx
            if h < 2 or w < 2:
                continue
            fine = grid(rng.normal(size=(h, w)))
            pair = make_pair(fine, sy, sx)
            if pair.coarse.height < 2 or pair.coarse.width < 2:
                continue
            res = pde_loss(pair, fine, eps=1e-6, cell_override=(ch, cw))
            expected = oracle_pde_loss(
                pair.coarse.values.tolist(), pair.coarse.dx, pair.coarse.dy,
                fine.values.tolist(), 1.0, 1.0, ch, cw, sy, sx, 1e-6)
            assert res.loss == pytest.approx(expected, rel=1e-10, abs=1e-14)


class TestLocality:
    def test_pixel_off_the_edge_lines_does_not_enter(self):
        # fine cells are 8x8; (11, 19) is 3 and 4 pixels from the edge lines
        # of its cell (rows 8 and 15, columns 16 and 23), so neither the
        # loss nor the stencils on those lines read it
        rng = np.random.default_rng(71)
        fine = grid(rng.normal(size=(32, 32)), dx=0.5, dy=0.8)
        pair = make_pair(fine, 2, 2)
        bumped = fine.values.copy()
        bumped[11, 19] += 10.0
        bumped = grid(bumped, dx=0.5, dy=0.8)
        for anomaly in (False, True):
            a = pde_loss(pair, fine, cell_override=(4, 4), anomaly=anomaly)
            b = pde_loss(pair, bumped, cell_override=(4, 4), anomaly=anomaly)
            assert a.loss == b.loss
        loss = FluxRatioLoss(pair, cell_override=(4, 4))
        loss.forward(fine)
        g = loss.adjoint()
        assert g[11, 19] == 0.0
        assert np.all(g[10:14, 18:22] == 0.0)  # the whole 2-pixel interior core
        assert np.count_nonzero(g[8:16, 16:24]) > 0


class TestAdjointInto:
    @pytest.mark.parametrize("shape, scales, cell", [
        ((32, 32), (2, 2), (4, 4)),
        ((6, 6), (1, 1), (1, 1)),  # 1x1 fine cells
        ((6, 8), (1, 2), (1, 2)),  # 1x4 fine cells
        ((8, 6), (2, 1), (2, 1)),  # 4x1 fine cells
        ((6, 6), (2, 2), (1, 1)),  # 2x2 fine cells
        # 16-pixel-wide fine cells, H a multiple of 16 (padded column rows) or not
        ((64, 64), (4, 4), (4, 4)),
        ((40, 48), (4, 4), (5, 4)),
    ])
    def test_adds_scaled_gradient_into_out(self, shape, scales, cell):
        rng = np.random.default_rng(81)
        fine = grid(rng.normal(size=shape), dx=0.6, dy=1.7)
        pair = make_pair(grid(rng.normal(size=shape), dx=0.6, dy=1.7), *scales)
        pair = GridPair(pair.coarse, fine, *scales)
        loss = FluxRatioLoss(pair, cell_override=cell, ratio_eps=1e-3)
        loss.forward(fine)
        plain = loss.adjoint()
        buf0 = rng.normal(size=shape)
        buf = buf0.copy()
        got = loss.adjoint(out=buf, scale=-2.5)
        assert got is buf
        np.testing.assert_allclose(buf, buf0 - 2.5 * plain, rtol=1e-12,
                                   atol=1e-12 * np.abs(buf0).max())
        # the lines are left as they were: a second plain call agrees bitwise
        assert np.array_equal(loss.adjoint(), plain)
        if shape[0] % 16 == 0:  # the column rows' stride is an odd number of 64-byte lines
            assert loss._cols.strides[0] % 128 == 64

    def test_misuse_fails_before_touching_out(self):
        rng = np.random.default_rng(82)
        fine = grid(rng.normal(size=(32, 32)))
        loss = FluxRatioLoss(make_pair(fine, 2, 2), cell_override=(4, 4))
        with pytest.raises(ValueError, match="call forward first"):
            loss.adjoint()
        loss.forward(fine)
        out = np.ones((16, 16))
        with pytest.raises(DimensionMismatchError, match=r"\(16, 16\).*\(32, 32\)"):
            loss.adjoint(out)
        assert np.all(out == 1.0)


def flux_arrays(rep):
    return rep.phi_adv, rep.phi_diff, rep.r_eff


class TestBands:
    """The forward pass in bands of a few cell rows, the last one partial,
    against one band per call at the default size and the loop oracle."""

    # n_rows is odd in each case, so bands of 2 and 4 cell rows end on a partial band
    @pytest.mark.parametrize("shape, cell", [
        ((15, 12), (1, 1)), ((15, 16), (1, 4)), ((20, 6), (4, 1)), ((21, 20), (3, 4))])
    @pytest.mark.parametrize("rows", [1, 2, 4])  # cell rows per band
    def test_cell_fluxes_bitwise(self, monkeypatch, shape, cell, rows):
        vals = np.random.default_rng(91).normal(size=shape) + 280.0
        g = grid(vals, dx=0.7, dy=1.3)
        part = build_partition(g, *cell)
        want = {a: cell_fluxes(g, part, eps=1e-6, anomaly=a) for a in (False, True)}
        monkeypatch.setattr(supergrid, "BAND_ELEMS", rows * 2 * part.n_cols * max(cell))
        assert len(supergrid._line_tables(part)[0].t) == 2 * rows
        for anomaly in (False, True):
            rep = cell_fluxes(g, part, eps=1e-6, anomaly=anomaly)
            oracle = oracle_cell_fluxes(vals.tolist(), 0.7, 1.3, *cell, 1e-6, anomaly=anomaly)
            for got, same, expected in zip(flux_arrays(rep), flux_arrays(want[anomaly]), oracle):
                assert np.array_equal(got, same)
                np.testing.assert_allclose(got.ravel(), expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("anomaly", [False, True])
    @pytest.mark.parametrize("shape, scales, cell", [
        ((30, 24), (2, 2), (1, 2)),  # 2x4 fine cells
        ((15, 12), (1, 1), (1, 1)),  # 1x1
        ((15, 16), (1, 2), (1, 2)),  # 1x4
        ((20, 6), (2, 1), (2, 1)),  # 4x1
    ])
    def test_pde_loss_and_forward_bitwise(self, monkeypatch, shape, scales, cell, anomaly):
        rng = np.random.default_rng(92)
        fine = grid(rng.normal(size=shape), dx=0.6, dy=1.7)
        pair = GridPair(make_pair(grid(rng.normal(size=shape), dx=0.6, dy=1.7),
                                  *scales).coarse, fine, *scales)
        want = pde_loss(pair, fine, cell_override=cell, anomaly=anomaly)
        monkeypatch.setattr(supergrid, "BAND_ELEMS", 1)  # one cell row per band
        got = pde_loss(pair, fine, cell_override=cell, anomaly=anomaly)
        loss = FluxRatioLoss(pair, cell_override=cell, anomaly=anomaly)
        for res in (got, loss.forward(fine)):
            assert res.loss == want.loss
            assert np.array_equal(res.per_cell_sq_diff, want.per_cell_sq_diff)
            for a, b in zip(flux_arrays(res.fine_report), flux_arrays(want.fine_report)):
                assert np.array_equal(a, b)
        assert want.loss == pytest.approx(oracle_pde_loss(
            pair.coarse.values.tolist(), pair.coarse.dx, pair.coarse.dy,
            fine.values.tolist(), 0.6, 1.7, *cell, *scales, 1e-6, anomaly=anomaly),
            rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("shape, scales, cell", [
        ((30, 24), (2, 2), (1, 2)), ((15, 12), (1, 1), (1, 1)), ((20, 6), (2, 1), (2, 1))])
    def test_adjoint_keeps_whole_lines(self, monkeypatch, shape, scales, cell):
        # the first adjoint of a banded loss re-runs the forward pass on whole
        # lines, which later forward calls keep
        rng = np.random.default_rng(93)
        fields = [grid(rng.normal(size=shape), dx=0.6, dy=1.7) for _ in range(2)]
        pair = make_pair(grid(rng.normal(size=shape), dx=0.6, dy=1.7), *scales)
        pair = GridPair(pair.coarse, fields[0], *scales)
        whole = FluxRatioLoss(pair, cell_override=cell)
        monkeypatch.setattr(supergrid, "BAND_ELEMS", 1)
        banded = FluxRatioLoss(pair, cell_override=cell)
        for fine in fields:
            want = whole.forward(fine)
            assert banded.forward(fine).loss == want.loss
            assert np.array_equal(banded.adjoint(), whole.adjoint())
        assert banded._lines[0].t.shape == whole._lines[0].t.shape

    def test_pde_loss_peak_memory(self):
        # 512^2 with 4x4 fine cells: the band scratch, not full-size line arrays
        fine = grid(np.random.default_rng(94).normal(size=(512, 512)))
        pair = make_pair(fine, 4, 4)
        tracemalloc.start()
        try:
            pde_loss(pair, fine, cell_override=(1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * fine.values.nbytes

    def test_refine_peak_memory(self):
        # refine's own full-grid arrays (the gradient, two candidates and the
        # fidelity difference) plus the adjoint's whole lines and accumulators
        fine = grid(np.random.default_rng(95).normal(size=(256, 256)))
        pair = make_pair(fine, 4, 4)
        tracemalloc.start()
        try:
            refine(fine, pair.coarse, RefineConfig(max_iters=3, cell_override=(4, 4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.75 * fine.values.nbytes
