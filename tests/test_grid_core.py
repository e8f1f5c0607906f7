import numpy as np
import pytest

from fluxgrid import (Grid2D, coarsen_block_mean, gen_affine, make_pair,
                      upsample_quadratic)
from fluxgrid.errors import DimensionMismatchError
from fluxgrid.grid_core import _quad_weights_1d


def grid(values, dx=1.0, dy=1.0):
    return Grid2D.from_values(np.asarray(values, dtype=float), dx, dy)


class TestCoarsenBlockMean:
    def test_2x2_hand_mean(self):
        out = coarsen_block_mean(grid([[1, 3], [5, 7]]), 2, 2)
        assert out.values.tolist() == [[4.0]]
        assert out.height == out.width == 1

    def test_identity_scales(self):
        f = grid(np.arange(12.0).reshape(3, 4))
        out = coarsen_block_mean(f, 1, 1)
        assert np.array_equal(out.values, f.values)

    def test_constant_field(self):
        f = grid(np.full((6, 4), 3.25))
        out = coarsen_block_mean(f, 3, 2)
        assert np.all(out.values == 3.25)

    def test_spacings_scale(self):
        f = grid(np.zeros((6, 4)), dx=0.5, dy=2.0)
        out = coarsen_block_mean(f, 2, 2)
        assert out.dx == 1.0 and out.dy == 4.0

    def test_non_divisible_raises(self):
        with pytest.raises(DimensionMismatchError, match="5"):
            coarsen_block_mean(grid(np.zeros((5, 4))), 2, 2)
        with pytest.raises(DimensionMismatchError, match="3"):
            coarsen_block_mean(grid(np.zeros((4, 3))), 2, 2)

    def test_mean_preserved(self):
        rng = np.random.default_rng(0)
        f = grid(rng.normal(size=(12, 8)))
        out = coarsen_block_mean(f, 3, 2)
        assert out.values.mean() == pytest.approx(f.values.mean(), rel=1e-12)


class TestUpsampleQuadratic:
    def test_identity_scale_one(self):
        c = grid(np.arange(20.0).reshape(4, 5) ** 1.5)
        out = upsample_quadratic(c, 1, 1)
        assert np.array_equal(out.values, c.values)

    def test_constant_reproduced(self):
        c = grid(np.full((3, 3), 7.5))
        out = upsample_quadratic(c, 3, 2)
        np.testing.assert_allclose(out.values, 7.5, rtol=1e-14)

    def test_linear_row_on_line(self):
        # coarse row [0,1,2] at centers 0.5,1.5,2.5 (dx=1); fine centers
        # at 0.25,... (dx=0.5) must lie on the same line y = x - 0.5
        c = grid([[0.0, 1.0, 2.0]])
        out = upsample_quadratic(c, 1, 2)
        fine_x = (np.arange(6) + 0.5) * 0.5
        np.testing.assert_allclose(out.values[0], fine_x - 0.5, atol=1e-14)

    def test_quadratic_exact(self):
        x = (np.arange(6) + 0.5) * 2.0
        y = (np.arange(5) + 0.5) * 2.0
        c = grid(0.5 * x[None, :] ** 2 - y[:, None] ** 2 + x[None, :] * 3, dx=2, dy=2)
        out = upsample_quadratic(c, 2, 2)
        fx = (np.arange(12) + 0.5) * 1.0
        fy = (np.arange(10) + 0.5) * 1.0
        # quadratic without cross terms is reproduced exactly everywhere
        expected = 0.5 * fx[None, :] ** 2 - fy[:, None] ** 2 + fx[None, :] * 3
        np.testing.assert_allclose(out.values, expected, atol=1e-11)

    def test_dims_and_spacing(self):
        c = grid(np.zeros((4, 6)), dx=3.0, dy=2.0)
        out = upsample_quadratic(c, 2, 3)
        assert (out.height, out.width) == (8, 18)
        assert out.dx == 1.0 and out.dy == 1.0

    def test_roundtrip_degree_one(self):
        for a, b, c0 in ((0, 0, 4.0), (1.5, -2.0, 0.3)):
            c = gen_affine(6, 8, a, b, c0, dx=2.0, dy=2.0)
            rt = coarsen_block_mean(upsample_quadratic(c, 2, 2), 2, 2)
            np.testing.assert_allclose(rt.values, c.values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scales", [(1, 1), (2, 2), (3, 3), (4, 4), (1, 4), (3, 2)])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 3), (7, 7), (1, 7), (7, 2), (3, 1)])
    def test_bitwise_equal_to_a_fine_gather(self, dims, scales):
        # the same Lagrange sums, each fine sample gathering its own stencil
        c = grid(np.random.default_rng(dims[0] * 10 + dims[1]).normal(size=dims))
        want = c.values
        for axis, n, s in ((1, dims[1], scales[1]), (0, dims[0], scales[0])):
            idx, wts = _quad_weights_1d(n, s)
            wts = np.expand_dims(wts, 2 - axis)
            want = (np.take(want, idx[0], axis) * wts[0] + np.take(want, idx[1], axis) * wts[1]
                    + np.take(want, idx[2], axis) * wts[2])
        got = upsample_quadratic(c, *scales).values
        assert got.shape == (dims[0] * scales[0], dims[1] * scales[1])
        assert np.array_equal(got, want)

    def test_interior_roundtrip_identity(self):
        # block mean of the separable quadratic reconstruction equals the
        # sample plus (sigma^2/2) second differences per axis, exactly,
        # wherever the symmetric stencil applies
        rng = np.random.default_rng(3)
        for s in (2, 3, 4):
            c = grid(rng.normal(size=(8, 8)))
            rt = coarsen_block_mean(upsample_quadratic(c, s, s), s, s)
            t = (np.arange(s) + 0.5) / s - 0.5
            sig2 = (t ** 2).mean()
            v = c.values
            mx = v.copy()
            mx[:, 1:-1] += sig2 / 2 * (v[:, :-2] - 2 * v[:, 1:-1] + v[:, 2:])
            my = mx.copy()
            my[1:-1, :] += sig2 / 2 * (mx[:-2, :] - 2 * mx[1:-1, :] + mx[2:, :])
            np.testing.assert_allclose(rt.values[1:-1, 1:-1], my[1:-1, 1:-1],
                                       atol=1e-12)


class TestMakePair:
    def test_shapes(self):
        f = grid(np.zeros((4, 4)))
        pair = make_pair(f, 2, 2)
        assert (pair.coarse.height, pair.coarse.width) == (2, 2)

    def test_identity(self):
        f = grid(np.arange(16.0).reshape(4, 4))
        pair = make_pair(f, 1, 1)
        assert np.array_equal(pair.coarse.values, f.values)

    def test_rectangular(self):
        f = grid(np.zeros((6, 4)), dx=1.0, dy=1.0)
        pair = make_pair(f, 2, 2)
        assert (pair.coarse.height, pair.coarse.width) == (3, 2)
        assert pair.coarse.dx == 2.0 and pair.coarse.dy == 2.0


class TestGrid2D:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Grid2D(2, 3, 1.0, 1.0, np.zeros((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Grid2D.from_values(np.array([[1.0, np.nan]]))

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            Grid2D.from_values(np.zeros((2, 2)), dx=0.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf])
    def test_nonfinite_spacing(self, spacing):
        with pytest.raises(ValueError, match="finite"):
            Grid2D.from_values(np.zeros((2, 2)), dx=spacing)
        with pytest.raises(ValueError, match="finite"):
            Grid2D.from_values(np.zeros((2, 2)), dy=spacing)
