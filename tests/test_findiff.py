import numpy as np
import pytest

from fluxgrid import Grid2D, gen_affine, gradient_central
from fluxgrid.errors import TooSmallGridError
from fluxgrid.findiff import edge_lines_adjoint, line_gradient

from oracle import oracle_gradient, oracle_line_gradient_adjoint


def grid(values, dx=1.0, dy=1.0):
    return Grid2D.from_values(np.asarray(values, dtype=float), dx, dy)


def test_constant_field_all_zero():
    gf = gradient_central(grid(np.full((5, 5), 288.15)), eps=1e-6)
    for arr in (gf.gx, gf.gy, gf.mag, gf.ux, gf.uy):
        assert np.all(arr == 0.0)


def test_linear_x_interior_exact():
    g = gen_affine(5, 6, 2.5, 0.0, 0.0)
    gf = gradient_central(g, eps=1e-6)
    np.testing.assert_allclose(gf.gx, 2.5, rtol=1e-14)
    assert np.all(gf.gy == 0.0)
    np.testing.assert_allclose(gf.mag, 2.5, rtol=1e-14)


def test_unit_vector_on_linear_field():
    g = gen_affine(4, 5, 1.0, 0.0, 0.0)
    gf = gradient_central(g, eps=1e-8)
    np.testing.assert_allclose(gf.ux, 1.0 / (1.0 + 1e-8), rtol=1e-14)
    assert np.all(gf.uy == 0.0)


def test_diagonal_field_magnitude():
    g = gen_affine(5, 5, 1.0, 1.0, 0.0)
    gf = gradient_central(g, eps=1e-6)
    np.testing.assert_allclose(gf.mag, np.sqrt(2.0), rtol=1e-14)


def test_affine_exactness_everywhere():
    # one-sided first-order stencils are also exact on affine fields
    g = gen_affine(6, 7, 3.0, -4.0, 10.0, dx=0.5, dy=0.25)
    gf = gradient_central(g, eps=1e-6)
    np.testing.assert_allclose(gf.gx, 3.0, rtol=1e-12)
    np.testing.assert_allclose(gf.gy, -4.0, rtol=1e-12)


def test_second_order_convergence():
    def sample(h):
        n = int(round(2.0 / h))
        x = np.arange(n) * h
        y = np.arange(n) * h
        return grid(np.sin(x)[None, :] * np.cos(y)[:, None], dx=h, dy=h), x, y

    errs = []
    for h in (0.05, 0.025):
        g, x, y = sample(h)
        gf = gradient_central(g, eps=1e-6)
        exact = np.cos(x)[None, :] * np.cos(y)[:, None]
        errs.append(np.abs(gf.gx[1:-1, 1:-1] - exact[1:-1, 1:-1]).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_unit_vector_finite_at_zero_gradient():
    vals = np.zeros((4, 4))
    vals[1, 1] = 0.0  # flat field: mag = 0 everywhere
    gf = gradient_central(grid(vals), eps=1e-6)
    assert np.all(np.isfinite(gf.ux)) and np.all(np.isfinite(gf.uy))
    assert np.all(gf.ux ** 2 + gf.uy ** 2 <= 1.0 + 1e-15)


def test_translation_invariance_bitwise():
    # the shifted values must themselves be exact (integer grid, power-of-two
    # shift) for the difference stencils to cancel the constant bitwise
    rng = np.random.default_rng(7)
    vals_int = rng.integers(0, 64, size=(6, 6)).astype(float)
    a = gradient_central(grid(vals_int), eps=1e-6)
    b = gradient_central(grid(vals_int + 128.0), eps=1e-6)
    for x, y in ((a.gx, b.gx), (a.gy, b.gy), (a.mag, b.mag),
                 (a.ux, b.ux), (a.uy, b.uy)):
        assert np.array_equal(x, y)


def test_too_small_grid():
    with pytest.raises(TooSmallGridError):
        gradient_central(grid(np.zeros((1, 5))), eps=1e-6)


def test_bad_eps():
    with pytest.raises(ValueError):
        gradient_central(grid(np.zeros((3, 3))), eps=0.0)


def test_matches_loop_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        vals = rng.normal(size=(rng.integers(2, 9), rng.integers(2, 9)))
        dx, dy = rng.uniform(0.3, 2.0, size=2)
        gf = gradient_central(grid(vals, dx, dy), eps=1e-6)
        ogx, ogy, omag, oux, ouy = oracle_gradient(vals.tolist(), dx, dy, 1e-6)
        np.testing.assert_allclose(gf.gx, ogx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gf.gy, ogy, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gf.mag, omag, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gf.ux, oux, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gf.uy, ouy, rtol=1e-12, atol=1e-12)


# border lines, their neighbours and a repeated line
LINES = np.array([0, 0, 1, 3, 4, 6])


def test_line_gradient_bitwise_equals_gradient_central():
    vals = np.random.default_rng(17).normal(size=(7, 9))
    gf = gradient_central(grid(vals, dx=0.6, dy=1.7), eps=1e-6)
    t, g_along, g_normal = line_gradient(vals, LINES, 0, 0.6, 1.7)
    assert np.array_equal(t, vals[LINES])
    assert np.array_equal(g_along, gf.gx[LINES])
    assert np.array_equal(g_normal, gf.gy[LINES])
    t, g_along, g_normal = line_gradient(vals, LINES, 1, 1.7, 0.6)
    assert np.array_equal(t, vals[:, LINES])
    assert np.array_equal(g_along, gf.gy[:, LINES])
    assert np.array_equal(g_normal, gf.gx[:, LINES])


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("lines", [LINES, np.arange(7), np.repeat(np.arange(7), 2)])
def test_line_gradient_adjoint_is_transpose(axis, lines):
    # <J v, w> = <v, J^T w> for the linear map J: a -> line_gradient(a), with the
    # loop oracle's J^T, which serves as the reference for edge_lines_adjoint
    rng = np.random.default_rng(18)
    v = rng.normal(size=(7, 7))
    outputs = line_gradient(v, lines, axis, 0.6, 1.7)
    w = [rng.normal(size=x.shape) for x in outputs]
    acc = np.zeros((7, 7))
    oracle_line_gradient_adjoint(acc, lines, axis, w[0], w[1], w[2], 0.6, 1.7)
    lhs = sum(float(np.sum(x * y)) for x, y in zip(outputs, w))
    assert float(np.sum(v * acc)) == pytest.approx(lhs, rel=1e-12)


def edge_lines(n, cell):
    """Each of n cells' first and last line, cell by cell, as supergrid lists them."""
    return (np.arange(n)[:, None] * cell + [0, cell - 1]).ravel()


# cells 1, 2, 3, 5 and 16 pixels long; one cell spanning the grid; a side of 2 pixels
@pytest.mark.parametrize("n, cell, other", [
    (7, 1, 5), (4, 2, 6), (5, 3, 4), (3, 5, 7), (3, 16, 5), (1, 9, 3), (1, 2, 2), (2, 1, 3)])
@pytest.mark.parametrize("axis", [0, 1])
def test_edge_lines_adjoint_matches_the_loop_oracle(axis, n, cell, other):
    rng = np.random.default_rng(19)
    lines = edge_lines(n, cell)
    shape = (n * cell, other) if axis == 0 else (other, n * cell)
    outputs = line_gradient(rng.normal(size=shape), lines, axis, 0.6, 1.7)
    w = [rng.normal(size=x.shape) for x in outputs]
    want = rng.normal(size=shape)
    acc = want.copy()
    oracle_line_gradient_adjoint(want, lines, axis, w[0], w[1], w[2], 0.6, 1.7)
    edge_lines_adjoint(acc, lines, axis, w[0], w[1], w[2], 0.6, 1.7)
    np.testing.assert_allclose(acc, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
