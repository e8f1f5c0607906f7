"""Central-difference derivatives and the stabilized gradient unit vector.

Interior points use second-order centered stencils; boundary rows and
columns fall back to first-order one-sided differences (regional tiles
are not periodic). The unit vector is stabilized by a small epsilon in
the denominator so it stays finite where the gradient vanishes.
line_gradient takes the same derivatives on chosen rows or columns only,
and edge_lines_adjoint back-propagates through them where they are the
first and last lines of equal cells.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TooSmallGridError

DEFAULT_EPS = 1e-6


@dataclass
class GradientField:
    """Per-pixel gradient components, magnitude, and stabilized direction."""

    gx: np.ndarray
    gy: np.ndarray
    mag: np.ndarray
    ux: np.ndarray
    uy: np.ndarray


def check_stabilizer(name, value):
    """value, if it is finite and > 0; else raise."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def check_gradient_input(grid, eps):
    """Raise unless eps is finite and > 0 and the grid is at least 2x2."""
    check_stabilizer("eps", eps)
    if grid.height < 2 or grid.width < 2:
        raise TooSmallGridError(
            f"gradient needs at least 2x2, got {grid.height}x{grid.width}")


def _diff_axis(values, spacing, axis, out=None):
    """Centered differences along one axis, one-sided first order at the ends."""
    v = values if axis else values.T
    d = np.empty_like(v) if out is None else out if axis else out.T
    np.subtract(v[:, 2:], v[:, :-2], out=d[:, 1:-1])  # in place: no full-size temporaries
    d[:, 1:-1] /= 2.0 * spacing
    d[:, 0] = (v[:, 1] - v[:, 0]) / spacing
    d[:, -1] = (v[:, -1] - v[:, -2]) / spacing
    return d if axis else d.T


def _diff_axis_adjoint(g, spacing, axis, out):
    """Add the adjoint of _diff_axis(., spacing, axis), applied to g, to out."""
    g, out = (g, out) if axis else (g.T, out.T)
    inner = g[:, 1:-1] / (2.0 * spacing)
    out[:, 2:] += inner
    out[:, :-2] -= inner
    out[:, 1] += g[:, 0] / spacing
    out[:, 0] -= g[:, 0] / spacing
    out[:, -1] += g[:, -1] / spacing
    out[:, -2] -= g[:, -1] / spacing


def _neighbours(lines, n):
    """The lines either side of each line, clipped to [0, n - 1]."""
    return np.maximum(lines - 1, 0), np.minimum(lines + 1, n - 1)


def line_gradient(a, lines, axis, d_along, d_normal, out=(None, None, None)):
    """Some lines of a 2-D array and its derivatives along and across them.

    lines indexes a along axis: rows for axis 0, columns for axis 1. The
    stencils are gradient_central's, bitwise: across a line, (a[hi] -
    a[lo]) / ((hi - lo) * d_normal) is centered inside and one-sided at
    the border. Returns (t, g_along, g_normal), each shaped like the lines,
    in the arrays of out where given (take's mode="clip" fills them unbuffered).
    """
    lo, hi = _neighbours(lines, a.shape[axis])
    g_normal = np.take(a, hi, axis, out=out[2], mode="clip")
    g_normal -= np.take(a, lo, axis, out=out[0], mode="clip")  # out[0] is scratch here
    g_normal /= np.expand_dims((hi - lo) * d_normal, 1 - axis)
    t = np.take(a, lines, axis, out=out[0], mode="clip")
    return t, _diff_axis(t, d_along, 1 - axis, out[1]), g_normal


def edge_lines_adjoint(acc, lines, axis, g_t, g_along, g_normal, d_along, d_normal):
    """Add to acc the gradient with respect to a of a function of
    line_gradient(a, lines, axis, d_along, d_normal), given its gradients
    (g_t, g_along, g_normal) with respect to the three outputs, where lines are
    each cell's first and last line, cell by cell, of cells lines[1] + 1 long
    along axis. g_t is overwritten. The line before a cell's first line is the
    last line of the cell before, and the one after its last line the first of
    the cell after, so g_t takes their terms, and at the grid's first and last
    line (two entries each where one-pixel-thin cells list it twice) those of the
    neighbour clipped onto it; g_t and the other two add into acc through strided views."""
    _diff_axis_adjoint(g_along, d_along, 1 - axis, g_t)
    lo, hi = _neighbours(lines, acc.shape[axis])
    g = g_normal / np.expand_dims((hi - lo) * d_normal, 1 - axis)
    acc, g_t, g = (x.T if axis else x for x in (acc, g_t, g))  # lines along axis 0
    cell, n = lines[1] + 1, len(lines) // 2
    first, last = np.flatnonzero(lo == lines), np.flatnonzero(hi == lines)
    g_t[first] -= g[first]
    g_t[last] += g[last]
    g_t[1:-1:2] -= g[2::2]
    g_t[2::2] += g[1:-1:2]
    for k, v, op in ((0, g_t[0::2], np.add), (cell - 1, g_t[1::2], np.add),
                     (1, g[0::2], np.add), (cell - 2, g[1::2], np.subtract)):
        j0, j1 = int(k < 0), n - int(k == cell)  # the lines k + j * cell inside acc
        view = acc[k + j0 * cell::cell][:j1 - j0]
        op(view, v[j0:j1], out=view)


def gradient_central(grid, eps=DEFAULT_EPS):
    """Gradient, magnitude, and stabilized unit direction of a scalar grid."""
    check_gradient_input(grid, eps)
    gx = _diff_axis(grid.values, grid.dx, axis=1)
    gy = _diff_axis(grid.values, grid.dy, axis=0)
    mag = np.sqrt(gx * gx + gy * gy)
    denom = mag + eps
    return GradientField(gx=gx, gy=gy, mag=mag, ux=gx / denom, uy=gy / denom)
