"""Supergrid partitioning, boundary fluxes, and the flux-ratio loss.

A supergrid tiles the domain into equal rectangular cells, each
aggregating multiple grid pixels. Per cell we compute a boundary-averaged
advective flux (temperature times the stabilized gradient direction
projected on the outward normal), a diffusive flux (gradient magnitude),
and their ratio. The multi-scale loss is the mean squared per-cell
difference between the fine-scale and coarse-scale ratios; it doubles as
the flux-ratio evaluation metric.

The fluxes read the field and its gradient on cell edges only, so both
are evaluated on the edge lines alone: the first and last row of every
cell row and the first and last column of every cell column
(findiff.line_gradient, gradient_central's stencils restricted to those
lines; 25% of the pixels, counted once per direction, for 16x16 cells).
Per-cell sums add up each cell's stretch of its lines. A FluxRatioLoss keeps
the lines of its last forward call; its adjoint back-propagates on them and
adds into the rows and columns the stencils read
(findiff.line_gradient_adjoint), so a pixel two or more pixels away from
every edge line never enters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .findiff import (DEFAULT_EPS, check_gradient_input, line_gradient,
                      line_gradient_adjoint)


@dataclass
class SupergridPartition:
    """Equal-cell tiling: n_rows x n_cols cells of cell_h x cell_w pixels.

    A cell's boundary is its four edges, 2 * (cell_h + cell_w) entries: a
    pixel on two edges (a corner, or any pixel of a one-pixel-thin cell)
    counts once per edge, each time with that edge's outward normal.
    """

    cell_h: int
    cell_w: int
    n_rows: int
    n_cols: int


@dataclass
class FluxReport:
    """Per-cell boundary means of T * (u . n) and |grad T| and their ratio,
    each (n_rows, n_cols); u is the stabilized unit gradient."""

    phi_adv: np.ndarray
    phi_diff: np.ndarray
    r_eff: np.ndarray
    eps: float


@dataclass
class PdeLossResult:
    """Flux-ratio loss and its per-cell breakdown."""

    loss: float
    per_cell_sq_diff: np.ndarray
    n_cells: int
    coarse_report: FluxReport
    fine_report: FluxReport


def choose_supergrid(coarse_h, coarse_w):
    """Cell dims from the gcd of the coarse grid dims: a g x g cell array.

    g = gcd(H, W); coprime dims collapse to a single cell covering the
    grid. The gcd choice is a speed-oriented default, overridable
    everywhere it is consumed.
    """
    if coarse_h < 1 or coarse_w < 1:
        raise ValueError(f"grid dims must be positive, got {coarse_h}x{coarse_w}")
    g = math.gcd(coarse_h, coarse_w)
    return coarse_h // g, coarse_w // g


def build_partition(grid, cell_h, cell_w):
    """Tile a grid into equal cell_h x cell_w cells."""
    height, width = grid.height, grid.width
    if cell_h < 1 or cell_w < 1:
        raise ValueError(f"cell dims must be positive, got ({cell_h}, {cell_w})")
    if height % cell_h != 0:
        raise DimensionMismatchError(
            f"cell_h={cell_h} does not divide grid height={height}")
    if width % cell_w != 0:
        raise DimensionMismatchError(
            f"cell_w={cell_w} does not divide grid width={width}")
    return SupergridPartition(cell_h, cell_w, height // cell_h, width // cell_w)


@dataclass
class _EdgeLines:
    """The first and last line of every cell along one axis, with the
    gradient there: the top and bottom rows of the cells (axis 0) or their
    left and right columns (axis 1).

    lines lists each such row or column once. first, last and owner index
    lines by cell, and give each line's cell; first and last coincide for
    one-pixel-thin cells. _edge_lines fills t, g_along, g_normal, mag and u
    (the normal component of the unit vector) on the lines along axis and d,
    their spacings along and across; cell_len is a cell's extent along a line.
    """

    axis: int
    lines: np.ndarray
    first: np.ndarray
    last: np.ndarray
    owner: np.ndarray
    cell_len: int
    t: np.ndarray = None
    g_along: np.ndarray = None
    g_normal: np.ndarray = None
    mag: np.ndarray = None
    u: np.ndarray = None
    d: tuple = None


def _line_tables(part):
    """The _EdgeLines of part along each axis, with index tables and no values."""
    out = []
    for axis, cell, n, cell_len in ((0, part.cell_h, part.n_rows, part.cell_w),
                                    (1, part.cell_w, part.n_cols, part.cell_h)):
        within = np.arange(n * cell) % cell  # position of each row or column in its cell
        lines = np.flatnonzero((within == 0) | (within == cell - 1))
        first = np.arange(n) * cell
        out.append(_EdgeLines(axis, lines, np.searchsorted(lines, first),
                              np.searchsorted(lines, first + cell - 1), lines // cell, cell_len))
    return out


def _edge_lines(grid, lines, eps):
    """Fill lines from _line_tables with a grid's values, in their arrays if they have any."""
    check_gradient_input(grid, eps)
    for ln, d in zip(lines, ((grid.dx, grid.dy), (grid.dy, grid.dx))):
        ln.d = d
        ln.t, ln.g_along, ln.g_normal = line_gradient(grid.values, ln.lines, ln.axis, *d,
                                                      (ln.t, ln.g_along, ln.g_normal))
        ln.mag = np.multiply(ln.g_along, ln.g_along, out=ln.mag)  # |grad T|, u as scratch
        ln.mag += np.multiply(ln.g_normal, ln.g_normal, out=ln.u)
        np.sqrt(ln.mag, out=ln.mag)
        ln.u = np.add(ln.mag, eps, out=ln.u)
        np.divide(ln.g_normal, ln.u, out=ln.u)
    return lines


def _line_sums(ln, x):
    """Sums of x, given on the lines, over each cell's stretch of each line:
    (number of lines, cells along a line)."""
    if ln.axis == 0:  # einsum: sum over a short last axis is slow
        return np.einsum("ijk->ij", x.reshape(len(x), -1, ln.cell_len))
    return np.einsum("ijk->ki", x.reshape(-1, ln.cell_len, x.shape[1]))


def _spread(ln, g):
    """Adjoint of _line_sums: g (lines, cells) on every entry of its stretch."""
    if ln.axis == 0:
        return np.repeat(g, ln.cell_len, axis=1)
    return np.repeat(g.T, ln.cell_len, axis=0)


def _boundary_mean(part, lines, xs, outward=False):
    """Per-cell mean over the four edges of a quantity given as xs on the
    horizontal and vertical lines. With outward, the first line of a cell
    (top, left; outward normal -y, -x) counts negated."""
    sums = []
    for ln, x in zip(lines, xs):
        s = _line_sums(ln, x)
        sums.append(s[ln.last] - s[ln.first] if outward else s[ln.last] + s[ln.first])
    return (sums[0] + sums[1].T) / (2 * (part.cell_h + part.cell_w))


def _boundary_mean_adjoint(part, lines, per_cell, outward=False):
    """Adjoint of _boundary_mean: the gradient on the lines of a function
    of it whose gradient with respect to the per-cell means is per_cell, by (line, cell)."""
    per_cell = per_cell / (2 * (part.cell_h + part.cell_w))
    out = []
    for ln, c in zip(lines, (per_cell, per_cell.T)):
        g = np.zeros((len(ln.lines), c.shape[1]))
        g[ln.last] += c
        g[ln.first] += -c if outward else c
        out.append(g)
    return out


def _fluxes(lines, part, eps, ratio_eps, anomaly=False):
    """Per-cell fluxes from the edge lines of a field."""
    t = [ln.t for ln in lines]
    if anomaly:
        t_mean = _boundary_mean(part, lines, t)
        t = [x - _spread(ln, c[ln.owner])
             for x, ln, c in zip(t, lines, (t_mean, t_mean.T))]
    phi_adv = _boundary_mean(part, lines, [x * ln.u for x, ln in zip(t, lines)],
                             outward=True)
    phi_diff = _boundary_mean(part, lines, [ln.mag for ln in lines])
    r_eff = phi_adv / (phi_diff + ratio_eps)
    return FluxReport(phi_adv=phi_adv, phi_diff=phi_diff, r_eff=r_eff, eps=eps)


def cell_fluxes(grid, part, eps=DEFAULT_EPS, ratio_eps=None, anomaly=False):
    """Boundary-averaged advective/diffusive fluxes and their ratio per cell.

    ratio_eps defaults to eps (the same stabilizer appears in the unit
    vector and the ratio denominator). anomaly=True removes the per-cell
    boundary mean of T before the advective sum.
    """
    if part.cell_h * part.n_rows != grid.height or part.cell_w * part.n_cols != grid.width:
        raise DimensionMismatchError(
            f"partition covers {part.cell_h * part.n_rows}x{part.cell_w * part.n_cols}, "
            f"grid is {grid.height}x{grid.width}")
    if ratio_eps is None:
        ratio_eps = eps
    return _fluxes(_edge_lines(grid, _line_tables(part), eps), part, eps, ratio_eps, anomaly)


def pde_loss(pair, fine_field, eps=DEFAULT_EPS, cell_override=None,
             ratio_eps=None, anomaly=False):
    """Mean squared per-cell flux-ratio difference between scales.

    The same physical tiling is applied to both grids: coarse cell dims
    come from choose_supergrid (or cell_override, in coarse pixels) and
    the fine grid uses those dims times the pair's scales.
    """
    if fine_field.height != pair.fine.height or fine_field.width != pair.fine.width:
        raise DimensionMismatchError(
            f"fine field is {fine_field.height}x{fine_field.width}, pair expects "
            f"{pair.fine.height}x{pair.fine.width}")
    return FluxRatioLoss(pair, eps, cell_override, ratio_eps, anomaly).forward(fine_field)


class FluxRatioLoss:
    """pde_loss of fine fields against one coarse grid, and its adjoint.

    The tilings, the coarse report and the work arrays are built once. forward
    evaluates the gradient on the cell-edge lines only and keeps them with its
    fine report; adjoint back-propagates the last forward call on those lines
    instead of running another forward pass, is zero off the lines' stencils
    and can add into an array.
    """

    def __init__(self, pair, eps=DEFAULT_EPS, cell_override=None, ratio_eps=None,
                 anomaly=False):
        coarse = pair.coarse
        cell_h, cell_w = cell_override or choose_supergrid(coarse.height, coarse.width)
        part_c = build_partition(coarse, cell_h, cell_w)
        self.part_f = build_partition(pair.fine, cell_h * pair.scale_y,
                                      cell_w * pair.scale_x)
        self.eps = eps
        self.ratio_eps = eps if ratio_eps is None else ratio_eps
        self.anomaly = anomaly
        self.coarse_report = cell_fluxes(coarse, part_c, eps, ratio_eps, anomaly)
        self._lines = _line_tables(self.part_f)  # filled by each forward call
        self._cols = np.empty((pair.fine.width, pair.fine.height))  # columns as rows

    def forward(self, fine):
        """PdeLossResult of a field of the pair's fine dims; the next call
        overwrites the edge lines, so take this one's adjoint before."""
        _edge_lines(fine, self._lines, self.eps)
        self._rep = rep = _fluxes(self._lines, self.part_f, self.eps, self.ratio_eps,
                                  self.anomaly)
        sq = (rep.r_eff - self.coarse_report.r_eff) ** 2
        return PdeLossResult(loss=float(sq.mean()), per_cell_sq_diff=sq, n_cells=sq.size,
                             coarse_report=self.coarse_report, fine_report=rep)

    def adjoint(self, out=None, scale=1.0):
        """Gradient of the last forward call's loss with respect to its field. scale
        times it is added into out (a new zero array by default), and out returned."""
        if self.anomaly:
            raise ValueError("the adjoint is implemented for anomaly=False only")
        part, lines, rep = self.part_f, self._lines, self._rep
        denom = rep.phi_diff + self.ratio_eps
        g_r = (2.0 * scale / rep.r_eff.size) * (rep.r_eff - self.coarse_report.r_eff)
        # on the lines: d loss / d(T * u.n) and d loss / d|grad T|
        g_adv = _boundary_mean_adjoint(part, lines, g_r / denom, outward=True)
        g_mag = _boundary_mean_adjoint(part, lines, -g_r * rep.phi_adv / denom ** 2)

        out = np.zeros(self._cols.T.shape) if out is None else out
        self._cols.fill(0.0)
        for ln, acc, g_a, g_m in zip(lines, (out, self._cols.T), g_adv, g_mag):
            # back through u = g_normal / (|grad T| + eps) and |grad T|:
            # (g_along, g_normal) gets grad T * radial plus inv * g_u on g_normal,
            # radial = (g_mag - inv * g_u * u) / |grad T|, 0 where |grad T| = 0
            g_tu, radial = _spread(ln, g_a), _spread(ln, g_m)
            inv = np.divide(1.0, ln.mag + self.eps)
            g_u = inv * (g_tu * ln.t)
            radial -= np.multiply(g_u, ln.u, out=inv)
            np.divide(radial, ln.mag, out=radial, where=ln.mag > 0)
            radial[ln.mag == 0] = 0.0
            g_tu *= ln.u
            g_along = np.multiply(ln.g_along, radial, out=inv)
            radial *= ln.g_normal
            radial += g_u
            line_gradient_adjoint(acc, ln.lines, ln.axis, g_tu, g_along, radial,
                                  *ln.d)
        out += self._cols.T
        return out
