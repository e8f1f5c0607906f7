"""Supergrid partitioning, boundary fluxes, and the flux-ratio loss.

A supergrid tiles the domain into equal rectangular cells, each
aggregating multiple grid pixels. Per cell we compute a boundary-averaged
advective flux (temperature times the stabilized gradient direction
projected on the outward normal), a diffusive flux (gradient magnitude),
and their ratio. The multi-scale loss is the mean squared per-cell
difference between the fine-scale and coarse-scale ratios; it doubles as
the flux-ratio evaluation metric.

The fluxes read the field and its gradient on cell edges only, so both
are evaluated on the edge lines alone: each cell row's first and then its
last row, cell row by cell row, and the same for columns (a one-pixel-thin
cell lists its line twice), with findiff.line_gradient, gradient_central's
stencils on those lines (25% of the pixels, once per direction, at 16x16).
Per-cell sums add up each cell's stretch of its lines.

One private kernel, _fluxes, walks the grid in bands of cell rows. A band's
line quantities (t, the two derivatives, |grad T| and u) live in per-axis
scratch of about BAND_ELEMS elements per array, the column lines with one
halo row either side so that the derivative along them keeps its centred
stencil; only the per-line, per-cell sums leave a band, and the sums of
t * u take the product inside their einsum, so cell_fluxes and pde_loss
keep no line arrays. With anomaly, a pre-pass over t takes each cell's
boundary mean of T first, and each band subtracts it from its t in place.
Scratch that spans the grid holds it as one band, and that is how a
FluxRatioLoss keeps the lines its adjoint needs: its first adjoint call swaps
the scratch for whole lines. The adjoint back-propagates on them and adds
into the rows and columns the stencils read (findiff.line_gradient_adjoint),
so a pixel two or more pixels away from every edge line never enters. The
column lines add into a (W, H) accumulator, which is added into the gradient
transposed. When H is a multiple of 16 its rows are padded to an odd number
of 64-byte lines: a row stride of a multiple of 128 bytes (4 KB at H = 512)
maps each column of the transposed walk to one cache set, and the add took
twice as long.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .findiff import (DEFAULT_EPS, check_gradient_input, check_stabilizer,
                      line_gradient, line_gradient_adjoint)


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


BAND_ELEMS = 1 << 15  # about the elements of one band-scratch array of the forward pass


@dataclass
class _EdgeLines:
    """The first and last line of every cell along one axis, with arrays for
    the values on them: the top and bottom rows of the cells (axis 0) or
    their left and right columns (axis 1).

    lines lists each cell's first line and then its last line, cell by cell,
    so a one-pixel-thin cell lists its line twice; arrays on the lines (and
    their per-cell sums) hold first lines at even and last lines at odd
    positions along axis. _fluxes fills t (less its cell's boundary mean with
    anomaly), g_along, g_normal, mag and u (the normal component of the unit
    vector) one band of cell rows at a time, and d with the spacings along
    and across; cell_len is a cell's extent along a line.
    The arrays hold one band: the whole lines if it spans the grid.
    """

    axis: int
    lines: np.ndarray
    cell_len: int
    t: np.ndarray
    g_along: np.ndarray
    g_normal: np.ndarray
    mag: np.ndarray
    u: np.ndarray
    d: tuple = None


def _line_tables(part, band=None):
    """The _EdgeLines of part along each axis, with arrays for bands of band
    cell rows: by default as many as fit in about BAND_ELEMS elements per
    array, the column lines with a halo row either side."""
    n_cols, cell_h = part.n_cols, part.cell_h
    if band is None:
        band = max(1, BAND_ELEMS // (2 * n_cols * max(part.cell_w, cell_h)))
    band = min(band, part.n_rows)
    halo = 2 if band < part.n_rows else 0
    return [_EdgeLines(axis, (np.arange(n)[:, None] * cell + [0, cell - 1]).ravel(), cell_len,
                       *(np.empty(shape) for _ in range(5)))
            for axis, cell, n, cell_len, shape in (
                (0, cell_h, part.n_rows, part.cell_w, (2 * band, n_cols * part.cell_w)),
                (1, part.cell_w, n_cols, cell_h, (band * cell_h + halo, 2 * n_cols)))]


def _bands(grid, part, lines):
    """For each band of cell rows that the arrays of lines hold, and each axis:
    (ln, slab, sel, n, rows, dst). slab is the band's pixel rows with a halo
    row either side within the grid, sel its lines indexed in slab, n the
    array rows they fill, rows those of the band itself and dst the band's
    rows of the per-line sums."""
    band, cell_h = len(lines[0].t) // 2, part.cell_h
    for c0 in range(0, part.n_rows, band):
        c1 = min(c0 + band, part.n_rows)
        lo, hi = max(c0 * cell_h - 1, 0), min(c1 * cell_h + 1, grid.height)
        slab = grid.values[lo:hi]
        yield (lines[0], slab, lines[0].lines[2 * c0:2 * c1] - lo, 2 * (c1 - c0),
               slice(None), slice(2 * c0, 2 * c1))
        yield (lines[1], slab, lines[1].lines, hi - lo,
               slice(c0 * cell_h - lo, c1 * cell_h - lo), slice(c0, c1))


def _cells(ln, x):
    """x, given on some lines of ln's band, with each cell's stretch of each
    line along the last axis (axis 0) or the middle one (axis 1)."""
    if ln.axis == 0:
        return x.reshape(len(x), -1, ln.cell_len)
    return x.reshape(-1, ln.cell_len, x.shape[1])


def _line_sums(ln, out, *xs):
    """Sums of the product of xs, given on the lines, over each cell's stretch
    of each line, into out: (lines, n_cols) for axis 0, (n_rows, lines) for axis 1."""
    # einsum: sum over a short last axis is slow, and the product needs no array
    np.einsum(",".join(["ijk"] * len(xs)) + ("->ij" if ln.axis == 0 else "->ik"),
              *(_cells(ln, x) for x in xs), out=out)


def _boundary_mean(part, sums, outward=False):
    """Per-cell mean over the four edges of a quantity, from its _line_sums on
    the horizontal and vertical lines. With outward, the first line of a cell
    (top, left; outward normal -y, -x) counts negated."""
    means = []
    for axis, s in enumerate(sums):  # first lines at even, last lines at odd positions
        first, last = (s[0::2], s[1::2]) if axis == 0 else (s[:, 0::2], s[:, 1::2])
        means.append(last - first if outward else last + first)
    return (means[0] + means[1]) / (2 * (part.cell_h + part.cell_w))


def _boundary_mean_adjoint(part, lines, per_cell, outward=False):
    """Adjoint of _boundary_mean: for each axis of lines in turn, the gradient
    on its lines of a function of it whose gradient with respect to the
    per-cell means is per_cell."""
    per_cell = per_cell / (2 * (part.cell_h + part.cell_w))
    first = -per_cell if outward else per_cell
    # interleaved along axis like the line sums, then over each cell's stretch
    return (np.repeat(np.stack([first, per_cell], ln.axis + 1).reshape(
                len(per_cell) * (2 - ln.axis), -1), ln.cell_len, axis=1 - ln.axis)
            for ln in lines)


def _fluxes(grid, part, lines, eps, ratio_eps, anomaly=False):
    """Per-cell fluxes of a grid, band by band through the arrays of lines.

    Only the per-line, per-cell sums leave a band. With anomaly, a pre-pass
    over t takes each cell's boundary mean of T, which is subtracted before
    the product with u.
    """
    check_gradient_input(grid, eps)
    lines[0].d, lines[1].d = (grid.dx, grid.dy), (grid.dy, grid.dx)
    shapes = ((2 * part.n_rows, part.n_cols), (part.n_rows, 2 * part.n_cols))
    adv, diff = [np.empty(s) for s in shapes], [np.empty(s) for s in shapes]
    if anomaly:  # adv holds the line sums of T until the main pass
        for ln, slab, sel, n, rows, dst in _bands(grid, part, lines):
            t = np.take(slab, sel, ln.axis, out=ln.t[:n], mode="clip")
            _line_sums(ln, adv[ln.axis][dst], t[rows])
        t_mean = _boundary_mean(part, adv)
        t_mean = [np.repeat(t_mean, 2, axis) for axis in (0, 1)]  # laid out like the sums
    for ln, slab, sel, n, rows, dst in _bands(grid, part, lines):
        t, g_along, g_normal, mag, u = (x[:n] for x in (ln.t, ln.g_along, ln.g_normal,
                                                        ln.mag, ln.u))
        line_gradient(slab, sel, ln.axis, *ln.d, (t, g_along, g_normal))
        np.multiply(g_along, g_along, out=mag)  # |grad T|, u as scratch
        mag += np.multiply(g_normal, g_normal, out=u)
        np.sqrt(mag, out=mag)
        np.divide(g_normal, np.add(mag, eps, out=u), out=u)
        if anomaly:  # a view: the band's t, less its cells' boundary means
            cells = _cells(ln, t[rows])
            cells -= np.expand_dims(t_mean[ln.axis][dst], 2 - ln.axis)
        _line_sums(ln, adv[ln.axis][dst], t[rows], u[rows])
        _line_sums(ln, diff[ln.axis][dst], mag[rows])
    phi_adv = _boundary_mean(part, adv, outward=True)
    phi_diff = _boundary_mean(part, diff)
    r_eff = phi_adv / (phi_diff + ratio_eps)
    return FluxReport(phi_adv=phi_adv, phi_diff=phi_diff, r_eff=r_eff, eps=eps)


def cell_fluxes(grid, part, eps=DEFAULT_EPS, ratio_eps=None, anomaly=False):
    """Boundary-averaged advective/diffusive fluxes and their ratio per cell.

    ratio_eps defaults to eps (the same stabilizer appears in the unit
    vector and the ratio denominator); both must be finite and > 0.
    anomaly=True removes the per-cell boundary mean of T before the
    advective sum.
    """
    if part.cell_h * part.n_rows != grid.height or part.cell_w * part.n_cols != grid.width:
        raise DimensionMismatchError(
            f"partition covers {part.cell_h * part.n_rows}x{part.cell_w * part.n_cols}, "
            f"grid is {grid.height}x{grid.width}")
    ratio_eps = eps if ratio_eps is None else check_stabilizer("ratio_eps", ratio_eps)
    return _fluxes(grid, part, _line_tables(part), eps, ratio_eps, anomaly)


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

    The tilings, the coarse report and the band scratch are built once.
    forward evaluates the gradient on the cell-edge lines only, band by band.
    The first adjoint call swaps the scratch for whole lines, which it fills
    by running the last forward pass again, and from then on every forward
    call keeps its lines; adjoint back-propagates the last forward call on
    those lines instead of running another forward pass, is zero off the
    lines' stencils and can add into an array. The rows of its column
    accumulator are padded so that adding it in transposed does not alias.
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
        self._rep = None  # the last forward call's fine report
        self._cols = None  # the adjoint's columns as rows, from its first call

    def forward(self, fine):
        """PdeLossResult of a field of the pair's fine dims; the next call
        overwrites the edge lines, so take this one's adjoint before."""
        self._fine = fine
        self._rep = rep = _fluxes(fine, self.part_f, self._lines, self.eps, self.ratio_eps,
                                  self.anomaly)
        sq = (rep.r_eff - self.coarse_report.r_eff) ** 2
        return PdeLossResult(loss=float(sq.mean()), per_cell_sq_diff=sq, n_cells=sq.size,
                             coarse_report=self.coarse_report, fine_report=rep)

    def adjoint(self, out=None, scale=1.0):
        """Gradient of the last forward call's loss with respect to its field. scale
        times it is added into out (a new zero array by default), and out returned."""
        if self.anomaly:
            raise ValueError("the adjoint is implemented for anomaly=False only")
        part, rep = self.part_f, self._rep
        if rep is None:
            raise ValueError("the adjoint back-propagates a forward call: call forward first")
        shape = self._fine.values.shape
        if out is not None and out.shape != shape:
            raise DimensionMismatchError(f"out has shape {out.shape}, the fine field {shape}")
        if self._cols is None:  # keep whole lines from now on
            # rows padded off a multiple of 128 bytes (see the module docstring)
            h, w = shape
            self._cols = np.empty((w, h + (8 if h % 16 == 0 else 0)))[:, :h]
            if len(self._lines[0].t) < 2 * part.n_rows:
                self._lines = _line_tables(part, part.n_rows)
                _fluxes(self._fine, part, self._lines, self.eps, self.ratio_eps)
        lines = self._lines
        denom = rep.phi_diff + self.ratio_eps
        g_r = (2.0 * scale / rep.r_eff.size) * (rep.r_eff - self.coarse_report.r_eff)
        # on the lines: d loss / d(T * u.n) and d loss / d|grad T|
        g_adv = _boundary_mean_adjoint(part, lines, g_r / denom, outward=True)
        g_mag = _boundary_mean_adjoint(part, lines, -g_r * rep.phi_adv / denom ** 2)

        out = np.zeros(self._cols.T.shape) if out is None else out
        self._cols.fill(0.0)
        for ln, acc, g_tu, radial in zip(lines, (out, self._cols.T), g_adv, g_mag):
            # back through u = g_normal / (|grad T| + eps) and |grad T|:
            # (g_along, g_normal) gets grad T * radial plus inv * g_u on g_normal,
            # radial = (g_mag - inv * g_u * u) / |grad T|, 0 where |grad T| = 0
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
