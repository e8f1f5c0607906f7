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
cell lists its one line once, and its sums count it twice), with
findiff.line_gradient, gradient_central's stencils on those lines (25% of the
pixels, once per direction, at 16x16). Per-cell sums add up each cell's
stretch of its lines.

One private kernel, _fluxes, walks the grid once, in bands of cell rows. A
band's line quantities (t, the two derivatives, |grad T| and u) live in
per-axis scratch of about grid_core.BLOCK_ELEMS elements per array, the cache
budget of every blocked walk; the column lines take one halo row either side
so that the derivative along them keeps its centred stencil. A band holds
whole cells, so it finishes them: it takes (with anomaly) each cell's
boundary mean of T from its own line sums and subtracts it from its t in
place, then writes its cell rows of the fluxes. The sums of t * u take the
product inside their einsum, so cell_fluxes and pde_loss keep no line arrays.
Scratch that spans the grid holds it as one band, and that is how a
FluxRatioLoss keeps the lines its adjoint needs: its first adjoint call swaps
the scratch for whole lines. The adjoint back-propagates on them and adds
into the rows and columns the stencils read (findiff.edge_lines_adjoint):
each cell's edge lines and their neighbours recur one cell apart, so they
add into the gradient through strided views, only the border lines clip a
neighbour, and a pixel two or more pixels from every edge line never enters.

The pixels that do enter are S (Reach). The kernel reads its row lines from
a row source and its column lines from a column source, and the adjoint adds
each axis's terms into a target shaped like its source: the field for both
(pde_loss, forward), or S's rows and S's columns (forward_blocks). A source
holds as many lines of each cell as of any other, so the line arrays hold
the same values either way.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import grid_core
from .errors import DimensionMismatchError
from .findiff import (DEFAULT_EPS, check_gradient_input, check_stabilizer,
                      edge_lines_adjoint, line_gradient)


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
class Reach:
    """S, the pixels the flux loss of a partition's cells reads and its adjoint
    writes: each cell's first two and last two rows across the grid (the row
    block) and, on the other rows, each cell's first two and last two columns.
    rows and cols list those rows and columns in grid order, all of them along an
    axis where the cells are 4 pixels or less."""

    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, part):
        near = []
        for n, cell in ((part.n_rows, part.cell_h), (part.n_cols, part.cell_w)):
            lines = np.arange(n * cell)
            near.append(lines[(lines % cell < 2) | (lines % cell >= cell - 2)])
        return cls(*near)


@dataclass
class _EdgeLines:
    """The first and last line of every cell along one axis, with arrays for
    the values on them: the top and bottom rows of the cells (axis 0) or
    their left and right columns (axis 1).

    lines indexes them in the source _fluxes last read them from: a source
    holds as many lines of each cell as of any other, in order, so lines lists
    each cell's first line and then its last line, cell by cell. Arrays on the
    lines (and their per-cell sums) hold first lines at even and last lines at
    odd positions along axis. Where the cells are one pixel thin across the
    lines, per_cell is 1: each cell's one line is its first and its last, and
    it is listed, filled and summed once. For one band of cell rows at a time,
    _fluxes fills both axes' t (less its cell's boundary mean with anomaly),
    g_along, g_normal, mag and u (the normal component of the unit vector); d
    holds the spacings along and across, cell_len a cell's extent along a line.
    The arrays hold one band: the whole lines if it spans the grid.
    """

    axis: int
    cell_len: int
    per_cell: int
    t: np.ndarray
    g_along: np.ndarray
    g_normal: np.ndarray
    mag: np.ndarray
    u: np.ndarray
    lines: np.ndarray = None
    d: tuple = None


def _line_tables(part, band=None):
    """The _EdgeLines of part along each axis, with arrays for bands of band
    cell rows: by default as many as fit in about grid_core.BLOCK_ELEMS elements
    per array, the column lines with a halo row either side."""
    n_cols, cell_h, cell_w = part.n_cols, part.cell_h, part.cell_w
    if band is None:
        band = max(1, grid_core.BLOCK_ELEMS // (2 * n_cols * max(cell_w, cell_h)))
    band = min(band, part.n_rows)
    halo = 2 if band < part.n_rows else 0
    k0, k1 = 1 + (cell_h > 1), 1 + (cell_w > 1)  # lines of a cell: one if it is thin
    return [_EdgeLines(axis, cell_len, k, *(np.empty(shape) for _ in range(5)))
            for axis, cell_len, k, shape in (
                (0, cell_w, k0, (k0 * band, n_cols * cell_w)),
                (1, cell_h, k1, (band * cell_h + halo, k1 * n_cols)))]


def _bands(part, lines, rows, cols):
    """For each band of cell rows that the arrays of lines hold: its cell rows
    and, for each axis, (ln, slab, sel, n, own). slab is the band's rows of the
    axis's source (rows, cols) with a halo row either side within it, sel its
    lines indexed in slab, n the array rows they fill and own those of the band
    itself."""
    k, cell_h, per_cell = lines[0].per_cell, part.cell_h, len(rows) // part.n_rows
    band = len(lines[0].t) // k
    for c0 in range(0, part.n_rows, band):
        c1 = min(c0 + band, part.n_rows)
        r0, r1 = max(c0 * per_cell - 1, 0), min(c1 * per_cell + 1, len(rows))
        lo, hi = max(c0 * cell_h - 1, 0), min(c1 * cell_h + 1, len(cols))
        yield slice(c0, c1), (
            (lines[0], rows[r0:r1], lines[0].lines[k * c0:k * c1] - r0, k * (c1 - c0),
             slice(None)),
            (lines[1], cols[lo:hi], lines[1].lines, hi - lo,
             slice(c0 * cell_h - lo, c1 * cell_h - lo)))


def _cells(ln, x):
    """x, given on some lines of ln's band, with each cell's stretch of each
    line along the last axis (axis 0) or the middle one (axis 1)."""
    if ln.axis == 0:
        return x.reshape(len(x), -1, ln.cell_len)
    return x.reshape(-1, ln.cell_len, x.shape[1])


def _line_sums(ln, *xs):
    """Sums of the product of xs, laid out on the lines by _cells, over each
    cell's stretch of each line: (lines, n_cols) for axis 0, (n_rows, lines) for axis 1."""
    # einsum: sum over a short last axis is slow, and the product needs no array
    return np.einsum(",".join(["ijk"] * len(xs)) + ("->ij" if ln.axis == 0 else "->ik"), *xs)


def _boundary_mean(part, lines, sums, outward=False):
    """Per-cell mean over the four edges of a quantity, from its _line_sums on
    the horizontal and vertical lines. With outward, the first line of a cell
    (top, left; outward normal -y, -x) counts negated. A thin cell's one line
    counts as both: last - first is exactly 0, and last + first twice it."""
    means = []
    for ln, s in zip(lines, sums):  # first lines at even, last lines at odd positions
        k = ln.per_cell
        first, last = (s[::k], s[k - 1::k]) if ln.axis == 0 else (s[:, ::k], s[:, k - 1::k])
        means.append(last - first if outward else last + first)
    return (means[0] + means[1]) / (2 * (part.cell_h + part.cell_w))


def _boundary_mean_adjoint(part, lines, per_cell, outward=False):
    """Adjoint of _boundary_mean: for each axis of lines in turn, the gradient
    on its lines of a function of it whose gradient with respect to the
    per-cell means is per_cell, on each cell's first and last line, a thin
    cell's one line taken twice."""
    per_cell = per_cell / (2 * (part.cell_h + part.cell_w))
    first = -per_cell if outward else per_cell
    # interleaved along axis like the line sums, then over each cell's stretch
    return (np.repeat(np.stack([first, per_cell], ln.axis + 1).reshape(
                len(per_cell) * (2 - ln.axis), -1), ln.cell_len, axis=1 - ln.axis)
            for ln in lines)


def _fluxes(part, lines, rows, cols, dx, dy, eps, ratio_eps, anomaly=False):
    """Per-cell fluxes of the field of spacing (dx, dy) whose row lines are read
    from rows and column lines from cols (see Reach), band by band through the
    arrays of lines.

    Each band fills both axes' lines and then writes its own cell rows of
    phi_adv and phi_diff: a band holds whole cells, so with anomaly it takes
    each cell's boundary mean of T from its own lines and subtracts it from t
    before the product with u.
    """
    for ln, src, n in zip(lines, (rows, cols), (part.n_rows, part.n_cols)):
        per_cell = src.shape[ln.axis] // n
        ln.lines = (np.arange(n)[:, None] * per_cell + [0, per_cell - 1][:ln.per_cell]).ravel()
    lines[0].d, lines[1].d = (dx, dy), (dy, dx)
    phi_adv, phi_diff = np.empty((2, part.n_rows, part.n_cols))
    for cells, axes in _bands(part, lines, rows, cols):
        band = []
        for ln, slab, sel, n, own in axes:
            t, g_along, g_normal, mag, u = (x[:n] for x in (ln.t, ln.g_along, ln.g_normal,
                                                            ln.mag, ln.u))
            line_gradient(slab, sel, ln.axis, *ln.d, (t, g_along, g_normal))
            np.multiply(g_along, g_along, out=mag)  # |grad T|, u as scratch
            mag += np.multiply(g_normal, g_normal, out=u)
            np.sqrt(mag, out=mag)
            np.divide(g_normal, np.add(mag, eps, out=u), out=u)
            band.append([_cells(ln, x[own]) for x in (t, u, mag)])
        t, u, mag = zip(*band)  # one view per axis, of the band's own rows
        if anomaly:
            t_mean = _boundary_mean(part, lines, map(_line_sums, lines, t))
            for ln, x in zip(lines, t):
                x -= np.expand_dims(np.repeat(t_mean, ln.per_cell, ln.axis), 2 - ln.axis)
        phi_adv[cells] = _boundary_mean(part, lines, map(_line_sums, lines, t, u), outward=True)
        phi_diff[cells] = _boundary_mean(part, lines, map(_line_sums, lines, mag))
    r_eff = phi_adv / (phi_diff + ratio_eps)
    return FluxReport(phi_adv=phi_adv, phi_diff=phi_diff, r_eff=r_eff)


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
    check_gradient_input(grid, eps)
    return _fluxes(part, _line_tables(part), grid.values, grid.values, grid.dx, grid.dy, eps,
                   ratio_eps, anomaly)


def pde_loss(pair, fine_field, eps=DEFAULT_EPS, cell_override=None,
             ratio_eps=None, anomaly=False):
    """Mean squared per-cell flux-ratio difference between scales.

    The same physical tiling is applied to both grids: coarse cell dims
    come from choose_supergrid (or cell_override, in coarse pixels) and
    the fine grid uses those dims times the pair's scales.
    """
    return FluxRatioLoss(pair, eps, cell_override, ratio_eps, anomaly).forward(fine_field)


class FluxRatioLoss:
    """pde_loss of fine fields against one coarse grid, and its adjoint.

    The tilings, the coarse report and the band scratch are built once.
    forward evaluates the gradient on the cell-edge lines only, band by band.
    The first adjoint call swaps the scratch for whole lines, which it fills
    by running the last forward pass again, and from then on every forward
    call keeps its lines; adjoint back-propagates the last forward call on
    those lines instead of running another forward pass, is zero off the
    lines' stencils and can add into an array, straight through strided views.
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
        self._geometry = (pair.fine.height, pair.fine.width, pair.fine.dx, pair.fine.dy)
        self._lines = _line_tables(self.part_f)  # filled by each forward call
        self._rep = None  # the last forward call's fine report

    def forward(self, fine):
        """PdeLossResult of a field of the pair's fine dims and spacing, checked before any
        line is written; the next call overwrites the lines, so take this one's adjoint first."""
        if (fine.height, fine.width, fine.dx, fine.dy) != self._geometry:
            h, w, dx, dy = self._geometry
            raise DimensionMismatchError(
                f"fine field is {fine.height}x{fine.width}, pair expects {h}x{w}; its spacing "
                f"(dx, dy) is ({fine.dx}, {fine.dy}), the pair's fine spacing ({dx}, {dy})")
        return self.forward_blocks(fine.values, fine.values)

    def forward_blocks(self, rows, cols):
        """forward of the field whose row lines are read from rows and column lines
        from cols, unchecked: its values for both, or its rows and its columns of
        Reach.of(self.part_f), whose own rows of the row block must hold the
        field's values there, as the row lines' stencils read them."""
        rep = _fluxes(self.part_f, self._lines, rows, cols, *self._geometry[2:], self.eps,
                      self.ratio_eps, self.anomaly)
        self._sources, self._rep = (rows, cols), rep
        sq = (rep.r_eff - self.coarse_report.r_eff) ** 2
        return PdeLossResult(loss=float(sq.mean()), per_cell_sq_diff=sq, n_cells=sq.size,
                             coarse_report=self.coarse_report, fine_report=rep)

    def adjoint(self, out=None, scale=1.0, cols=None):
        """Gradient of the last forward call's loss with respect to its field. scale
        times it is added into out (a new zero array by default), and out returned:
        each axis's edge lines and their neighbours through strided views of out's
        rows or columns one cell apart, with no accumulator. With cols, out takes
        the row lines' terms and cols the column lines': each shaped like the
        source the last forward call read those lines from."""
        if self.anomaly:
            raise ValueError("the adjoint is implemented for anomaly=False only")
        part, rep = self.part_f, self._rep
        if rep is None:
            raise ValueError("the adjoint back-propagates a forward call: call forward first")
        out = np.zeros(self._sources[0].shape) if out is None else out
        cols = out if cols is None else cols
        for name, target, source in zip(("out", "cols"), (out, cols), self._sources):
            if target.shape != source.shape:
                raise DimensionMismatchError(
                    f"{name} has shape {target.shape}, the field's source {source.shape}")
        if len(self._lines[0].t) < self._lines[0].per_cell * part.n_rows:  # keep whole lines
            self._lines = _line_tables(part, part.n_rows)
            self.forward_blocks(*self._sources)
        lines = self._lines
        denom = rep.phi_diff + self.ratio_eps
        g_r = (2.0 * scale / rep.r_eff.size) * (rep.r_eff - self.coarse_report.r_eff)
        # on the lines: d loss / d(T * u.n) and d loss / d|grad T|
        g_adv = _boundary_mean_adjoint(part, lines, g_r / denom, outward=True)
        g_mag = _boundary_mean_adjoint(part, lines, -g_r * rep.phi_adv / denom ** 2)

        for ln, acc, g_tu, radial in zip(lines, (out, cols), g_adv, g_mag):
            if ln.per_cell == 1:  # a thin cell's one line, as its first and its last
                ln = replace(ln, lines=np.repeat(ln.lines, 2), **{
                    k: np.repeat(getattr(ln, k), 2, ln.axis)
                    for k in ("t", "g_along", "g_normal", "mag", "u")})
            # back through u = g_normal / (|grad T| + eps) and |grad T|:
            # (g_along, g_normal) gets grad T * radial plus inv * g_u on g_normal,
            # radial = (g_mag - inv * g_u * u) / |grad T|, 0 where |grad T| = 0
            inv = np.divide(1.0, ln.mag + self.eps)
            g_u = inv * (g_tu * ln.t)
            radial -= np.multiply(g_u, ln.u, out=inv)
            with np.errstate(divide="ignore", invalid="ignore"):
                radial /= ln.mag
            radial[ln.mag == 0] = 0.0
            g_tu *= ln.u
            g_along = np.multiply(ln.g_along, radial, out=inv)
            radial *= ln.g_normal
            radial += g_u
            edge_lines_adjoint(acc, ln.lines, ln.axis, g_tu, g_along, radial, *ln.d)
        return out
