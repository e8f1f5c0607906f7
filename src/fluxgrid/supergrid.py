"""Supergrid partitioning, boundary fluxes, and the flux-ratio loss.

A supergrid tiles the domain into equal rectangular cells, each
aggregating multiple grid pixels. Per cell we compute a boundary-averaged
advective flux (temperature times the stabilized gradient direction
projected on the outward normal), a diffusive flux (gradient magnitude),
and their ratio. The multi-scale loss is the mean squared per-cell
difference between the fine-scale and coarse-scale ratios; it doubles as
the flux-ratio evaluation metric.

All cells have the same size, so every cell edge is a slice of the block
view a.reshape(n_rows, cell_h, n_cols, cell_w). The forward pass sums over
those views and its adjoint (FluxRatioLoss.adjoint) adds into them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .findiff import DEFAULT_EPS, gradient_central


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


def _edges(part, a):
    """Top, bottom, left and right edge of every cell, as views of a field.

    Each has shape (n_rows, n_cols, edge length); if a is C-contiguous,
    adding into a view adds into a.
    """
    b = a.reshape(part.n_rows, part.cell_h, part.n_cols, part.cell_w)
    return (b[:, 0], b[:, -1],
            b[..., 0].transpose(0, 2, 1), b[..., -1].transpose(0, 2, 1))


# Outward normals of the top, bottom, left and right edge: -y, +y, -x, +x.
_NORMAL_SIGNS = (-1.0, 1.0, -1.0, 1.0)


def _normal_edges(part, ax, ay):
    """Edges of (ax, ay) along each edge's normal axis: y, y, x, x."""
    return _edges(part, ay)[:2] + _edges(part, ax)[2:]


def _boundary_mean(edges, n_b):
    return sum(e.sum(axis=-1) for e in edges) / n_b


def _fluxes(values, gf, part, ratio_eps, anomaly=False):
    """Per-cell fluxes of a field whose gradient field gf is already known."""
    n_b = 2 * (part.cell_h + part.cell_w)
    t = _edges(part, values)
    if anomaly:
        t_mean = _boundary_mean(t, n_b)[..., None]
        t = [e - t_mean for e in t]
    u_n = [s * e for s, e in zip(_NORMAL_SIGNS, _normal_edges(part, gf.ux, gf.uy))]
    phi_adv = _boundary_mean([te * ue for te, ue in zip(t, u_n)], n_b)
    phi_diff = _boundary_mean(_edges(part, gf.mag), n_b)
    r_eff = phi_adv / (phi_diff + ratio_eps)
    return FluxReport(phi_adv=phi_adv, phi_diff=phi_diff, r_eff=r_eff, eps=gf.eps)


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
    return _fluxes(grid.values, gradient_central(grid, eps), part, ratio_eps, anomaly)


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
    loss = FluxRatioLoss(pair, eps, cell_override, ratio_eps, anomaly)
    return loss.forward(fine_field)[0]


class FluxRatioLoss:
    """pde_loss of fine fields against one coarse grid, and its adjoint.

    The tilings and the coarse report are built once, at construction;
    adjoint reuses the state of a forward pass instead of running another.
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

    def forward(self, fine):
        """(PdeLossResult, gradient field) of a field of the pair's fine dims."""
        gf = gradient_central(fine, self.eps)
        rep = _fluxes(fine.values, gf, self.part_f, self.ratio_eps, self.anomaly)
        sq = (rep.r_eff - self.coarse_report.r_eff) ** 2
        return PdeLossResult(loss=float(sq.mean()), per_cell_sq_diff=sq, n_cells=sq.size,
                             coarse_report=self.coarse_report, fine_report=rep), gf

    def adjoint(self, fine, result, gf):
        """Gradient of result.loss with respect to fine; (result, gf) = forward(fine)."""
        if self.anomaly:
            raise ValueError("the adjoint is implemented for anomaly=False only")
        part, rep = self.part_f, result.fine_report
        n_b = 2 * (part.cell_h + part.cell_w)
        denom = rep.phi_diff + self.ratio_eps
        g_r = (2.0 / result.n_cells) * (rep.r_eff - self.coarse_report.r_eff)
        # per boundary entry: d loss / d(T * u.n) and d loss / d|grad T|
        g_adv = (g_r / denom / n_b)[..., None]
        g_diff = (-g_r * rep.phi_adv / denom ** 2 / n_b)[..., None]

        g_t, g_ux, g_uy, g_mag = (np.zeros(fine.values.shape) for _ in range(4))
        for sign, acc_t, acc_u, t, u in zip(
                _NORMAL_SIGNS, _edges(part, g_t), _normal_edges(part, g_ux, g_uy),
                _edges(part, fine.values), _normal_edges(part, gf.ux, gf.uy)):
            acc_t += sign * g_adv * u
            acc_u += sign * g_adv * t
        for acc in _edges(part, g_mag):
            acc += g_diff

        # back through u = grad T / (|grad T| + eps) and |grad T|:
        # g_grad = inv * g_u + grad T * (g_mag - inv * (g_u . u)) / |grad T|,
        # with the last term taken as 0 where |grad T| = 0
        m = gf.mag
        inv = 1.0 / (m + self.eps)
        radial = np.divide(g_mag - inv * (g_ux * gf.ux + g_uy * gf.uy), m,
                           out=np.zeros_like(m), where=m > 0)

        # back through the difference stencils of gradient_central
        for g, spacing, axis in ((inv * g_ux + gf.gx * radial, fine.dx, 1),
                                 (inv * g_uy + gf.gy * radial, fine.dy, 0)):
            o, g = np.moveaxis(g_t, axis, 1), np.moveaxis(g, axis, 1)
            o[:, 2:] += g[:, 1:-1] / (2.0 * spacing)
            o[:, :-2] -= g[:, 1:-1] / (2.0 * spacing)
            o[:, 1] += g[:, 0] / spacing
            o[:, 0] -= g[:, 0] / spacing
            o[:, -1] += g[:, -1] / spacing
            o[:, -2] -= g[:, -1] / spacing
        return g_t
