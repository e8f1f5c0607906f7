"""Scalar grid type and the resolution-changing operators.

A Grid2D is a rectangular cell-centered scalar field (row index i runs
along y, column index j along x) with uniform spacing. Coarsening is a
block mean; upscaling is separable quadratic (Lagrange) interpolation of
cell-center samples, one-sided at the edges; upsampled_rfft2 gives the
upscaled field's half-spectrum from the coarse grid's own DFT.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError

BLOCK_ELEMS = 1 << 15  # float64 elements of one working array of a blocked walk: 256 KB


@dataclass
class Grid2D:
    """Uniformly spaced scalar field. values has shape (height, width)."""

    height: int
    width: int
    dx: float
    dy: float
    values: np.ndarray

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"grid dims must be positive, got {self.height}x{self.width}")
        if not all(math.isfinite(s) and s > 0 for s in (self.dx, self.dy)):
            raise ValueError(
                f"grid spacings must be finite and positive, got dx={self.dx}, dy={self.dy}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.height, self.width):
            raise DimensionMismatchError(
                f"values shape {self.values.shape} does not match "
                f"declared dims ({self.height}, {self.width})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @classmethod
    def from_values(cls, values, dx=1.0, dy=1.0):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DimensionMismatchError(f"expected a 2-D array, got ndim={values.ndim}")
        return cls(values.shape[0], values.shape[1], dx, dy, values)

    def with_values(self, values):
        """Same geometry, new values."""
        return Grid2D(self.height, self.width, self.dx, self.dy, np.asarray(values))


@dataclass
class GridPair:
    """A (coarse, fine) pair covering the same physical extent. Its coarse grid
    keeps the given values at the fine spacing times the scales: the spacing
    it came with (CSV's unit one, or an FGRD header's) is not used."""

    coarse: Grid2D
    fine: Grid2D
    scale_y: int
    scale_x: int

    def __post_init__(self):
        if self.fine.height != self.scale_y * self.coarse.height or \
                self.fine.width != self.scale_x * self.coarse.width:
            raise DimensionMismatchError(
                f"fine dims ({self.fine.height}, {self.fine.width}) are not coarse dims "
                f"({self.coarse.height}, {self.coarse.width}) times scales "
                f"({self.scale_y}, {self.scale_x})"
            )
        self.coarse = replace(self.coarse, dx=self.fine.dx * self.scale_x,
                              dy=self.fine.dy * self.scale_y)

    @classmethod
    def from_grids(cls, coarse, fine):
        """Pair grids whose dims nest, inferring the scales."""
        if fine.height % coarse.height != 0 or fine.width % coarse.width != 0:
            raise DimensionMismatchError(
                f"fine dims ({fine.height}, {fine.width}) are not an integer multiple "
                f"of coarse dims ({coarse.height}, {coarse.width})")
        return cls(coarse, fine, fine.height // coarse.height, fine.width // coarse.width)


def check_scales(height, width, scale_y, scale_x):
    """Raise unless the scales are >= 1 and divide a height x width grid."""
    if scale_y < 1 or scale_x < 1:
        raise ValueError(f"scales must be >= 1, got ({scale_y}, {scale_x})")
    if height % scale_y != 0:
        raise DimensionMismatchError(f"scale_y={scale_y} does not divide height={height}")
    if width % scale_x != 0:
        raise DimensionMismatchError(f"scale_x={scale_x} does not divide width={width}")


def coarsen_block_mean(fine, scale_y, scale_x):
    """Average scale_y x scale_x blocks of a fine grid into one coarse cell each."""
    check_scales(fine.height, fine.width, scale_y, scale_x)
    h, w = fine.height // scale_y, fine.width // scale_x
    blocks = fine.values.reshape(h, scale_y, w, scale_x)
    coarse = blocks.mean(axis=(1, 3))
    return Grid2D(h, w, fine.dx * scale_x, fine.dy * scale_y, coarse)


def _quad_weights_1d(n_coarse, scale):
    """Gather indices and Lagrange weights mapping n_coarse samples to
    n_coarse*scale fine cell centers along one axis.

    Returns (idx, wts): idx has shape (3, n_fine) of coarse indices and
    wts the matching weights. Stencil is the three nearest samples,
    clipped (one-sided) at the edges; with fewer than three samples the
    stencil degrades to linear or constant.
    """
    # fine center j sits at coarse coordinate u (in coarse-index units)
    return _quad_weights_at(n_coarse, (np.arange(n_coarse * scale) + 0.5) / scale - 0.5)


def _quad_weights_at(n_coarse, u):
    """_quad_weights_1d's (idx, wts) at coarse coordinates u, which may lie
    outside the samples: at u = -1 and u = n_coarse they give the ghost
    samples that the end stencils extrapolate to."""
    if n_coarse == 1:
        idx = np.zeros((3, u.size), dtype=int)
        wts = np.zeros((3, u.size))
        wts[1] = 1.0
        return idx, wts
    if n_coarse == 2:  # linear through the two samples, u relative to sample 0
        idx = np.vstack([np.zeros(u.size, int), np.zeros(u.size, int), np.ones(u.size, int)])
        return idx, np.vstack([np.zeros(u.size), 1.0 - u, u])
    center = np.clip(np.rint(u).astype(int), 1, n_coarse - 2)
    t = u - center
    idx = np.vstack([center - 1, center, center + 1])
    wts = np.vstack([0.5 * t * (t - 1.0), (1.0 - t) * (1.0 + t), 0.5 * t * (t + 1.0)])
    return idx, wts


def _quad_dft_1d(n_coarse, scale, half):
    """DFT factors of the quadratic upsampler along one axis, each of length
    n_coarse*scale, or its rfft length if half: (phi, lo, hi).

    Each end block of the upsampled line is the interior stencil applied to a
    ghost sample, its quadratic extrapolation at u = -1 or u = n_coarse (3c0 -
    3c1 + c2, 2c0 - c1 on 2 samples, c0 on 1). With the ghosts replaced by the
    wrapped samples c[-1] and c[0], the upsampler is a periodic polyphase
    filter, so the DFT of the line is phi * DFT(c)[k % n_coarse], plus lo times
    (ghost_lo - c[-1]) and hi times (ghost_hi - c[0]): lo and hi are the DFTs
    of the stencil's outer weights over the first and the last block.
    """
    _, wts = _quad_weights_1d(3, scale)
    wts = wts[:, scale:2 * scale]  # the middle block's: the interior stencil
    taps = np.zeros((3, n_coarse, scale))
    for j, w in zip((-1, 0, 1), wts):  # block m reads sample m + j, so sample 0
        taps[0, -j % n_coarse] += w    # reaches block -j (mod n_coarse)
    taps[1, 0], taps[2, -1] = wts[0], wts[2]
    return (np.fft.rfft if half else np.fft.fft)(taps.reshape(3, -1), axis=1)


def _upsampled_dft(vals, scale, half, ks, rows):
    """The DFT along axis 0 (the rfft's half if half) of
    _upsample_axis(vals, scale, 0) at the frequencies ks, from vals' own DFT
    through _quad_dft_1d, in blocks of rows of them."""
    n = vals.shape[0]
    phi, lo, hi = _quad_dft_1d(n, scale, half)
    idx, wts = _quad_weights_at(n, np.array([-1.0, n]))
    ghosts = [sum(w[e] * vals[i[e]] for i, w in zip(idx, wts)) for e in (0, 1)]
    jump_lo, jump_hi = ghosts[0] - vals[-1], ghosts[1] - vals[0]
    spec = np.fft.fft(vals, axis=0)
    for start in range(0, len(ks), rows):
        k = ks[start:start + rows]
        block = spec[k % n]
        block *= phi[k, None]
        block += lo[k, None] * jump_lo
        block += hi[k, None] * jump_hi
        yield block


def upsampled_rfft2(coarse, scale_y, scale_x, rows=None, cols=None):
    """rfft2(upsample_quadratic(coarse, scale_y, scale_x).values)[rows, :cols],
    every row and column by default, yielded in blocks of as many rows as fit in
    BLOCK_ELEMS float64 elements, from the coarse grid's own DFT: the upsampled
    field is never built, and only the columns kept are taken along x and only
    the rows kept along y. The coarse grid is taken less its first value, added back
    at DC, so that the DFTs round at the scale of its variation, not of its level,
    and a constant grid gives exactly 0 off DC."""
    check_scales(coarse.height * scale_y, coarse.width * scale_x, scale_y, scale_x)
    offset, height, width = coarse.values[0, 0], coarse.height * scale_y, coarse.width * scale_x
    rows = np.arange(height) if rows is None else rows
    cols = width // 2 + 1 if cols is None else cols
    # x first, in one block: the rfft of each row of the grid upsampled along x
    (along_x,) = _upsampled_dft((coarse.values - offset).T, scale_x, True, np.arange(cols),
                                cols)
    step = max(1, BLOCK_ELEMS // (2 * cols))  # a complex value is 2 float64s
    blocks = _upsampled_dft(along_x.T, scale_y, False, rows, step)
    first = next(blocks)
    if rows[0] == 0:  # DC
        first[0, 0] += offset * height * width
    yield first
    yield from blocks


def _upsample_axis(vals, scale, axis):
    """Quadratic interpolation of vals along axis (0 or 1) by scale: each fine
    sample gathers its own three-sample stencil."""
    idx, wts = _quad_weights_1d(vals.shape[axis], scale)
    wts = np.expand_dims(wts, 2 - axis)
    return (np.take(vals, idx[0], axis) * wts[0] + np.take(vals, idx[1], axis) * wts[1]
            + np.take(vals, idx[2], axis) * wts[2])


def upsample_quadratic(coarse, scale_y, scale_x):
    """Separable quadratic interpolation of cell-center samples.

    Exact on polynomials of degree <= 2 per axis; identity at scale 1.
    """
    check_scales(coarse.height * scale_y, coarse.width * scale_x, scale_y, scale_x)
    vals = _upsample_axis(_upsample_axis(coarse.values, scale_x, 1), scale_y, 0)
    return Grid2D(coarse.height * scale_y, coarse.width * scale_x,
                  coarse.dx / scale_x, coarse.dy / scale_y, vals)


def make_pair(fine, scale_y, scale_x):
    """Block-mean coarsen a fine grid and bundle the two as a GridPair."""
    coarse = coarsen_block_mean(fine, scale_y, scale_x)
    return GridPair(coarse, fine, scale_y, scale_x)
