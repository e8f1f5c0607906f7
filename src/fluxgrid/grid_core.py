"""Scalar grid type and the resolution-changing operators.

A Grid2D is a rectangular cell-centered scalar field (row index i runs
along y, column index j along x) with uniform spacing. Coarsening is a
block mean; upscaling is separable quadratic (Lagrange) interpolation of
cell-center samples, one-sided at the edges.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


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
    """A (coarse, fine) pair covering the same physical extent."""

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
    n_fine = n_coarse * scale
    # fine center j sits at coarse coordinate u (in coarse-index units)
    u = (np.arange(n_fine) + 0.5) / scale - 0.5
    if n_coarse == 1:
        idx = np.zeros((3, n_fine), dtype=int)
        wts = np.zeros((3, n_fine))
        wts[1] = 1.0
        return idx, wts
    if n_coarse == 2:  # linear through the two samples, u relative to sample 0
        idx = np.vstack([np.zeros(n_fine, int), np.zeros(n_fine, int), np.ones(n_fine, int)])
        return idx, np.vstack([np.zeros(n_fine), 1.0 - u, u])
    center = np.clip(np.rint(u).astype(int), 1, n_coarse - 2)
    t = u - center
    idx = np.vstack([center - 1, center, center + 1])
    wts = np.vstack([0.5 * t * (t - 1.0), (1.0 - t) * (1.0 + t), 0.5 * t * (t + 1.0)])
    return idx, wts


def _upsample_axis(vals, scale, axis):
    """Quadratic interpolation of vals along axis (0 or 1) by scale. The stencil
    is the same for every fine sample of a block, so only coarse lines are
    gathered, each broadcast over its block with (n, scale) weights."""
    n = vals.shape[axis]
    idx, wts = _quad_weights_1d(n, scale)
    lines = [np.expand_dims(np.take(vals, i, axis), axis + 1) for i in idx[:, ::scale]]
    wts = wts.reshape((3, n, scale) + (1,) * (1 - axis))
    out, tmp = lines[0] * wts[0], lines[1] * wts[1]
    out += tmp
    out += np.multiply(lines[2], wts[2], out=tmp)
    return out.reshape(n * scale if axis == 0 else vals.shape[0], -1)


def upsample_quadratic(coarse, scale_y, scale_x):
    """Separable quadratic interpolation of cell-center samples.

    Exact on polynomials of degree <= 2 per axis; identity at scale 1.
    """
    if scale_y < 1 or scale_x < 1:
        raise ValueError(f"scales must be >= 1, got ({scale_y}, {scale_x})")
    vals = _upsample_axis(_upsample_axis(coarse.values, scale_x, 1), scale_y, 0)
    return Grid2D(coarse.height * scale_y, coarse.width * scale_x,
                  coarse.dx / scale_x, coarse.dy / scale_y, vals)


def make_pair(fine, scale_y, scale_x):
    """Block-mean coarsen a fine grid and bundle the two as a GridPair."""
    coarse = coarsen_block_mean(fine, scale_y, scale_x)
    return GridPair(coarse, fine, scale_y, scale_x)
