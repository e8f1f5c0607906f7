"""Pixel-wise statistical metrics over a (prediction, truth) grid pair.

Degenerate denominators (constant fields) raise instead of returning
NaN so downstream reports never silently carry NaN.
"""

from dataclasses import dataclass

import numpy as np

from . import grid_core
from .errors import DegenerateVarianceError, DimensionMismatchError


@dataclass
class MetricReport:
    """The four statistical metrics plus optional physics-aware extras."""

    rmse: float
    r2: float
    pcc: float
    bias: float
    n: int
    l_flux: float | None = None
    l_spec: float | None = None


def _dot(a, b):
    return float(np.einsum("i,i", a, b))  # not np.dot: BLAS may start threads


def _sums(pred, truth):
    """[rmse, bias, the sum of squared errors, the dots (p.p, t.t, p.t) of the
    mean-removed fields], over blocks of grid_core.BLOCK_ELEMS pixels in two
    passes: the raw sums with min and max, then the centred dots. p.p or t.t
    is 0 for a constant field (max == min)."""
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DimensionMismatchError(
            f"pred is {pred.height}x{pred.width}, truth is {truth.height}x{truth.width}")
    pv, tv, block = pred.values.ravel(), truth.values.ravel(), grid_core.BLOCK_ELEMS
    blocks = [(pv[a:a + block], tv[a:a + block]) for a in range(0, pv.size, block)]
    buf = np.empty((2, blocks[0][0].size))
    ss_res = s_diff = s_p = s_t = 0.0
    lo_p = hi_p = pv[0]
    lo_t = hi_t = tv[0]
    for p, t in blocks:
        diff = np.subtract(p, t, out=buf[0, :p.size])
        ss_res += _dot(diff, diff)
        s_diff += float(diff.sum())
        s_p, s_t = s_p + float(p.sum()), s_t + float(t.sum())
        lo_p, hi_p = min(lo_p, p.min()), max(hi_p, p.max())
        lo_t, hi_t = min(lo_t, t.min()), max(hi_t, t.max())
    mean_p, mean_t = s_p / pv.size, s_t / pv.size
    pp = tt = pt = 0.0
    for p, t in blocks:
        pc = np.subtract(p, mean_p, out=buf[0, :p.size])
        tc = np.subtract(t, mean_t, out=buf[1, :t.size])
        pp, tt, pt = pp + _dot(pc, pc), tt + _dot(tc, tc), pt + _dot(pc, tc)
    # a constant field's mean may be inexact, leaving rounding noise in its dots
    return [float(np.sqrt(ss_res / pv.size)), s_diff / pv.size, ss_res,
            (pp if hi_p > lo_p else 0.0, tt if hi_t > lo_t else 0.0, pt)]


def _r_squared(ss_res, ss_tot):
    if ss_tot == 0:
        raise DegenerateVarianceError("truth field is constant; R^2 undefined")
    return 1.0 - ss_res / ss_tot


def _pearson(pp, tt, pt):
    if pp == 0:
        raise DegenerateVarianceError("pred field is constant; PCC undefined")
    if tt == 0:
        raise DegenerateVarianceError("truth field is constant; PCC undefined")
    return float(np.clip(pt / (np.sqrt(pp) * np.sqrt(tt)), -1.0, 1.0))


def rmse(pred, truth):
    """Root mean squared pixel error."""
    return _sums(pred, truth)[0]


def bias(pred, truth):
    """Mean signed pixel error."""
    return _sums(pred, truth)[1]


def r_squared(pred, truth):
    """Coefficient of determination against the truth mean; can be negative."""
    _, _, ss_res, (_, tt, _) = _sums(pred, truth)
    return _r_squared(ss_res, tt)


def pearson(pred, truth):
    """Pearson correlation, clamped to [-1, 1] against rounding."""
    return _pearson(*_sums(pred, truth)[3])


def metric_report(pred, truth):
    """All four statistical metrics from one pass over the pair."""
    rmse_, bias_, ss_res, (pp, tt, pt) = _sums(pred, truth)
    return MetricReport(rmse=rmse_, r2=_r_squared(ss_res, tt), pcc=_pearson(pp, tt, pt),
                        bias=bias_, n=pred.height * pred.width)
