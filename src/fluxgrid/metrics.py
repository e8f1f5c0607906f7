"""Pixel-wise statistical metrics over a (prediction, truth) grid pair.

Degenerate denominators (constant fields) raise instead of returning
NaN so downstream reports never silently carry NaN.
"""

from dataclasses import dataclass

import numpy as np

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


def _sums(pred, truth, centred=True):
    """One pass over a grid pair: [rmse, bias, the sum of squared errors and, if
    centred, the dots (p.p, t.t, p.t) of the mean-removed fields, else None].
    p.p or t.t is 0 for a constant field (max == min)."""
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DimensionMismatchError(
            f"pred is {pred.height}x{pred.width}, truth is {truth.height}x{truth.width}")
    pv, tv = pred.values.ravel(), truth.values.ravel()
    diff = pv - tv
    ss_res = float(np.einsum("i,i", diff, diff))  # not np.dot: BLAS may start threads
    sums = [float(np.sqrt(ss_res / diff.size)), float(np.mean(diff)), ss_res, None]
    if centred:
        p = pv - pv.mean()
        t = np.subtract(tv, tv.mean(), out=diff)
        pp, tt, pt = (float(np.einsum("i,i", a, b)) for a, b in ((p, p), (t, t), (p, t)))
        # a constant field's mean may be inexact, leaving rounding noise in its dots
        sums[3] = (pp if np.ptp(pv) > 0 else 0.0, tt if np.ptp(tv) > 0 else 0.0, pt)
    return sums


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
    return _sums(pred, truth, centred=False)[0]


def bias(pred, truth):
    """Mean signed pixel error."""
    return _sums(pred, truth, centred=False)[1]


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
