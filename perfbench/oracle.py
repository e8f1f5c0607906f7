"""Reference values for the benchmark's output checks.

Written from the definitions in the fluxgrid README and PAPER.md with
plain numpy, sharing no code with the package, so a wrong result from
the program cannot also be the expected one. Cell fluxes are edge sums
over a block-reshaped view rather than the package's boundary-site
gather, and the quadratic upsampler is an explicit interpolation matrix.
"""

import math

import numpy as np

EPS = 1e-6


def _gradient(values, dx, dy):
    """Centered differences inside, first-order one-sided at the edges."""
    gy, gx = np.gradient(values, dy, dx)
    return gx, gy


def cell_ratios(values, dx, dy, cell_h, cell_w, eps=EPS):
    """Per-cell R_eff = Phi_adv / (Phi_diff + eps), shape (n_rows, n_cols)."""
    h, w = values.shape
    gx, gy = _gradient(values, dx, dy)
    mag = np.sqrt(gx * gx + gy * gy)
    ux, uy = gx / (mag + eps), gy / (mag + eps)
    shape = (h // cell_h, cell_h, w // cell_w, cell_w)
    t, ux, uy, mag = (a.reshape(shape) for a in (values, ux, uy, mag))
    # outward normals: top (0,-1), bottom (0,1), left (-1,0), right (1,0);
    # corners count once per incident edge
    adv = ((t[:, -1] * uy[:, -1]).sum(-1) - (t[:, 0] * uy[:, 0]).sum(-1)
           + (t[..., -1] * ux[..., -1]).sum(1) - (t[..., 0] * ux[..., 0]).sum(1))
    diff = (mag[:, 0].sum(-1) + mag[:, -1].sum(-1)
            + mag[..., 0].sum(1) + mag[..., -1].sum(1))
    b_len = 2 * (cell_h + cell_w)
    return (adv / b_len) / (diff / b_len + eps)


def pde_loss(fine, fine_d, coarse, coarse_d, cell=None):
    """(L_PDE, fine-scale R_eff) with the gcd supergrid unless cell is given.

    fine_d and coarse_d are (dx, dy); cell is in coarse pixels.
    """
    if cell is None:
        g = math.gcd(*coarse.shape)
        cell = (coarse.shape[0] // g, coarse.shape[1] // g)
    sy = fine.shape[0] // coarse.shape[0]
    sx = fine.shape[1] // coarse.shape[1]
    r_c = cell_ratios(coarse, *coarse_d, *cell)
    r_f = cell_ratios(fine, *fine_d, cell[0] * sy, cell[1] * sx)
    return float(np.mean((r_f - r_c) ** 2)), r_f


def _interp_matrix(n_coarse, scale):
    """Three-point Lagrange weights from coarse to fine cell centers."""
    u = (np.arange(n_coarse * scale) + 0.5) / scale - 0.5
    c = np.clip(np.rint(u).astype(int), 1, n_coarse - 2)
    t = u - c
    m = np.zeros((u.size, n_coarse))
    rows = np.arange(u.size)
    m[rows, c - 1] = 0.5 * t * (t - 1.0)
    m[rows, c] = (1.0 - t) * (1.0 + t)
    m[rows, c + 1] = 0.5 * t * (t + 1.0)
    return m


def upsample(coarse, scale_y, scale_x):
    return (_interp_matrix(coarse.shape[0], scale_y) @ coarse
            @ _interp_matrix(coarse.shape[1], scale_x).T)


def radial_spectrum(values):
    """(k, mean power) per integer-radius annulus, DC and empty bins dropped."""
    h, w = values.shape
    psd = np.abs(np.fft.fft2(values)) ** 2
    n_short = min(h, w)
    k = np.hypot(np.fft.fftfreq(w)[None, :], np.fft.fftfreq(h)[:, None])
    radius = np.rint(k * n_short).astype(int).ravel()
    counts = np.bincount(radius)
    sums = np.bincount(radius, weights=psd.ravel())
    keep = np.nonzero(counts)[0]
    keep = keep[keep > 0]
    return keep / n_short, sums[keep] / counts[keep], n_short


def fit_range(k, n_short):
    """First and last profile index with radius >= 4 and k <= 0.25."""
    idx = np.nonzero((np.rint(k * n_short) >= 4) & (k <= 0.25))[0]
    return int(idx[0]), int(idx[-1])


def slope(k, psi, lo, hi):
    x, y = np.log10(k[lo:hi + 1]), np.log10(psi[lo:hi + 1])
    x0 = x - x.mean()
    return float(np.dot(x0, y - y.mean()) / np.dot(x0, x0))


def metrics_report(pred, truth, coarse, fine_d, coarse_d):
    """The numbers `fluxgrid metrics` reports, keyed as in its JSON."""
    diff = pred - truth
    t0 = truth - truth.mean()
    p0 = pred - pred.mean()
    l_flux, r_f = pde_loss(pred, fine_d, coarse, coarse_d)
    k, psi, n_short = radial_spectrum(pred)
    lo, hi = fit_range(k, n_short)
    alpha_pred = slope(k, psi, lo, hi)
    ref = upsample(coarse, pred.shape[0] // coarse.shape[0],
                   pred.shape[1] // coarse.shape[1])
    k_r, psi_r, _ = radial_spectrum(ref)
    alpha_ref = slope(k_r, psi_r, lo, hi)
    l_spec = abs(alpha_pred - alpha_ref)
    return {
        "metrics": {
            "rmse": float(np.sqrt(np.mean(diff * diff))),
            "r2": float(1.0 - np.sum(diff * diff) / np.sum(t0 * t0)),
            "pcc": float(np.sum(p0 * t0) / np.sqrt(np.sum(p0 * p0) * np.sum(t0 * t0))),
            "bias": float(np.mean(diff)),
            "n": pred.size,
            "l_flux": l_flux,
            "l_spec": l_spec,
        },
        "flux": {"l_flux": l_flux, "n_cells": r_f.size,
                 "r_eff_fine": {"min": float(r_f.min()), "max": float(r_f.max()),
                                "mean": float(r_f.mean())}},
        "spectral": {"alpha_pred": alpha_pred, "alpha_ref": alpha_ref,
                     "l_spec": l_spec, "fit_range": [lo, hi]},
    }
