"""Radially averaged log-spectral density and the spectral-slope loss.

The 2-D power spectrum is radially averaged into unit-width annuli of
integer radius (after scaling the normalized radial wavenumber by the
shorter axis length), the slope of log10(power) vs log10(k) is fitted by
ordinary least squares over an inertial range, and the loss between two
fields is the absolute difference of their fitted slopes.

power_spectrum_2d and radial_profile keep the full k grid; ralsd bins the
real half-spectrum (rfft2, as |F(-k)| = |F(k)|), each column weighing 2 but
column 0 and an even width's Nyquist column: the same profile, half the work.
It takes that rfft2 as an rfft along the rows and then an FFT down the
columns in place (out=, numpy >= 2.0): bitwise the same, in one complex array.
Every profile comes from one power step, _profile, fed a half-spectrum in row
blocks: ralsd's as one block, and ralsd_upsampled_pair's upsampled coarse
reference's block by block from grid_core.upsampled_rfft2. ralsd raises on a
constant field: its spectrum is the Hann taper's, or untapered rounding noise.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, TooSmallGridError
from .grid_core import upsample_quadratic, upsampled_rfft2

MIN_SPECTRUM_DIM = 8
MIN_FIT_BINS = 4


@dataclass
class SpectrumProfile:
    """Radial spectrum: bin centers in cycles/pixel, per-annulus mean power.

    n_short is the length of the shorter grid axis; bin i spans radius
    i +/- 0.5 in units of 1/n_short. Fit fields stay None until a slope
    fit is attached.
    """

    k_bins: np.ndarray
    psi: np.ndarray
    counts: np.ndarray
    n_short: int
    alpha: float | None = None
    intercept: float | None = None
    fit_lo: int | None = None
    fit_hi: int | None = None


def _spectrum_input(grid, window):
    """grid.values, Hann-tapered when window is set; small grids raise."""
    if grid.height < MIN_SPECTRUM_DIM or grid.width < MIN_SPECTRUM_DIM:
        raise TooSmallGridError(
            f"spectrum needs at least {MIN_SPECTRUM_DIM}x{MIN_SPECTRUM_DIM}, "
            f"got {grid.height}x{grid.width}")
    if not window:
        return grid.values
    return grid.values * np.hanning(grid.height)[:, None] * np.hanning(grid.width)[None, :]


def power_spectrum_2d(grid, window=False):
    """Squared magnitude of the unnormalized 2-D DFT on the full k grid.

    The DC coefficient is kept in the array; radial binning excludes it.
    window=True applies a separable Hann taper first (opt-in; slopes
    shift slightly under tapering). ralsd bins the half-spectrum instead.
    """
    return np.abs(np.fft.fft2(_spectrum_input(grid, window))) ** 2


def radial_profile(psd, height, width):
    """Group spectral power into concentric annuli of the radial wavenumber.

    Frequencies are normalized per axis (cycles/pixel), so annuli are
    circles in physical wavenumber on anisotropic grids; radii are then
    scaled by the shorter axis and rounded to unit-width integer bins.
    """
    if psd.shape != (height, width):
        raise ValueError(f"psd shape {psd.shape} does not match ({height}, {width})")
    return _annuli(psd, height, width, half=False)


@functools.lru_cache(maxsize=4)
def _annulus_table(height, width, half):
    """Read-only (radius bin of each k, column weights, weighted bin counts) on the
    k grid fftfreq(height) x fftfreq(width), or x rfftfreq(width) if half, where
    each column but 0 and an even width's Nyquist column also counts its mirror."""
    fx = (np.fft.rfftfreq if half else np.fft.fftfreq)(width)[None, :]
    fy = np.fft.fftfreq(height)[:, None]
    r = fx * fx + fy * fy  # then in place: a metrics child builds this table cold
    r = np.rint(np.multiply(np.sqrt(r, out=r), min(height, width), out=r), out=r)
    radius = r.astype(np.int64).ravel()
    weights = np.full(fx.size, 1.0 + half)
    weights[0], weights[-1] = 1, 1 + half * (width % 2)
    counts = np.bincount(radius) * (1 + half)  # less 1 for each k in a column of weight 1
    for col in np.flatnonzero(weights < 1 + half):
        counts -= np.bincount(radius.reshape(height, -1)[:, col], minlength=counts.size)
    table = radius, weights, counts
    for arr in table:
        arr.flags.writeable = False
    return table


def _annuli(power, height, width, half):
    """SpectrumProfile of power, already weighted, on _annulus_table's k grid."""
    radius, _, counts = _annulus_table(height, width, half)
    n_short = min(height, width)
    sums = np.bincount(radius, power.ravel(), counts.size)

    # drop DC (bin 0) and any empty annuli
    idx = np.flatnonzero(counts[1:]) + 1
    return SpectrumProfile(k_bins=idx.astype(np.float64) / n_short, psi=sums[idx] / counts[idx],
                           counts=counts[idx], n_short=n_short)


def default_fit_range(profile):
    """Inertial-range bins: from 4 cycles/domain up to half the Nyquist
    of the shorter axis. Returned as index positions into the profile."""
    r = np.rint(profile.k_bins * profile.n_short).astype(np.int64)
    in_range = np.nonzero((r >= 4) & (profile.k_bins <= 0.25))[0]
    if in_range.size < MIN_FIT_BINS:
        raise DegenerateSpectrumError(
            f"only {in_range.size} bins in the default fit range; "
            f"need at least {MIN_FIT_BINS}")
    return int(in_range[0]), int(in_range[-1])


def fit_slope(profile, fit_lo, fit_hi):
    """OLS slope of log10(psi) against log10(k) over bins [fit_lo, fit_hi]."""
    last = len(profile.psi) - 1
    if not (0 <= fit_lo <= last and 0 <= fit_hi <= last):
        raise ValueError(f"fit range [{fit_lo}, {fit_hi}] is not within the bins [0, {last}]")
    if fit_lo > fit_hi:
        raise ValueError(f"fit range [{fit_lo}, {fit_hi}] is empty: fit_lo > fit_hi")
    if fit_hi - fit_lo < MIN_FIT_BINS - 1:
        raise ValueError(
            f"fit range [{fit_lo}, {fit_hi}] has fewer than {MIN_FIT_BINS} bins")
    psi = profile.psi[fit_lo:fit_hi + 1]
    k = profile.k_bins[fit_lo:fit_hi + 1]
    if np.any(psi <= 0):
        raise DegenerateSpectrumError(
            f"zero power inside fit bins [{fit_lo}, {fit_hi}]; log fit undefined")
    alpha, intercept = np.polyfit(np.log10(k), np.log10(psi), 1)
    return float(alpha), float(intercept)


def _profile(blocks, height, width, fit_lo, fit_hi):
    """The profile of a height x width grid from its real half-spectrum, given
    as row blocks whose imag parts are overwritten: each column's power weighted
    as _annulus_table says, then binned, with the slope fit over [fit_lo,
    fit_hi], either of which defaults to default_fit_range's."""
    power, row = np.empty((height, width // 2 + 1)), 0
    for f_hat in blocks:
        block = np.square(f_hat.real, out=power[row:row + len(f_hat)])
        block += np.square(f_hat.imag, out=f_hat.imag)
        block *= _annulus_table(height, width, True)[1]
        row += len(f_hat)
    profile = _annuli(power, height, width, half=True)
    if fit_lo is None or fit_hi is None:
        lo, hi = default_fit_range(profile)
        fit_lo = lo if fit_lo is None else fit_lo
        fit_hi = hi if fit_hi is None else fit_hi
    profile.alpha, profile.intercept = fit_slope(profile, fit_lo, fit_hi)
    profile.fit_lo, profile.fit_hi = fit_lo, fit_hi
    return profile


def ralsd(grid, fit_lo=None, fit_hi=None, window=False):
    """Full radial profile with the slope fit attached.

    The profile is radial_profile(power_spectrum_2d(grid, window)), binned
    from the real half-spectrum (rfft2, taken in place) with mirrored-column
    weights. A constant grid raises: its spectrum is the taper's under window,
    and untapered its FFT may leave rounding noise off DC.
    """
    values = _spectrum_input(grid, window)
    if np.ptp(grid.values) == 0:
        raise DegenerateSpectrumError("zero power off DC: the grid is constant")
    f_hat = np.fft.rfft(values, axis=1)  # rfft2, in one array
    np.fft.fft(f_hat, axis=0, out=f_hat)
    return _profile([f_hat], grid.height, grid.width, fit_lo, fit_hi)


def _named(label, func, *args):
    """func(*args), with a degenerate spectrum's message naming its grid."""
    try:
        return func(*args)
    except DegenerateSpectrumError as exc:
        raise DegenerateSpectrumError(f"{label} grid: {exc}") from exc


def ralsd_pair(pred, ref, fit_lo=None, fit_hi=None, window=False):
    """ralsd profiles of two same-shape grids, ref's over pred's fit range;
    a degenerate spectrum names its grid."""
    if (pred.height, pred.width) != (ref.height, ref.width):
        raise ValueError(
            f"pred is {pred.height}x{pred.width}, ref is {ref.height}x{ref.width}; "
            "slope comparison needs identical dims")
    p_pred = _named("pred", ralsd, pred, fit_lo, fit_hi, window)
    return p_pred, _named("ref", ralsd, ref, p_pred.fit_lo, p_pred.fit_hi, window)


def ralsd_upsampled_pair(pair, fit_lo=None, fit_hi=None, window=False):
    """ralsd_pair(pair.fine, upsample_quadratic(pair.coarse, pair.scale_y,
    pair.scale_x), fit_lo, fit_hi, window). Untapered, the reference's
    half-spectrum comes block by block from the coarse grid's own DFT
    (grid_core.upsampled_rfft2), so neither the upsampled field nor its
    complex spectrum is built; a Hann taper breaks the polyphase structure
    that rests on, so window=True upsamples. A constant coarse grid, whose taper
    would give the reference the taper's slope (and whose upsampled field is
    constant only to rounding), takes the untapered path, exactly 0 off DC."""
    fine, coarse, scales = pair.fine, pair.coarse, (pair.scale_y, pair.scale_x)
    p_pred = _named("pred", ralsd, fine, fit_lo, fit_hi, window)
    if window and np.ptp(coarse.values) > 0:
        return p_pred, _named("ref", ralsd, upsample_quadratic(coarse, *scales),
                              p_pred.fit_lo, p_pred.fit_hi, window)
    return p_pred, _named("ref", _profile, upsampled_rfft2(coarse, *scales), fine.height,
                          fine.width, p_pred.fit_lo, p_pred.fit_hi)


def spectral_loss(pred, ref, fit_lo=None, fit_hi=None, window=False):
    """Absolute difference of the fitted slopes of two same-shape grids."""
    p_pred, p_ref = ralsd_pair(pred, ref, fit_lo, fit_hi, window)
    return abs(p_pred.alpha - p_ref.alpha)
