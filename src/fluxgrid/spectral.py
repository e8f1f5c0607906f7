"""Radially averaged log-spectral density and the spectral-slope loss.

The 2-D power spectrum is radially averaged into unit-width annuli of
integer radius (after scaling the normalized radial wavenumber by the
shorter axis length), the slope of log10(power) vs log10(k) is fitted by
ordinary least squares over an inertial range, and the loss between two
fields is the absolute difference of their fitted slopes.

power_spectrum_2d and radial_profile keep the full k grid; ralsd bins the
real half-spectrum (rfft2, as |F(-k)| = |F(k)|), each column weighing 2 but
column 0 and an even width's Nyquist column: the same profile, half the work.
It takes that rfft2 as an rfft along the rows, block by block into one reused
buffer (out=, numpy >= 2.0), and then an FFT down the columns in place:
bitwise the same. Every profile comes from one power step, _profile, fed a
half-spectrum in row blocks: the prediction's from _half_spectrum, and
ralsd_upsampled_pair's untapered upsampled coarse reference's from
grid_core.upsampled_rfft2. ralsd_upsampled_pair takes both on one band, the
rows and columns of the half-spectrum whose on-axis radius is at most that of
the fit range's last bin (_band): every k of smaller radius lies in it, so its
profiles, which end at that bin, sum the same terms in the same order as
ralsd's. A constant grid raises, the coarse one too: its spectrum is the Hann
taper's, or untapered rounding noise.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import grid_core
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


def _radius(fy, fx, n_short):
    """The radius bin of each k of the k grid fy x fx: |k| * n_short, rounded."""
    r = fx * fx + fy * fy  # then in place: a metrics child builds this table cold
    return np.rint(np.multiply(np.sqrt(r, out=r), n_short, out=r), out=r).astype(np.int64)


def _band(height, width, top):
    """The band of the real half-spectrum of a height x width grid whose rows and
    columns have an on-axis radius bin of at most top, the whole of it if top is
    None: (lead, trail, cols), its first lead and last trail rows and its first
    cols columns. A k's radius bin is at least its row's and its column's, so the
    band holds every k of radius at most top."""
    if top is None:
        return height, 0, width // 2 + 1
    fy, n_short = np.fft.fftfreq(height), min(height, width)
    keep = _radius(fy, 0.0, n_short) <= top  # |fy| rises, then falls
    lead = int(np.count_nonzero(keep[:(height + 1) // 2]))
    return (lead, int(np.count_nonzero(keep)) - lead,
            int(np.count_nonzero(_radius(0.0, np.fft.rfftfreq(width), n_short) <= top)))


@functools.lru_cache(maxsize=4)
def _annulus_table(height, width, half, top=None):
    """Read-only (radius bin of each k, column weights, weighted bin counts) on the
    k grid fftfreq(height) x fftfreq(width), or x rfftfreq(width) if half, where
    each column but 0 and an even width's Nyquist column also counts its mirror.
    With top (half only), on _band's rows and columns alone, with the counts of
    the bins up to top: every k of those is in the band, in the same order."""
    fy, fx = np.fft.fftfreq(height), (np.fft.rfftfreq if half else np.fft.fftfreq)(width)
    weights = np.full(fx.size, 1.0 + half)
    weights[0], weights[-1] = 1, 1 + half * (width % 2)
    if half:
        lead, trail, cols = _band(height, width, top)
        fy, fx, weights = fy[np.r_[:lead, height - trail:height]], fx[:cols], weights[:cols]
    radius = _radius(fy[:, None], fx[None, :], min(height, width)).ravel()
    counts = np.bincount(radius) * (1 + half)  # less 1 for each k in a column of weight 1
    for col in np.flatnonzero(weights < 1 + half):
        counts -= np.bincount(radius.reshape(fy.size, -1)[:, col], minlength=counts.size)
    table = radius, weights, counts[:None if top is None else top + 1]
    for arr in table:
        arr.flags.writeable = False
    return table


def _annuli(power, height, width, half, top=None):
    """SpectrumProfile of power, already weighted, on _annulus_table's k grid:
    its bins up to top if given."""
    radius, _, counts = _annulus_table(height, width, half, top)
    n_short = min(height, width)
    sums = np.bincount(radius, power.ravel(), counts.size)

    # drop DC (bin 0) and any empty annuli
    idx = np.flatnonzero(counts[1:]) + 1
    return SpectrumProfile(k_bins=idx.astype(np.float64) / n_short, psi=sums[idx] / counts[idx],
                           counts=counts[idx], n_short=n_short)


def default_fit_range(profile):
    """Inertial-range bins: from 4 cycles/domain up to half the Nyquist
    of the shorter axis. Returned as index positions into the profile."""
    return _default_ends(profile, MIN_FIT_BINS)


def _default_ends(profile, need):
    """default_fit_range's first and last bin, which must number at least need."""
    r = np.rint(profile.k_bins * profile.n_short).astype(np.int64)
    in_range = np.nonzero((r >= 4) & (profile.k_bins <= 0.25))[0]
    if in_range.size < need:
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


def _fit_top(n_short, fit_lo, fit_hi):
    """The radius bin of the last bin of the fit range, or None where judging the
    range takes the whole profile: an end below 0, or one past radius n_short // 2.
    Every radius up to n_short // 2 lies on the shorter axis, so there bin i is
    radius i + 1; a defaulted end is bin 3 or n_short // 4 - 1, default_fit_range's
    when it has bins."""
    ends = (3 if fit_lo is None else fit_lo, n_short // 4 - 1 if fit_hi is None else fit_hi)
    return max(ends) + 1 if 0 <= min(ends) and max(ends) < n_short // 2 else None


def _half_spectrum(values, top=None):
    """rfft2(values) on _band(*values.shape, top), as row blocks of one complex
    array: the rfft of each row block goes to one reused buffer (out=), of which
    the band's columns are kept, and the FFT down those columns runs in place."""
    height, width = values.shape
    lead, trail, cols = _band(height, width, top)
    spec = np.empty((height, cols), complex)
    rows = max(1, grid_core.BLOCK_ELEMS // (2 * (width // 2 + 1)))  # complex: 2 float64s
    buf = np.empty((min(rows, height), width // 2 + 1), complex)
    for start in range(0, height, rows):
        stop = min(start + rows, height)
        spec[start:stop] = np.fft.rfft(values[start:stop], axis=1,
                                       out=buf[:stop - start])[:, :cols]
    np.fft.fft(spec, axis=0, out=spec)
    return spec[:lead], spec[height - trail:]


def _profile(blocks, height, width, fit_lo, fit_hi, top=None):
    """The profile of a height x width grid from its real half-spectrum on
    _band(height, width, top), given as row blocks whose imag parts are
    overwritten: each column's power weighted as _annulus_table says, then binned
    up to top, with the slope fit over [fit_lo, fit_hi]. An end left None is
    default_fit_range's; with one end given, the range is judged as resolved."""
    radius, weights, _ = _annulus_table(height, width, True, top)
    power, row = np.empty((radius.size // weights.size, weights.size)), 0
    for f_hat in blocks:
        block = np.square(f_hat.real, out=power[row:row + len(f_hat)])
        block += np.square(f_hat.imag, out=f_hat.imag)
        block *= weights
        row += len(f_hat)
    profile = _annuli(power, height, width, True, top)
    if fit_lo is None or fit_hi is None:
        lo, hi = _default_ends(profile, MIN_FIT_BINS if fit_lo is None and fit_hi is None else 1)
        fit_lo = lo if fit_lo is None else fit_lo
        fit_hi = hi if fit_hi is None else fit_hi
    profile.alpha, profile.intercept = fit_slope(profile, fit_lo, fit_hi)
    profile.fit_lo, profile.fit_hi = fit_lo, fit_hi
    return profile


def _check_varies(values):
    """Raise on constant values: their spectrum is a taper's, or rounding noise."""
    if np.ptp(values[0]) == 0 and np.ptp(values) == 0:  # row 0 settles most
        raise DegenerateSpectrumError("zero power off DC: the grid is constant")


def _ralsd(grid, fit_lo, fit_hi, window, top):
    """ralsd, binned up to top (see _fit_top)."""
    values = _spectrum_input(grid, window)
    _check_varies(grid.values)
    return _profile(_half_spectrum(values, top), grid.height, grid.width, fit_lo, fit_hi, top)


def ralsd(grid, fit_lo=None, fit_hi=None, window=False):
    """Full radial profile with the slope fit attached.

    The profile is radial_profile(power_spectrum_2d(grid, window)), binned
    from the real half-spectrum (rfft2, its column FFT in place) with
    mirrored-column weights. A constant grid raises: its spectrum is the taper's
    under window, and untapered its FFT may leave rounding noise off DC.
    """
    return _ralsd(grid, fit_lo, fit_hi, window, None)


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
    pair.scale_x), fit_lo, fit_hi, window), with both profiles ending at the fit
    range's last bin; a constant coarse grid raises like a constant prediction,
    after the prediction's spectrum. Both spectra are taken on the band of rows
    and columns that bin reaches (_band, _fit_top), bitwise on those bins: the
    prediction's through _half_spectrum, and the untapered reference's block by
    block from the coarse grid's own DFT (grid_core.upsampled_rfft2), so neither
    the upsampled field nor a whole complex spectrum is built. A Hann taper breaks
    the polyphase structure that DFT rests on, so window=True upsamples. A range
    that takes the whole profile to judge bins every radius."""
    fine, coarse, scales = pair.fine, pair.coarse, (pair.scale_y, pair.scale_x)
    top = _fit_top(min(fine.height, fine.width), fit_lo, fit_hi)
    p_pred = _named("pred", _ralsd, fine, fit_lo, fit_hi, window, top)
    _named("ref", _check_varies, coarse.values)
    if window:
        return p_pred, _named("ref", _ralsd, upsample_quadratic(coarse, *scales),
                              p_pred.fit_lo, p_pred.fit_hi, window, top)
    lead, trail, cols = _band(fine.height, fine.width, top)
    blocks = upsampled_rfft2(coarse, *scales, np.r_[:lead, fine.height - trail:fine.height],
                             cols)
    return p_pred, _named("ref", _profile, blocks, fine.height, fine.width, p_pred.fit_lo,
                          p_pred.fit_hi, top)


def spectral_loss(pred, ref, fit_lo=None, fit_hi=None, window=False):
    """Absolute difference of the fitted slopes of two same-shape grids."""
    p_pred, p_ref = ralsd_pair(pred, ref, fit_lo, fit_hi, window)
    return abs(p_pred.alpha - p_ref.alpha)
