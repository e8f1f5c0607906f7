import re
import tracemalloc

import numpy as np
import pytest

from fluxgrid import (Grid2D, GridPair, GrfSpec, coarsen_block_mean, default_fit_range,
                      fit_slope, gen_grf, power_spectrum_2d, radial_profile, ralsd,
                      spectral_loss, upsample_quadratic)
from fluxgrid import spectral
from fluxgrid.errors import DegenerateSpectrumError, TooSmallGridError
from fluxgrid.spectral import (SpectrumProfile, _annuli, _annulus_table, _profile,
                               ralsd_pair, ralsd_upsampled_pair)


def grid(values, dx=1.0, dy=1.0):
    return Grid2D.from_values(np.asarray(values, dtype=float), dx, dy)


class TestPowerSpectrum:
    def test_constant_all_dc(self):
        psd = power_spectrum_2d(grid(np.full((16, 16), 3.0)))
        assert psd[0, 0] == pytest.approx((3.0 * 256) ** 2)
        off_dc = psd.copy()
        off_dc[0, 0] = 0.0
        assert np.all(off_dc < 1e-20)

    def test_pure_tone_two_bins(self):
        n = 32
        x = np.arange(n)
        tone = np.cos(2 * np.pi * 5 * x / n)
        psd = power_spectrum_2d(grid(np.tile(tone, (n, 1))))
        peak = psd.max()
        mask = np.zeros_like(psd, dtype=bool)
        mask[0, 5] = mask[0, n - 5] = True
        assert np.all(psd[~mask] < 1e-18 * peak)
        assert psd[0, 5] == pytest.approx(psd[0, n - 5], rel=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(24, 40))
        psd = power_spectrum_2d(grid(vals))
        assert psd.sum() / vals.size == pytest.approx((vals ** 2).sum(), rel=1e-10)

    def test_too_small(self):
        with pytest.raises(TooSmallGridError):
            power_spectrum_2d(grid(np.zeros((4, 16))))


class TestRadialProfile:
    def test_pure_tone_single_bin(self):
        n = 32
        tone = np.cos(2 * np.pi * 5 * np.arange(n) / n)
        psd = power_spectrum_2d(grid(np.tile(tone, (n, 1))))
        prof = radial_profile(psd, n, n)
        hot = prof.psi > 1e-12 * prof.psi.max()
        assert hot.sum() == 1
        assert prof.k_bins[np.argmax(prof.psi)] == pytest.approx(5.0 / n)

    def test_dc_excluded_and_increasing(self):
        psd = power_spectrum_2d(grid(np.random.default_rng(0).normal(size=(16, 16))))
        prof = radial_profile(psd, 16, 16)
        assert prof.k_bins[0] > 0.0
        assert np.all(np.diff(prof.k_bins) > 0)
        assert np.all(prof.counts >= 1)

    def test_psd_of_other_dims_raises(self):
        psd = power_spectrum_2d(grid(np.zeros((16, 16))))
        with pytest.raises(ValueError, match=r"psd shape \(16, 16\) does not match \(16, 8\)"):
            radial_profile(psd, 16, 8)

    def test_isotropic_input_recovered(self):
        h = w = 64
        fy = np.fft.fftfreq(h)[:, None]
        fx = np.fft.fftfreq(w)[None, :]
        k = np.sqrt(fx * fx + fy * fy)
        psd = np.where(k > 0, np.exp(-3.0 * k), 0.0)
        prof = radial_profile(psd, h, w)
        expected = np.exp(-3.0 * prof.k_bins)
        # annulus radii are rounded to bins, so allow binning error
        np.testing.assert_allclose(prof.psi, expected, rtol=0.02)

    def test_white_noise_flat(self):
        ratios = []
        for seed in range(20):
            vals = np.random.default_rng(seed).normal(size=(64, 64))
            prof = radial_profile(power_spectrum_2d(grid(vals)), 64, 64)
            ratios.append(prof.psi.max() / prof.psi.min())
        assert np.median(ratios) < 2.0 / 0.5


class TestFitSlope:
    def _power_law_profile(self, slope, c=2.0):
        k = np.arange(1, 25) / 64.0
        return SpectrumProfile(k_bins=k, psi=c * k ** slope,
                               counts=np.ones(k.size, dtype=int), n_short=64)

    def test_exact_power_law(self):
        prof = self._power_law_profile(-3.0)
        alpha, _ = fit_slope(prof, 0, prof.k_bins.size - 1)
        assert alpha == pytest.approx(-3.0, abs=1e-10)

    def test_flat_profile(self):
        prof = self._power_law_profile(0.0, c=5.0)
        alpha, intercept = fit_slope(prof, 2, 10)
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(np.log10(5.0), abs=1e-12)

    def test_zero_power_raises(self):
        prof = self._power_law_profile(-2.0)
        prof.psi[5] = 0.0
        with pytest.raises(DegenerateSpectrumError):
            fit_slope(prof, 0, 10)

    def test_too_few_bins(self):
        prof = self._power_law_profile(-2.0)
        with pytest.raises(ValueError):
            fit_slope(prof, 0, 2)

    def test_grf_closure(self):
        alphas = [ralsd(gen_grf(GrfSpec(128, 128, -2.5, seed))).alpha
                  for seed in range(10)]
        assert np.mean(alphas) == pytest.approx(-2.5, abs=0.15)


class TestSpectralLoss:
    def test_identical_zero(self):
        g = gen_grf(GrfSpec(32, 32, -2.0, 1))
        assert spectral_loss(g, g) == 0.0

    def test_constant_offset_zero(self):
        g = gen_grf(GrfSpec(32, 32, -2.0, 1))
        shifted = g.with_values(g.values + 273.15)
        assert spectral_loss(g, shifted) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        a = gen_grf(GrfSpec(32, 32, -2.0, 1))
        b = gen_grf(GrfSpec(32, 32, -3.0, 2))
        assert spectral_loss(a, b) == pytest.approx(spectral_loss(b, a), abs=1e-14)

    def test_amplitude_invariance(self):
        g = gen_grf(GrfSpec(64, 64, -2.5, 3))
        scaled = g.with_values(g.values * 40.0)
        assert spectral_loss(g, scaled) == pytest.approx(0.0, abs=1e-10)

    def test_slope_gap_close_to_one(self):
        losses = []
        for seed in range(10):
            a = gen_grf(GrfSpec(128, 128, -3.0, seed))
            b = gen_grf(GrfSpec(128, 128, -2.0, seed))
            losses.append(spectral_loss(a, b))
        assert np.mean(losses) == pytest.approx(1.0, abs=0.3)

    def test_degenerate_labels_grid(self):
        const = grid(np.full((32, 32), 1.0))
        g = gen_grf(GrfSpec(32, 32, -2.0, 1))
        with pytest.raises(DegenerateSpectrumError, match="pred"):
            spectral_loss(const, g)
        with pytest.raises(DegenerateSpectrumError, match="ref"):
            spectral_loss(g, const)

    def test_grids_of_other_dims_raise(self):
        a, b = gen_grf(GrfSpec(32, 32, -2.0, 1)), gen_grf(GrfSpec(32, 48, -2.0, 1))
        with pytest.raises(ValueError, match="pred is 32x32, ref is 32x48"):
            ralsd_pair(a, b)


def test_default_fit_range_bounds():
    g = gen_grf(GrfSpec(128, 128, -2.0, 0))
    prof = radial_profile(power_spectrum_2d(g), 128, 128)
    lo, hi = default_fit_range(prof)
    assert prof.k_bins[lo] * 128 == pytest.approx(4.0)
    assert prof.k_bins[hi] <= 0.25


@pytest.mark.parametrize("window", [False, True])
@pytest.mark.parametrize("shape", [(64, 64), (33, 33), (37, 50), (50, 37), (96, 128)])
def test_ralsd_half_spectrum_matches_full(shape, window):
    g = grid(np.random.default_rng(shape[0] * shape[1]).normal(size=shape))
    half = ralsd(g, window=window)
    full = radial_profile(power_spectrum_2d(g, window), *shape)
    np.testing.assert_array_equal(half.k_bins, full.k_bins)
    np.testing.assert_array_equal(half.counts, full.counts)
    assert half.counts.dtype.kind == "i"
    np.testing.assert_allclose(half.psi, full.psi, rtol=1e-12, atol=0.0)
    alpha, intercept = fit_slope(full, half.fit_lo, half.fit_hi)
    assert half.alpha == pytest.approx(alpha, abs=1e-12)
    assert half.intercept == pytest.approx(intercept, abs=1e-12)


@pytest.mark.parametrize("window", [False, True])
@pytest.mark.parametrize("shape", [(8, 8), (9, 8), (8, 9), (33, 17), (37, 50), (64, 48),
                                   (127, 129), (256, 256)])
def test_ralsd_in_place_fft_matches_rfft2_bitwise(shape, window):
    g = grid(np.random.default_rng(shape[0] + 7 * shape[1]).normal(size=shape))
    x = g.values * np.hanning(shape[0])[:, None] * np.hanning(shape[1]) if window else g.values
    f_hat = np.fft.rfft2(x)
    power = np.square(f_hat.real) + np.square(f_hat.imag)
    power *= _annulus_table(*shape, True)[1]
    want = _annuli(power, *shape, half=True)
    got = ralsd(g, 0, 3, window)  # a fit range that small grids have
    np.testing.assert_array_equal(got.psi, want.psi)
    np.testing.assert_array_equal(got.k_bins, want.k_bins)


@pytest.mark.parametrize("shape", [(48, 48), (37, 50)])
@pytest.mark.parametrize("value", [7.0, 288.15, 0.1])
def test_a_tapered_constant_grid_is_degenerate(shape, value):
    # the check is on the values: untapered, a constant 37x50 grid of 0.1 has
    # rounding power off DC and fits a slope
    g = grid(np.full(shape, value))
    with pytest.raises(DegenerateSpectrumError, match="^zero power off DC"):
        ralsd(g, window=True)


@pytest.mark.parametrize("shape", [(48, 48), (37, 50)])
@pytest.mark.parametrize("value", [7.0, 288.15, 0.1])
def test_an_untapered_constant_grid_is_degenerate(shape, value):
    # its FFT leaves rounding power off DC at 37x50, which a fit would take for a slope
    g = grid(np.full(shape, value))
    with pytest.raises(DegenerateSpectrumError, match="^zero power off DC"):
        ralsd(g)


@pytest.mark.parametrize("shape, rows", [((64, 48), 64), ((64, 48), 5), ((37, 50), 7),
                                         ((37, 50), 1)])
def test_profile_does_not_depend_on_the_row_blocks(shape, rows):
    g = grid(np.random.default_rng(shape[0] * rows).normal(size=shape))
    f_hat = np.fft.rfft2(g.values)
    whole = _profile([f_hat.copy()], *shape, None, None)
    got = _profile([f_hat[i:i + rows].copy() for i in range(0, shape[0], rows)], *shape,
                   None, None)
    np.testing.assert_array_equal(got.psi, whole.psi)
    assert (got.alpha, got.intercept, got.fit_lo, got.fit_hi) == (
        whole.alpha, whole.intercept, whole.fit_lo, whole.fit_hi)


def test_ralsd_on_alternating_shapes_keeps_each_table():
    grids = [grid(np.random.default_rng(n).normal(size=shape))
             for n, shape in enumerate([(64, 64), (37, 50)])]
    for g in grids * 3:
        half = ralsd(g)
        full = radial_profile(power_spectrum_2d(g), g.height, g.width)
        np.testing.assert_array_equal(half.k_bins, full.k_bins)
        np.testing.assert_array_equal(half.counts, full.counts)
        np.testing.assert_allclose(half.psi, full.psi, rtol=1e-12, atol=0.0)
    for half in (False, True):
        for arr in _annulus_table(37, 50, half):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


def test_radial_profile_leaves_psd_alone():
    psd = power_spectrum_2d(gen_grf(GrfSpec(32, 32, -2.0, 4)))
    before = psd.copy()
    radial_profile(psd, 32, 32)
    assert np.array_equal(psd, before)


@pytest.mark.parametrize("lo,hi", [(2, 5000), (-3, 10), (0, 23)])
def test_fit_range_must_lie_within_the_profile(lo, hi):
    prof = ralsd(gen_grf(GrfSpec(32, 32, -2.0, 4)))
    assert len(prof.psi) == 23  # bins 0..22
    with pytest.raises(ValueError, match=r"within the bins \[0, 22\]"):
        fit_slope(prof, lo, hi)
    with pytest.raises(ValueError, match="within"):
        ralsd(gen_grf(GrfSpec(32, 32, -2.0, 4)), lo, hi)


def test_empty_fit_range_is_named_empty():
    prof = ralsd(gen_grf(GrfSpec(32, 32, -2.0, 4)))
    with pytest.raises(ValueError, match=r"fit range \[9, 5\] is empty: fit_lo > fit_hi"):
        fit_slope(prof, 9, 5)
    # an end outside the bins keeps its own message, whichever end is larger
    with pytest.raises(ValueError, match=r"fit range \[30, 5\] is not within the bins \[0, 22\]"):
        fit_slope(prof, 30, 5)


class TestHalfGivenFitRange:
    """One end given: the other is default_fit_range's, and the range is judged as
    resolved, by fit_slope's own checks."""

    def test_fits_where_the_default_range_is_too_short(self):
        g = gen_grf(GrfSpec(16, 16, -2.5, 0))  # the default range is radius 4 alone
        with pytest.raises(DegenerateSpectrumError,
                           match=r"^only 1 bins in the default fit range; need at least 4$"):
            ralsd(g)
        got, want = ralsd(g, None, 8), ralsd(g, 3, 8)
        assert (got.fit_lo, got.fit_hi) == (3, 8)
        assert (got.alpha, got.intercept) == (want.alpha, want.intercept)
        got = ralsd(g, 0, None)
        assert (got.fit_lo, got.fit_hi) == (0, 3)
        with pytest.raises(ValueError, match=r"^fit range \[3, 3\] has fewer than 4 bins$"):
            ralsd(g, 3, None)

    @pytest.mark.parametrize("fit", [(None, 5), (0, None)])
    def test_a_default_end_with_no_bin_is_degenerate(self, fit):
        g = grid(np.random.default_rng(0).normal(size=(12, 12)))  # no bin from radius 4 to 3
        with pytest.raises(DegenerateSpectrumError,
                           match=r"^only 0 bins in the default fit range; need at least 4$"):
            ralsd(g, *fit)

    def test_upsampled_pair_takes_the_same_range(self):
        pair = upsampled_pair((32, 32), (2, 2), 1)  # the default range: radii 4 to 8
        got = ralsd_upsampled_pair(pair, None, 12)
        want = ralsd_pair(pair.fine, upsample_quadratic(pair.coarse, 2, 2), 3, 12)
        for g, w in zip(got, want):
            assert (g.fit_lo, g.fit_hi) == (w.fit_lo, w.fit_hi) == (3, 12)
        assert got[0].alpha == want[0].alpha


def upsampled_pair(shape, scales, seed):
    fine = gen_grf(GrfSpec(*shape, -2.5, seed))
    noisy = fine.with_values(fine.values + 0.1 * np.random.default_rng(seed).normal(size=shape))
    return GridPair(coarsen_block_mean(fine, *scales), noisy, *scales)


def band_cases():
    """(shape, scales, fit) over odd, anisotropic and prime-sided grids: the default
    range, (2, 9), an end at n_short // 2 - 1 (the band), one at n_short // 2 (the
    whole half-spectrum), one outside the bins and ranges given at one end."""
    shapes = [((64, 64), (4, 4)), ((96, 60), (3, 2)), ((45, 63), (5, 3)), ((37, 41), (1, 1)),
              ((51, 34), (3, 2)), ((29, 58), (1, 2)), ((53, 106), (1, 2))]
    for shape, scales in shapes:
        half = min(shape) // 2
        for fit in [(None, None), (2, 9), (2, half - 1), (half - 1, 2), (2, half), (2, 5000),
                    (None, half - 1), (2, None)]:
            yield shape, scales, fit


def assert_matches_ralsd_pair(shape, scales, fit):
    """ralsd_upsampled_pair against ralsd_pair of the upsampled grid over the bins
    it returns: its profiles end at the fit range's last bin, or bin every radius
    where judging the range takes the whole profile."""
    pair = upsampled_pair(shape, scales, sum(shape))
    ref = upsample_quadratic(pair.coarse, *scales)
    try:
        want = ralsd_pair(pair.fine, ref, *fit)
    except ValueError as exc:  # the same message, from the whole profile
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            ralsd_upsampled_pair(pair, *fit)
        return
    got = ralsd_upsampled_pair(pair, *fit)
    n_short = min(shape)
    top = max(want[0].fit_lo, want[0].fit_hi) + 1
    if top > n_short // 2:  # the whole half-spectrum
        top = len(want[0].psi)
    for g, w in zip(got, want):
        assert (g.fit_lo, g.fit_hi, g.n_short) == (w.fit_lo, w.fit_hi, n_short)
        assert len(g.psi) == top
        np.testing.assert_array_equal(g.k_bins, w.k_bins[:top])
        np.testing.assert_array_equal(g.counts, w.counts[:top])
    np.testing.assert_array_equal(got[0].psi, want[0].psi[:top])  # pred's is ralsd's own
    assert (got[0].alpha, got[0].intercept) == (want[0].alpha, want[0].intercept)
    np.testing.assert_allclose(got[1].psi, want[1].psi[:top], rtol=1e-12)
    assert got[1].alpha == pytest.approx(want[1].alpha, rel=1e-12)
    assert got[1].intercept == pytest.approx(want[1].intercept, rel=1e-12)


# a constant coarse grid fails as a constant prediction does, tapered or not
CONSTANT_REF = "^ref grid: zero power off DC: the grid is constant$"


class TestRalsdUpsampledPair:
    @pytest.mark.parametrize("fit", [(None, None), (2, 9)])
    @pytest.mark.parametrize("shape,scales", [((64, 64), (4, 4)), ((96, 60), (3, 2)),
                                              ((45, 63), (5, 3)), ((40, 40), (1, 1)),
                                              ((32, 64), (16, 32))])
    def test_matches_ralsd_pair_of_the_upsampled_grid(self, shape, scales, fit):
        assert_matches_ralsd_pair(shape, scales, fit)

    @pytest.mark.parametrize("shape,scales,fit", band_cases())
    def test_profiles_end_at_the_fit_range(self, shape, scales, fit):
        assert_matches_ralsd_pair(shape, scales, fit)

    @pytest.mark.parametrize("shape,scales,fit", [((256, 256), (4, 4), (None, None)),
                                                  ((96, 60), (3, 2), (2, 9))])
    def test_bins_only_the_band(self, shape, scales, fit):
        # rows and columns past the fit range's last bin never reach the power step
        pair = upsampled_pair(shape, scales, 5)
        got = ralsd_upsampled_pair(pair, *fit)
        top = max(got[0].fit_lo, got[0].fit_hi) + 1
        lead, trail, cols = spectral._band(*shape, top)
        assert (lead + trail) * cols < 0.3 * shape[0] * (shape[1] // 2 + 1)
        radius = spectral._annulus_table(*shape, True, top)[0]
        assert radius.size == (lead + trail) * cols and radius.max() > top

    def test_spectral_stage_peak_memory(self):
        # below one complex half-spectrum of the prediction, which it never makes
        # whole; at 256^2 numpy's ufunc buffers (8192 elements an operand) and the
        # reference's blocks, of a fixed size, would outweigh it
        pair = upsampled_pair((512, 512), (4, 4), 3)
        ralsd_upsampled_pair(pair)  # the tables are cached: count the spectra alone
        tracemalloc.start()
        try:
            ralsd_upsampled_pair(pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * (512 // 2 + 1) * 16

    def test_window_upsamples_bit_for_bit(self):
        # both tapered spectra are taken on the band too, and bin what it returns
        # as the whole spectrum does; 48x48: an end at bin 24 takes the whole profile
        pair = upsampled_pair((48, 48), (3, 3), 2)
        for fit in [(None, None), (2, 9), (2, 23), (2, 24)]:
            want = ralsd_pair(pair.fine, upsample_quadratic(pair.coarse, 3, 3), *fit,
                              window=True)
            got = ralsd_upsampled_pair(pair, *fit, window=True)
            top = max(want[0].fit_lo, want[0].fit_hi) + 1
            top = len(want[0].psi) if top > 48 // 2 else top
            for g, w in zip(got, want):
                assert (g.fit_lo, g.fit_hi, len(g.psi)) == (w.fit_lo, w.fit_hi, top)
                for name in ("k_bins", "psi", "counts"):
                    np.testing.assert_array_equal(getattr(g, name), getattr(w, name)[:top])
                assert (g.alpha, g.intercept) == (w.alpha, w.intercept)

    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("scale", [3, 4, 5])
    def test_a_constant_reference_is_degenerate_at_every_scale(self, scale, window):
        # tapered, a constant would carry the taper's own slope
        pair = upsampled_pair((16 * scale, 16 * scale), (scale, scale), 0)
        pair.coarse = grid(np.full((16, 16), 288.15))
        with pytest.raises(DegenerateSpectrumError, match=CONSTANT_REF):
            ralsd_upsampled_pair(pair, window=window)

    @pytest.mark.parametrize("fit", [(2, 9), (2, 23), (2, 24), (None, 20)])
    def test_degenerate_grids_are_named_on_the_band_and_off_it(self, fit):
        # 48x48: bin 23 is radius 24 = n_short // 2, the band's last; bin 24 takes it whole
        pair = upsampled_pair((48, 48), (3, 3), 0)
        pair.coarse = grid(np.full((16, 16), 288.15))
        with pytest.raises(DegenerateSpectrumError, match=CONSTANT_REF):
            ralsd_upsampled_pair(pair, *fit)
        pair.fine = grid(np.full((48, 48), 7.0))
        with pytest.raises(DegenerateSpectrumError, match="^pred grid: zero power off DC"):
            ralsd_upsampled_pair(pair, *fit)

    def test_a_constant_prediction_names_pred(self):
        pair = upsampled_pair((32, 32), (4, 4), 0)
        pair.fine = grid(np.zeros((32, 32)))
        with pytest.raises(DegenerateSpectrumError, match="^pred grid: "):
            ralsd_upsampled_pair(pair)
