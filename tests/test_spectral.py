import numpy as np
import pytest

from fluxgrid import (Grid2D, GrfSpec, default_fit_range, fit_slope, gen_grf,
                      power_spectrum_2d, radial_profile, ralsd, spectral_loss)
from fluxgrid.errors import DegenerateSpectrumError, TooSmallGridError
from fluxgrid.spectral import SpectrumProfile, _annuli, _annulus_table


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
