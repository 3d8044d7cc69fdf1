"""Resonance detection and Lorentzian fitting, cross-checked against scipy."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

import fibercav.fitting as fitting
from fibercav.cavity import CavityModel, SpectrumTrace, cavity_spectrum
from fibercav.errors import (
    DomainError,
    FitFailureError,
    InsufficientPeaksError,
    WindowTooNarrowError,
)
from fibercav.fitting import (
    FitReport,
    ResonanceFit,
    _parameter_sigmas,
    analyze_spectrum,
    cavity_length_from_fsr,
    detect_peaks,
    estimate_fsr,
    evaluate_fit,
    finesse,
    fit_lorentzian,
)
from fibercav.gratings import GratingSpec
from fibercav.quantity import Quantity

# Frozen: finesse and implied length for FSR = 3.8 GHz, FWHM = 2.9 MHz.
FINESSE_38_29 = 1310.3448275862069
LENGTH_NG1462_MM = 26.98110537115703
LENGTH_NG1000_MM = 39.44637605263158


def lorentzian(x, center, fwhm, amplitude, b0=0.0, b1=0.0, mid=0.0):
    half = fwhm / 2.0
    return b0 + b1 * (x - mid) + amplitude * half**2 / ((x - center) ** 2 + half**2)


def make_peak_trace(center=1e8, fwhm=3e6, amplitude=0.6, b0=0.05, b1=0.0,
                    span=1e9, samples=4001, noise=0.0, seed=42):
    freq = np.linspace(center - span / 2, center + span / 2, samples)
    mid = 0.5 * (freq[0] + freq[-1])
    values = lorentzian(freq, center, fwhm, amplitude, b0, b1, mid)
    if noise:
        values = values + np.random.default_rng(seed).normal(scale=noise, size=samples)
    return SpectrumTrace(frequency_hz=freq, transmission=np.clip(values, 0.0, 1.0))


def make_cavity_trace(t1=0.000867, t2=0.000867, alpha_int=0.0031, length_mm=27.0,
                      span_fsr=3.0, samples=30001):
    model = CavityModel(
        mirror_1=GratingSpec.from_peak_and_length(1389.0, 1.0 - t1, 8.0),
        mirror_2=GratingSpec.from_peak_and_length(1389.0, 1.0 - t2, 8.0),
        length_mm=length_mm,
        intrinsic_loss=alpha_int,
    )
    half = 0.5 * span_fsr * model.fsr_hz
    freq = np.linspace(-half, half, samples)
    return model, cavity_spectrum(model, freq)


def with_noise(trace, noise, seed=5):
    """``trace`` with seeded Gaussian noise added to its transmission, clipped to [0, 1]."""
    rng = np.random.default_rng(seed)
    values = trace.transmission + rng.normal(scale=noise, size=trace.transmission.size)
    return dataclasses.replace(trace, transmission=np.clip(values, 0.0, 1.0))


class TestFindPeaks:
    @staticmethod
    def cases():
        """``(x, prominence)`` pairs over edge cases and seeded random arrays."""
        rng = np.random.default_rng(18)
        arrays = [np.array(values, dtype=float)
                  for n in range(4) for values in itertools.product((0, 1, 2), repeat=n)]
        arrays += [np.array(values, dtype=float) for values in (
            [3.0] * 9,  # flat
            np.arange(12), np.arange(12)[::-1], np.cumsum(rng.random(50)),  # monotone
            [2, 2, 1, 3, 3, 3, 0, 1, 1],  # plateaus at both edges and inside
            [0, 1, 1, 1, 0], [0, 1, 1, 0, 2, 2, 2, 2, 0], [1, 1, 0, 2, 2],
            [0, 2, 0, 2, 0, 2, 0], [0, 2, 1, 2, 0], [0, 3, 1, 3, 1, 3, 2, 5, 0],  # equal peaks
        )]
        arrays += [rng.integers(0, levels, size).astype(float)  # ties
                   for levels in (2, 3, 5) for size in (5, 40, 400)]
        arrays += [rng.normal(size=size) for size in (5, 40, 400, 4000)]
        for x in arrays:
            for prominence in (0.0, 0.5, 1.0, 2.5):
                yield x, prominence

    def test_matches_scipy_bit_for_bit(self):
        from scipy.signal import find_peaks as scipy_find_peaks

        for x, prominence in self.cases():
            indices, props = fitting.find_peaks(x, prominence=prominence)
            expected, expected_props = scipy_find_peaks(x, prominence=prominence)
            assert np.array_equal(indices, expected), (x, prominence)
            assert np.array_equal(props["prominences"], expected_props["prominences"])

    def test_matches_scipy_on_a_noisy_cavity_spectrum(self):
        from scipy.signal import find_peaks as scipy_find_peaks

        values = with_noise(make_cavity_trace()[1], 0.01).transmission
        for prominence in (0.0, 0.1 * float(np.ptp(values))):
            indices, props = fitting.find_peaks(values, prominence=prominence)
            expected, expected_props = scipy_find_peaks(values, prominence=prominence)
            assert indices.size > 1000
            assert np.array_equal(indices, expected)
            assert np.array_equal(props["prominences"], expected_props["prominences"])


class TestDetectPeaks:
    def test_analyze_spectrum_looks_up_find_peaks_at_call_time(self, monkeypatch):
        # The name is module-level and resolved per call, so a wrapper set on
        # the module (as the benchmark's tracer does) sees every detection.
        calls = []
        original = fitting.find_peaks

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fitting, "find_peaks", counting)
        report = analyze_spectrum(make_cavity_trace()[1])
        assert len(calls) == 1
        assert len(report.peaks.peaks) == 3

    def test_finds_three_cavity_resonances(self):
        model, trace = make_cavity_trace()
        centers = detect_peaks(trace)
        assert centers.size == 3
        np.testing.assert_allclose(
            centers, [-model.fsr_hz, 0.0, model.fsr_hz], atol=model.expected_fwhm_hz
        )

    def test_reflection_dips(self):
        model, trace = make_cavity_trace()
        centers = detect_peaks(trace, polarity="dip", channel="reflection")
        assert centers.size == 3

    def test_flat_trace_yields_nothing(self):
        trace = SpectrumTrace(
            frequency_hz=np.linspace(0.0, 1.0, 11),
            transmission=np.full(11, 0.25),
        )
        assert detect_peaks(trace).size == 0

    def test_validation(self):
        model, trace = make_cavity_trace(samples=2001)
        with pytest.raises(DomainError):
            detect_peaks(trace, polarity="sideways")
        with pytest.raises(DomainError):
            detect_peaks(trace, prominence_threshold=0.0)


class TestFitLorentzian:
    def test_noiseless_recovery_is_exact(self):
        trace = make_peak_trace(center=1.23e8, fwhm=2.9e6, amplitude=0.55, b0=0.1,
                                b1=2e-11)
        fit = fit_lorentzian(trace, 1.2e8)
        assert fit.center.value == pytest.approx(1.23e8, abs=1.0)
        assert fit.fwhm.value == pytest.approx(2.9e6, rel=1e-7)
        assert fit.amplitude.value == pytest.approx(0.55, rel=1e-7)

    def test_matches_scipy_least_squares_on_noisy_data(self):
        center, fwhm = 2.0e8, 3.1e6
        trace = make_peak_trace(center=center, fwhm=fwhm, amplitude=0.5, b0=0.08,
                                noise=0.01, seed=7)
        fit = fit_lorentzian(trace, center + 4e5)
        lo, hi = fit.window_hz
        mask = (trace.frequency_hz >= lo) & (trace.frequency_hz <= hi)
        x = trace.frequency_hz[mask]
        y = trace.transmission[mask]
        mid = 0.5 * (lo + hi)

        def residual(p):
            b0, b1, amp, c, w = p
            return lorentzian(x, c, w, amp, b0, b1, mid) - y

        start = np.array([0.08, 0.0, 0.5, center, 2e6])
        oracle = least_squares(residual, start, method="lm", xtol=1e-14, ftol=1e-14)
        assert fit.center.value == pytest.approx(oracle.x[3], abs=0.02 * fwhm)
        assert fit.fwhm.value == pytest.approx(oracle.x[4], rel=1e-4)
        assert fit.amplitude.value == pytest.approx(oracle.x[2], rel=1e-3)

    def test_uncertainties_cover_noise(self):
        center, fwhm = 2.0e8, 3.1e6
        errors = []
        sigmas = []
        for seed in range(12):
            trace = make_peak_trace(center=center, fwhm=fwhm, amplitude=0.5,
                                    b0=0.08, noise=0.01, seed=seed)
            fit = fit_lorentzian(trace, center)
            errors.append(fit.fwhm.value - fwhm)
            sigmas.append(fit.fwhm.sigma)
        spread = float(np.std(errors))
        mean_sigma = float(np.mean(sigmas))
        assert 0.3 * spread < mean_sigma < 3.0 * spread

    def test_dip_model(self):
        freq = np.linspace(-5e8, 5e8, 4001)
        values = 0.9 - lorentzian(freq, 0.0, 4e6, 0.5)
        trace = SpectrumTrace(frequency_hz=freq, transmission=values)
        fit = fit_lorentzian(trace, 1e6, model="dip")
        assert fit.fwhm.value == pytest.approx(4e6, rel=1e-6)
        assert fit.amplitude.value == pytest.approx(0.5, rel=1e-6)

    def test_window_too_narrow_rejected(self):
        # dense grid: plenty of samples, but the line is wider than the window
        trace = make_peak_trace(center=0.0, fwhm=5e6, amplitude=0.5, b0=0.1,
                                span=2e7, samples=4001)
        with pytest.raises(WindowTooNarrowError):
            fit_lorentzian(trace, 0.0, window_hz=(-2e6, 2e6))

    def test_sparse_window_rejected_up_front(self):
        trace = make_peak_trace(center=0.0, fwhm=5e6, amplitude=0.5, span=2e9)
        with pytest.raises(DomainError):
            fit_lorentzian(trace, 0.0, window_hz=(-2e6, 2e6))

    def test_etalon_background_recovery(self):
        freq = np.linspace(-6e8, 6e8, 8001)
        mid = 0.0
        etalon_amp, period, phase = 0.03, 2.4e8, 0.8
        values = (
            lorentzian(freq, 0.0, 3e6, 0.5, 0.2, 0.0, mid)
            + etalon_amp * np.sin(2.0 * math.pi * freq / period + phase)
        )
        trace = SpectrumTrace(frequency_hz=freq, transmission=np.clip(values, 0, 1))
        fit = fit_lorentzian(trace, 0.0, background="linear+etalon",
                             window_hz=(-6e8, 6e8))
        assert fit.etalon is not None
        assert fit.fwhm.value == pytest.approx(3e6, rel=1e-6)
        assert fit.etalon.amplitude == pytest.approx(etalon_amp, rel=1e-4)
        assert fit.etalon.period_hz == pytest.approx(period, rel=1e-4)
        assert fit.etalon.phase_rad == pytest.approx(phase, abs=1e-3)

    def test_evaluate_fit_reconstructs_model(self):
        trace = make_peak_trace(center=1.0e8, fwhm=2.5e6, amplitude=0.4, b0=0.12,
                                b1=3e-11)
        fit = fit_lorentzian(trace, 1.0e8)
        lo, hi = fit.window_hz
        mask = (trace.frequency_hz >= lo) & (trace.frequency_hz <= hi)
        reconstructed = evaluate_fit(fit, trace.frequency_hz[mask])
        np.testing.assert_allclose(
            reconstructed, trace.transmission[mask], atol=1e-7
        )

    def test_round_trip_through_dict(self):
        trace = make_peak_trace(noise=0.005)
        fit = fit_lorentzian(trace, 1e8)
        assert ResonanceFit.from_dict(fit.as_dict()) == fit


def test_parameter_sigmas_of_a_singular_fit_are_zero():
    assert _parameter_sigmas(np.zeros((6, 2)), 1.0).tolist() == [0.0, 0.0]


class TestEstimateFsr:
    @staticmethod
    def synthetic_fit(center, sigma=1e3):
        return ResonanceFit(
            center=Quantity(center, sigma),
            fwhm=Quantity(3e6, 1e3),
            amplitude=Quantity(0.5, 0.01),
            baseline=(0.1,),
            window_hz=(center - 1e7, center + 1e7),
            model="peak",
            channel="transmission",
            goodness=1.0,
        )

    def test_mean_spacing(self):
        fits = [self.synthetic_fit(c) for c in (-3.8e9, 0.0, 3.8e9)]
        fsr = estimate_fsr(fits)
        assert fsr.value == pytest.approx(3.8e9)
        # telescoped: only first/last center sigmas contribute
        assert fsr.sigma == pytest.approx(math.sqrt(2.0) * 1e3 / 2.0, rel=0.2)

    def test_needs_two_peaks(self):
        with pytest.raises(InsufficientPeaksError):
            estimate_fsr([self.synthetic_fit(0.0)])

    def test_rejects_disordered_centers(self):
        fits = [self.synthetic_fit(c) for c in (0.0, -3.8e9)]
        with pytest.raises(DomainError):
            estimate_fsr(fits)


class TestScalarHelpers:
    def test_finesse_frozen(self):
        result = finesse(Quantity(3.8e9), Quantity(2.9e6))
        assert result.value == pytest.approx(FINESSE_38_29, rel=1e-12)
        assert result.sigma == 0.0

    def test_finesse_sigma_propagation(self):
        result = finesse(Quantity(3.8e9, 3.8e7), Quantity(2.9e6, 5.8e4))
        rel = math.sqrt(0.01**2 + 0.02**2)
        assert result.sigma == pytest.approx(result.value * rel, rel=1e-12)

    def test_finesse_validation(self):
        with pytest.raises(DomainError):
            finesse(Quantity(0.0), Quantity(2.9e6))
        with pytest.raises(DomainError):
            finesse(Quantity(3.8e9), Quantity(-1.0))

    def test_length_frozen(self):
        assert cavity_length_from_fsr(Quantity(3.8e9)).value == pytest.approx(
            LENGTH_NG1462_MM, rel=1e-12
        )
        assert cavity_length_from_fsr(Quantity(3.8e9), 1.0).value == pytest.approx(
            LENGTH_NG1000_MM, rel=1e-12
        )

    def test_length_sigma_is_relative(self):
        length = cavity_length_from_fsr(Quantity(3.8e9, 3.8e7))
        assert length.sigma == pytest.approx(length.value * 0.01, rel=1e-12)


class TestAnalyzeSpectrum:
    def test_transmission_full_pipeline(self):
        model, trace = make_cavity_trace()
        report = analyze_spectrum(trace)
        assert len(report.peaks.peaks) == 3
        assert report.peaks.fsr.value == pytest.approx(model.fsr_hz, rel=1e-6)
        assert report.finesse.value == pytest.approx(model.expected_finesse, rel=0.01)
        assert report.length_mm.value == pytest.approx(27.0, rel=1e-6)
        assert report.channel == "transmission"
        assert report.polarity == "peak"

    def test_reflection_channel(self):
        model, trace = make_cavity_trace()
        report = analyze_spectrum(trace, channel="reflection", polarity="dip")
        assert len(report.peaks.peaks) == 3
        assert report.finesse.value == pytest.approx(model.expected_finesse, rel=0.01)

    def test_single_peak_is_insufficient(self):
        model, trace = make_cavity_trace(span_fsr=1.0, samples=20001)
        with pytest.raises(InsufficientPeaksError):
            analyze_spectrum(trace)

    def test_flat_trace_is_insufficient(self):
        trace = SpectrumTrace(
            frequency_hz=np.linspace(0, 1e9, 101), transmission=np.full(101, 0.5)
        )
        with pytest.raises(InsufficientPeaksError):
            analyze_spectrum(trace)

    @pytest.mark.parametrize("threshold", [0.0, 1.5])
    def test_prominence_threshold_validated_as_in_detect_peaks(self, threshold):
        _, trace = make_cavity_trace(samples=2001)
        with pytest.raises(DomainError):
            analyze_spectrum(trace, prominence_threshold=threshold)

    def test_unknown_polarity_rejected(self):
        _, trace = make_cavity_trace(samples=2001)
        with pytest.raises(DomainError):
            analyze_spectrum(trace, polarity="sideways")

    def test_report_dict_round_trip(self):
        _, trace = make_cavity_trace()
        report = analyze_spectrum(trace)
        assert FitReport.from_dict(report.as_dict()) == report

    def test_finesse_sigma_sources_split(self):
        _, trace = make_cavity_trace()
        report = analyze_spectrum(trace)
        total = math.hypot(report.finesse_sigma_from_fsr, report.finesse_sigma_from_fwhm)
        assert total == pytest.approx(report.finesse.sigma, rel=1e-6)

    def test_overlap_prune_matches_pairwise_reference(self, monkeypatch):
        # The fit windows analyze_spectrum asks for, against the windows kept
        # by a pairwise check of every candidate against every kept one.
        _, clean = make_cavity_trace(t1=0.004, t2=0.008, alpha_int=0.008)
        trace = with_noise(clean, 0.02)
        multiple = 5.0
        indices, prominences, oriented = fitting._candidates(
            trace, "peak", 0.1, "transmission")
        assert indices.size > 300
        freq = trace.frequency_hz
        base = float(np.median(oriented))
        widths = [fitting._half_prominence_width(freq, oriented, int(i), base) for i in indices]
        kept = []
        for rank in np.argsort(prominences)[::-1]:
            center = freq[indices[rank]]
            half = multiple * widths[rank]
            if not any(abs(center - freq[indices[other]]) < half + multiple * widths[other]
                       for other in kept):
                kept.append(int(rank))
        kept.sort(key=lambda rank: freq[indices[rank]])
        expected = []
        for rank in kept:
            center = float(freq[indices[rank]])
            expected.append((center, (center - multiple * widths[rank],
                                      center + multiple * widths[rank])))

        windows = []

        class Stop(Exception):
            pass

        def stop(fits):
            raise Stop

        monkeypatch.setattr(fitting, "fit_lorentzian",
                            lambda trace, center, **kw: windows.append((center, kw["window_hz"])))
        monkeypatch.setattr(fitting, "estimate_fsr", stop)
        with pytest.raises(Stop):
            analyze_spectrum(trace, window_fwhm_multiple=multiple)
        assert len(expected) > 3
        assert windows == expected
