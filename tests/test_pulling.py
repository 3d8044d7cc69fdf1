"""Pull-trace I/O, smoothing, flame classification, and loss-growth fits."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.stats import linregress

from fibercav.errors import DomainError, ParseError
from fibercav.pulling import (
    MIN_SAMPLES,
    PullTrace,
    classify_flame,
    fit_loss_growth,
    load_pull_trace,
    smooth_loss,
    smoothing_window,
    synthesize_pull_trace,
    write_pull_trace,
)


class TestPullTrace:
    def test_validation(self):
        with pytest.raises(DomainError):
            PullTrace(time_s=np.array([0.0]), loss_primary=np.array([0.1]))
        with pytest.raises(DomainError):
            PullTrace(time_s=np.array([0.0, 0.0]), loss_primary=np.array([0.1, 0.1]))
        with pytest.raises(DomainError):
            PullTrace(time_s=np.array([0.0, 1.0]), loss_primary=np.array([0.1, 1.5]))
        with pytest.raises(DomainError):
            PullTrace(time_s=np.array([0.0, 1.0]), loss_primary=np.array([0.1]))
        with pytest.raises(DomainError):
            PullTrace(
                time_s=np.array([0.0, 1.0]),
                loss_primary=np.array([0.1, 0.1]),
                probe_wavelength_nm=-1.0,
            )

    def test_arrays_are_read_only(self):
        trace = synthesize_pull_trace("flat", samples=20)
        with pytest.raises(ValueError):
            trace.time_s[0] = -1.0
        with pytest.raises(ValueError):
            trace.loss_primary[0] = 0.5


class TestTraceIo:
    def test_bit_exact_round_trip_with_sidecar(self, tmp_path):
        trace = synthesize_pull_trace(
            "exponential-onset", samples=50, noise=1e-3, seed=11
        )
        trace = PullTrace(
            time_s=trace.time_s,
            loss_primary=trace.loss_primary,
            loss_reference=trace.loss_reference,
            probe_wavelength_nm=1389.0,
            reference_wavelength_nm=1550.0,
            flame_label="H2",
        )
        path = tmp_path / "pull.csv"
        write_pull_trace(trace, path)
        assert (tmp_path / "pull.meta.json").exists()
        loaded = load_pull_trace(path)
        assert loaded == trace

    def test_round_trip_without_reference(self, tmp_path):
        trace = synthesize_pull_trace("ramp", samples=30, reference_loss=None)
        path = tmp_path / "pull.csv"
        write_pull_trace(trace, path)
        loaded = load_pull_trace(path)
        assert loaded.loss_reference is None
        assert loaded == trace

    def test_missing_sidecar_applies_defaults(self, tmp_path):
        trace = synthesize_pull_trace("flat", samples=20)
        path = tmp_path / "pull.csv"
        write_pull_trace(trace, path)
        (tmp_path / "pull.meta.json").unlink()
        loaded = load_pull_trace(path)
        assert loaded.probe_wavelength_nm == 1389.0
        assert loaded.reference_wavelength_nm == 1550.0
        assert loaded.flame_label is None

    def test_corrupt_sidecar_rejected(self, tmp_path):
        trace = synthesize_pull_trace("flat", samples=20)
        path = tmp_path / "pull.csv"
        write_pull_trace(trace, path)
        (tmp_path / "pull.meta.json").write_text("{not json")
        with pytest.raises(ParseError):
            load_pull_trace(path)

    @pytest.mark.parametrize("sidecar", [
        [1, 2],
        "1389",
        {"probe_wavelength_nm": "abc"},
        {"probe_wavelength_nm": -5},
        {"reference_wavelength_nm": None},
        {"reference_wavelength_nm": float("inf")},
        {"flame_label": 3},
    ], ids=["list", "string", "text-wavelength", "negative-wavelength", "null-wavelength",
            "infinite-wavelength", "numeric-label"])
    def test_bad_sidecar_is_a_parse_error_naming_it(self, tmp_path, sidecar):
        path = tmp_path / "pull.csv"
        write_pull_trace(synthesize_pull_trace("flat", samples=20), path)
        (tmp_path / "pull.meta.json").write_text(json.dumps(sidecar))
        with pytest.raises(ParseError) as info:
            load_pull_trace(path)
        assert info.value.details == {"path": str(tmp_path / "pull.meta.json")}

    def test_all_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "pull.csv"
        path.write_text(
            "time_s,loss_primary\n"
            "0.0,0.01\n"
            "1.0,0.02,extra\n"      # wrong field count  -> line 3
            "2.0,abc\n"             # non-numeric        -> line 4
            "3.0,1.7\n"             # loss outside [0,1] -> line 5
            "2.5,0.02\n"            # time not increasing-> line 6
            "4.0,0.03\n"
        )
        with pytest.raises(ParseError) as info:
            load_pull_trace(path)
        rows = info.value.details["rows"]
        assert len(rows) == 4
        for line_no, detail in zip((3, 4, 5, 6), rows):
            assert f"row {line_no}" in detail

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "pull.csv"
        path.write_text("time_s,loss_primary\n0.0,0.01\n\n1.0,0.02\n")
        assert len(load_pull_trace(path)) == 2

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "pull.csv"
        path.write_text("seconds,loss\n0.0,0.01\n1.0,0.02\n")
        with pytest.raises(ParseError):
            load_pull_trace(path)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_pull_trace(tmp_path / "nope.csv")


class TestSmoothing:
    def test_window_sizing(self):
        assert smoothing_window(400) == 21
        assert smoothing_window(10) == 1
        assert smoothing_window(4, fraction=0.9) == 3  # clamped below n, odd

    def test_straight_line_passes_through(self):
        ramp = np.linspace(0.0, 0.08, 200)
        np.testing.assert_allclose(smooth_loss(ramp, 21), ramp, atol=1e-15)

    def test_interior_matches_convolution(self):
        rng = np.random.default_rng(5)
        loss = rng.uniform(0.0, 0.1, size=300)
        window = 15
        smoothed = smooth_loss(loss, window)
        reference = np.convolve(loss, np.ones(window) / window, mode="valid")
        half = window // 2
        np.testing.assert_allclose(smoothed[half:-half], reference, atol=1e-12)

    def test_window_one_is_identity(self):
        loss = np.array([0.1, 0.3, 0.2, 0.4])
        np.testing.assert_array_equal(smooth_loss(loss, 1), loss)

    def test_even_window_rejected(self):
        with pytest.raises(DomainError):
            smooth_loss(np.zeros(10), 4)

    @pytest.mark.parametrize("n, window", [(1, 1), (1, 5), (2, 3), (10, 5), (301, 1),
                                           (301, 21), (40, 41), (40, 99)],
                             ids=["n1", "n1-wide", "n2", "even-n", "window1", "odd-n",
                                  "window-n+1", "window-over-n"])
    def test_bits_match_per_index_loop(self, n, window):
        # the same cumulative-sum differences, evaluated one index at a time
        loss = np.random.default_rng(n).uniform(0.0, 0.1, size=n).cumsum()
        cumulative = np.concatenate(([0.0], np.cumsum(loss)))
        reference = np.empty(n)
        for i in range(n):
            k = min(window // 2, i, n - 1 - i)
            reference[i] = (loss[i] if k == 0
                            else (cumulative[i + k + 1] - cumulative[i - k]) / (2 * k + 1))
        assert smooth_loss(loss, window).tobytes() == reference.tobytes()


class TestClassifyFlame:
    def test_steady_growth_to_high_loss_is_h2_like(self):
        trace = synthesize_pull_trace("ramp", final_loss=0.08, samples=400)
        verdict = classify_flame(trace)
        assert verdict.label == "H2-like"
        assert verdict.monotone_growth_score > 0.95
        assert 0.07 < verdict.final_loss < 0.08
        assert verdict.reference_ok

    def test_flat_low_loss_is_d2_like(self):
        trace = synthesize_pull_trace("flat", flat_loss=0.005, samples=400)
        verdict = classify_flame(trace)
        assert verdict.label == "D2-like"
        assert verdict.final_loss == pytest.approx(0.005, abs=1e-12)

    def test_noisy_low_loss_still_d2_like(self):
        trace = synthesize_pull_trace(
            "flat", flat_loss=0.005, samples=400, noise=1e-3, seed=2
        )
        assert classify_flame(trace).label == "D2-like"

    def test_intermediate_loss_is_indeterminate(self):
        trace = synthesize_pull_trace("flat", flat_loss=0.03, samples=400)
        assert classify_flame(trace).label == "indeterminate"

    def test_reference_channel_flag(self):
        clean = synthesize_pull_trace("flat", samples=50, reference_loss=0.005)
        dirty = synthesize_pull_trace("flat", samples=50, reference_loss=0.02)
        assert classify_flame(clean).reference_ok is True
        assert classify_flame(dirty).reference_ok is False

    def test_needs_enough_samples(self):
        trace = synthesize_pull_trace("flat", samples=MIN_SAMPLES - 1)
        with pytest.raises(DomainError):
            classify_flame(trace)

    def test_threshold_ordering_enforced(self):
        trace = synthesize_pull_trace("flat", samples=50)
        with pytest.raises(DomainError):
            classify_flame(trace, final_loss_high=0.01, final_loss_low=0.02)

    def test_verdict_dict(self):
        verdict = classify_flame(synthesize_pull_trace("ramp", samples=100))
        payload = verdict.as_dict()
        assert payload["label"] == verdict.label
        assert set(payload) == {
            "label", "final_loss", "monotone_growth_score", "reference_ok"
        }


class TestLossGrowthFit:
    def test_linear_fit_exact_on_ramp(self):
        trace = synthesize_pull_trace("ramp", final_loss=0.08, duration_s=100.0,
                                      samples=400)
        fit = fit_loss_growth(trace, model="linear")
        assert fit.model == "linear"
        assert fit.rate.value == pytest.approx(0.08 / 100.0, rel=1e-12)
        assert fit.parameters["intercept"].value == pytest.approx(0.0, abs=1e-15)
        assert fit.residual_rms < 1e-15

    def test_linear_fit_matches_linregress_on_noisy_data(self):
        trace = synthesize_pull_trace("ramp", final_loss=0.08, samples=400,
                                      noise=1e-3, seed=9)
        fit = fit_loss_growth(trace, model="linear")
        smoothed = smooth_loss(trace.loss_primary, smoothing_window(len(trace)))
        oracle = linregress(trace.time_s, smoothed)
        assert fit.rate.value == pytest.approx(oracle.slope, rel=1e-10)
        assert fit.parameters["intercept"].value == pytest.approx(
            oracle.intercept, rel=1e-8
        )
        assert fit.rate.sigma == pytest.approx(oracle.stderr, rel=1e-8)

    def test_exponential_onset_recovers_parameters(self):
        truth = {"baseline": 0.002, "amplitude": 0.004, "rate": 0.05, "onset_s": 30.0}
        trace = synthesize_pull_trace("exponential-onset", duration_s=100.0,
                                      samples=400, **truth)
        fit = fit_loss_growth(trace, model="exponential-onset")
        assert not fit.fell_back_to_linear
        assert fit.parameters["baseline"].value == pytest.approx(0.002, rel=5e-3)
        assert fit.parameters["amplitude"].value == pytest.approx(0.004, rel=2e-2)
        assert fit.rate.value == pytest.approx(0.05, rel=5e-3)
        assert fit.parameters["onset_s"].value == pytest.approx(30.0, abs=0.1)

    def test_exponential_onset_matches_scipy_minimum(self):
        trace = synthesize_pull_trace("exponential-onset", duration_s=100.0,
                                      samples=400, noise=5e-4, seed=3)
        fit = fit_loss_growth(trace, model="exponential-onset")
        time = trace.time_s
        loss = smooth_loss(trace.loss_primary, smoothing_window(len(trace)))

        def residual(p):
            b, a, r, t0 = p
            dt = time - t0
            growth = np.where(dt > 0.0, np.expm1(np.clip(r * dt, None, 700.0)), 0.0)
            return b + a * growth - loss

        start = [0.002, 0.004, 0.05, 30.0]
        oracle = least_squares(residual, start, method="lm", xtol=1e-14, ftol=1e-14)
        packaged = [fit.parameters[k].value
                    for k in ("baseline", "amplitude", "rate", "onset_s")]
        np.testing.assert_allclose(packaged, oracle.x, rtol=1e-5)

    def test_flat_trace_falls_back_to_linear(self):
        trace = synthesize_pull_trace("flat", flat_loss=0.005, samples=100)
        fit = fit_loss_growth(trace, model="exponential-onset")
        assert fit.fell_back_to_linear
        assert fit.model == "exponential-onset"
        assert set(fit.parameters) == {"intercept", "rate"}
        assert fit.rate.value == pytest.approx(0.0, abs=1e-12)

    def test_guards(self):
        trace = synthesize_pull_trace("flat", samples=MIN_SAMPLES - 1)
        with pytest.raises(DomainError):
            fit_loss_growth(trace)
        good = synthesize_pull_trace("flat", samples=50)
        with pytest.raises(DomainError):
            fit_loss_growth(good, model="cubic")

    def test_fit_dict_shape(self):
        trace = synthesize_pull_trace("ramp", samples=100)
        payload = fit_loss_growth(trace).as_dict()
        assert payload["model"] == "linear"
        assert set(payload["parameters"]) == {"intercept", "rate"}
        assert json.dumps(payload)  # JSON-serializable as-is


class TestSynthesizePullTrace:
    def test_kinds_and_reference(self):
        ramp = synthesize_pull_trace("ramp", final_loss=0.06, samples=50)
        assert ramp.loss_primary[0] == 0.0
        assert ramp.loss_primary[-1] == pytest.approx(0.06)
        flat = synthesize_pull_trace("flat", flat_loss=0.004, samples=50)
        assert np.all(flat.loss_primary == 0.004)
        assert np.all(flat.loss_reference == 0.005)
        bare = synthesize_pull_trace("flat", samples=50, reference_loss=None)
        assert bare.loss_reference is None

    def test_noise_is_seeded(self):
        a = synthesize_pull_trace("ramp", samples=50, noise=1e-3, seed=4)
        b = synthesize_pull_trace("ramp", samples=50, noise=1e-3, seed=4)
        c = synthesize_pull_trace("ramp", samples=50, noise=1e-3, seed=5)
        assert a == b
        assert a != c

    def test_guards(self):
        with pytest.raises(DomainError):
            synthesize_pull_trace("zigzag")
        with pytest.raises(DomainError):
            synthesize_pull_trace("ramp", samples=1)
        with pytest.raises(DomainError):
            synthesize_pull_trace("ramp", duration_s=0.0)
