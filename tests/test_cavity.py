"""Cavity spectral model: closed form vs partial-wave sum, CSV interchange."""

import math

import numpy as np
import pytest

from fibercav.cavity import (
    CavityModel,
    SpectrumTrace,
    cavity_spectrum,
    on_resonance_values,
    parse_spectrum_csv,
    write_spectrum_csv,
)
from fibercav.errors import DomainError, ParseError, SingularCavityError
from fibercav.gratings import GratingSpec
from oracles import cavity_spectrum_partial_waves

# Frozen: cavity length giving a 3.8 GHz FSR at group index 1.462 / 1.0.
LENGTH_38GHZ_NG1462_MM = 26.98110537115703
LENGTH_38GHZ_NG1000_MM = 39.44637605263158

# Frozen: on-resonance closed forms for T1 = T2 = 0.000867, alpha_int = 0.0031.
# (The full spectral model at zero detuning gives 0.128488 / 0.411584 — the
# small-loss closed forms agree with it to better than 0.2% here.)
T_RES_PAPER = 0.1286722496781435
R_RES_PAPER = 0.41125396254533414


def make_model(t1=0.000867, t2=0.000867, alpha_int=0.0031, length_mm=27.0, **kwargs):
    return CavityModel(
        mirror_1=GratingSpec.from_peak_and_length(1389.0, 1.0 - t1, 8.0),
        mirror_2=GratingSpec.from_peak_and_length(1389.0, 1.0 - t2, 8.0),
        length_mm=length_mm,
        intrinsic_loss=alpha_int,
        **kwargs,
    )


class TestCavityModel:
    def test_fsr_frozen_lengths(self):
        assert make_model(length_mm=LENGTH_38GHZ_NG1462_MM).fsr_hz == pytest.approx(
            3.8e9, rel=1e-12
        )
        model = make_model(length_mm=LENGTH_38GHZ_NG1000_MM, group_index=1.0)
        assert model.fsr_hz == pytest.approx(3.8e9, rel=1e-12)

    def test_loss_accounting(self):
        model = make_model(t1=0.001, t2=0.002, alpha_int=0.003)
        assert model.mirror_transmittance_1 == pytest.approx(0.001, rel=1e-9)
        assert model.mirror_transmittance_2 == pytest.approx(0.002, rel=1e-9)
        assert model.total_loss == pytest.approx(0.006, rel=1e-9)
        assert model.expected_finesse == pytest.approx(2.0 * math.pi / 0.006, rel=1e-9)
        assert model.expected_fwhm_hz == pytest.approx(
            model.fsr_hz / model.expected_finesse
        )

    def test_swapped_exchanges_mirrors(self):
        model = make_model(t1=0.001, t2=0.002)
        swapped = model.swapped()
        assert swapped.mirror_transmittance_1 == pytest.approx(0.002, rel=1e-9)
        assert swapped.mirror_transmittance_2 == pytest.approx(0.001, rel=1e-9)
        assert swapped.length_mm == model.length_mm

    def test_validation(self):
        with pytest.raises(DomainError):
            make_model(length_mm=0.0)
        with pytest.raises(DomainError):
            make_model(alpha_int=1.0)
        with pytest.raises(DomainError):
            CavityModel(
                mirror_1=GratingSpec.from_peak_and_length(1389.0, 0.9, 8.0),
                mirror_2=GratingSpec.from_peak_and_length(1389.0, 0.9, 8.0),
                length_mm=27.0,
                group_index=0.5,
            )


class TestCavitySpectrum:
    def test_matches_partial_wave_oracle(self):
        model = make_model(t1=0.000867, t2=0.002, alpha_int=0.0031)
        freq = np.linspace(-1.6 * model.fsr_hz, 1.6 * model.fsr_hz, 4001)
        trace = cavity_spectrum(model, freq)
        t_oracle, r_oracle = cavity_spectrum_partial_waves(
            0.000867, 0.002, 0.0031, model.fsr_hz, freq
        )
        np.testing.assert_allclose(trace.transmission, t_oracle, atol=1e-12)
        np.testing.assert_allclose(trace.reflection, r_oracle, atol=1e-12)

    def test_lossless_energy_closure(self):
        model = make_model(alpha_int=0.0)
        freq = np.linspace(-2.0 * model.fsr_hz, 2.0 * model.fsr_hz, 5001)
        trace = cavity_spectrum(model, freq)
        np.testing.assert_allclose(
            trace.transmission + trace.reflection, 1.0, atol=1e-12
        )

    def test_periodic_in_fsr(self):
        model = make_model()
        freq = np.linspace(-0.5 * model.fsr_hz, 0.5 * model.fsr_hz, 1001)
        a = cavity_spectrum(model, freq)
        b = cavity_spectrum(model, freq + model.fsr_hz)
        np.testing.assert_allclose(a.transmission, b.transmission, atol=1e-12)

    def test_resonance_levels_match_closed_forms(self):
        model = make_model()
        trace = cavity_spectrum(model, np.array([-1.0, 0.0, 1.0]))
        t_res, r_res_1, _ = on_resonance_values(model)
        assert trace.transmission[1] == pytest.approx(t_res, rel=5e-3)
        assert trace.reflection[1] == pytest.approx(r_res_1, rel=5e-3)

    @pytest.mark.parametrize("grid", [[0.0], [], 0.0], ids=["one-point", "empty", "scalar"])
    def test_short_grid_is_a_domain_error(self, grid):
        with pytest.raises(DomainError) as info:
            cavity_spectrum(make_model(), grid)
        assert info.value.details == {"samples": np.asarray(grid).size}

    def test_resolution_warning_on_coarse_grid(self):
        model = make_model()
        coarse = np.linspace(-model.fsr_hz, model.fsr_hz, 101)
        dense = np.linspace(-model.fsr_hz, model.fsr_hz, 40001)
        assert cavity_spectrum(model, coarse).resolution_warning
        assert not cavity_spectrum(model, dense).resolution_warning


class TestOnResonanceValues:
    def test_frozen_symmetric_budget(self):
        t_res, r_res_1, r_res_2 = on_resonance_values(make_model())
        assert t_res == pytest.approx(T_RES_PAPER, rel=1e-12)
        assert r_res_1 == pytest.approx(R_RES_PAPER, rel=1e-12)
        assert r_res_2 == pytest.approx(R_RES_PAPER, rel=1e-12)

    def test_asymmetric_budget_orders_sides(self):
        t_res, r_res_1, r_res_2 = on_resonance_values(make_model(t1=0.002, t2=0.0005))
        # the higher-transmission side dips deeper on resonance
        assert r_res_1 < r_res_2
        assert 0.0 < t_res < 1.0

    def test_rejects_large_total_loss(self):
        with pytest.raises(DomainError):
            on_resonance_values(make_model(t1=0.04, t2=0.04, alpha_int=0.0))

    def test_impedance_matched_reflection_vanishes(self):
        # T1 = alpha_tot/2 makes side 1 critically coupled
        t_res, r_res_1, _ = on_resonance_values(
            make_model(t1=0.002, t2=0.001, alpha_int=0.001)
        )
        assert r_res_1 == pytest.approx(0.0, abs=1e-12)


class TestSpectrumTrace:
    def test_rejects_nonmonotone_grid(self):
        with pytest.raises(DomainError):
            SpectrumTrace(
                frequency_hz=np.array([0.0, 2.0, 1.0]),
                transmission=np.array([0.1, 0.2, 0.3]),
            )

    def test_rejects_out_of_range_values(self):
        with pytest.raises(DomainError):
            SpectrumTrace(
                frequency_hz=np.array([0.0, 1.0]),
                transmission=np.array([0.1, 1.2]),
            )

    def test_arrays_are_read_only(self):
        trace = SpectrumTrace(
            frequency_hz=np.array([0.0, 1.0]),
            transmission=np.array([0.1, 0.2]),
        )
        with pytest.raises(ValueError):
            trace.transmission[0] = 0.5


class TestCsvInterchange:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = make_model()
        freq = np.linspace(-1.5 * model.fsr_hz, 1.5 * model.fsr_hz, 2001)
        trace = cavity_spectrum(model, freq)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(trace, path)
        loaded = parse_spectrum_csv(path)
        np.testing.assert_array_equal(loaded.frequency_hz, trace.frequency_hz)
        np.testing.assert_array_equal(loaded.transmission, trace.transmission)
        np.testing.assert_array_equal(loaded.reflection, trace.reflection)

    def test_missing_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            parse_spectrum_csv(tmp_path / "absent.csv")

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "freq_offset_hz,transmission,reflection\n"
            "0.0,0.1,0.2\n"
            "1.0,not-a-number,0.2\n"
        )
        with pytest.raises(ParseError) as excinfo:
            parse_spectrum_csv(path)
        assert excinfo.value.details.get("line") == 3

    def test_normalize_rescales_raw_units(self, tmp_path):
        model = make_model()
        freq = np.linspace(-1.5 * model.fsr_hz, 1.5 * model.fsr_hz, 2001)
        trace = cavity_spectrum(model, freq)
        path = tmp_path / "raw.csv"
        lines = ["freq_offset_hz,transmission,reflection"]
        for f, t, r in zip(trace.frequency_hz, trace.transmission, trace.reflection):
            lines.append(f"{float(f)!r},{float(t) * 742.0!r},{float(r) * 742.0!r}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            parse_spectrum_csv(path)  # raw detector units overflow [0, 1]
        loaded = parse_spectrum_csv(path, normalize=True)
        assert float(np.max(loaded.transmission)) <= 1.0
        # resonance contrast survives normalization
        assert float(np.max(loaded.reflection) - np.min(loaded.reflection)) > 0.3


def test_singular_cavity_error_is_a_domain_error():
    assert issubclass(SingularCavityError, DomainError)
