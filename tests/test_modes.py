"""Guided-mode solver: V-number, effective index, mode area, surface intensity."""

import math

import numpy as np
import pytest

import fibercav.modes as modes
from fibercav.errors import DomainError, NumericalFailureError
from fibercav.modes import (
    DEFAULT_SILICA_INDEX,
    SINGLE_MODE_V,
    FiberGeometry,
    GuidedMode,
    effective_mode_area,
    he11_characteristic,
    mode_intensity,
    silica_sellmeier_index,
    solve_guided_mode,
    solve_he11,
    v_number,
)

WAVELENGTH_NM = 1389.0

# Frozen regression values for the three working diameters at 1389 nm, plus
# the weakly guided d = 300 nm (core index 1.4449, vacuum cladding).
FROZEN = {
    300.0: {
        "v": 0.7076697551151823,
        "n_eff": 1.0000132941262692,
        "a_eff_um2": 2760.2931851143126,
        "surface_ratio": 1.0,
    },
    400.0: {
        "v": 0.9435596734869097,
        "n_eff": 1.0016929960396947,
        "a_eff_um2": 24.999591372709236,
        "surface_ratio": 0.9481989465657147,
    },
    650.0: {
        "v": 1.5332844694162284,
        "n_eff": 1.064782843511696,
        "a_eff_um2": 1.3903882261350557,
        "surface_ratio": 0.438944114328775,
    },
    1000.0: {
        "v": 2.3588991837172744,
        "n_eff": 1.210316724932554,
        "a_eff_um2": 0.9168315489878393,
        "surface_ratio": 0.1701589462598809,
    },
}

SELLMEIER_1389 = 1.4459055109099281


def geometry(diameter_nm, wavelength_nm=WAVELENGTH_NM, **kwargs):
    return FiberGeometry(diameter_nm=diameter_nm, wavelength_nm=wavelength_nm, **kwargs)


class TestVNumber:
    @pytest.mark.parametrize("diameter", sorted(FROZEN))
    def test_frozen(self, diameter):
        assert v_number(geometry(diameter)) == pytest.approx(
            FROZEN[diameter]["v"], rel=1e-12
        )

    def test_closed_form(self):
        g = geometry(650.0)
        expected = math.pi * 650.0 / 1389.0 * math.sqrt(1.4449**2 - 1.0)
        assert v_number(g) == pytest.approx(expected, rel=1e-14)

    def test_all_working_diameters_are_single_mode(self):
        for diameter in FROZEN:
            assert v_number(geometry(diameter)) < SINGLE_MODE_V


class TestFiberGeometry:
    def test_validation(self):
        with pytest.raises(DomainError):
            FiberGeometry(diameter_nm=0.0, wavelength_nm=1389.0)
        with pytest.raises(DomainError):
            FiberGeometry(diameter_nm=650.0, wavelength_nm=-1.0)
        with pytest.raises(DomainError):
            FiberGeometry(diameter_nm=650.0, wavelength_nm=1389.0, core_index=1.0)
        with pytest.raises(DomainError):
            FiberGeometry(
                diameter_nm=650.0, wavelength_nm=1389.0,
                core_index=1.4, cladding_index=1.45,
            )

    def test_derived_properties(self):
        g = geometry(650.0)
        assert g.radius_m == pytest.approx(325e-9, rel=1e-14)
        assert g.vacuum_wavenumber == pytest.approx(
            2.0 * math.pi / 1389e-9, rel=1e-14
        )


class TestSolveHe11:
    @pytest.mark.parametrize("diameter", sorted(FROZEN))
    def test_frozen_effective_index(self, diameter):
        mode = solve_he11(geometry(diameter))
        assert mode.effective_index == pytest.approx(
            FROZEN[diameter]["n_eff"], rel=1e-9
        )

    @pytest.mark.parametrize("diameter", sorted(FROZEN))
    def test_root_is_a_sign_change_of_the_characteristic(self, diameter):
        g = geometry(diameter)
        n_eff = solve_he11(g).effective_index
        below = he11_characteristic(g, n_eff - 1e-7)
        above = he11_characteristic(g, n_eff + 1e-7)
        assert below * above < 0.0

    def test_scale_invariance(self):
        small = solve_he11(geometry(400.0, 1389.0)).effective_index
        scaled = solve_he11(geometry(800.0, 2778.0)).effective_index
        assert scaled == pytest.approx(small, rel=1e-12)

    def test_bulk_limit_approaches_core_index(self):
        mode = solve_he11(geometry(20000.0))
        assert mode.effective_index == pytest.approx(DEFAULT_SILICA_INDEX, abs=1e-3)
        assert mode.effective_index < DEFAULT_SILICA_INDEX

    def test_effective_index_is_monotone_in_diameter(self):
        indices = [
            solve_he11(geometry(d)).effective_index for d in (400.0, 650.0, 1000.0)
        ]
        assert indices[0] < indices[1] < indices[2]

    def test_characteristic_guard(self):
        with pytest.raises(DomainError):
            he11_characteristic(geometry(650.0), 1.5)
        with pytest.raises(DomainError):
            he11_characteristic(geometry(650.0), np.array([1.2, 1.5]))

    @pytest.mark.parametrize("diameter", [300.0, 650.0, 1200.0])
    def test_array_call_matches_scalar_calls_bit_for_bit(self, diameter):
        g = geometry(diameter)
        grid = np.linspace(1.0 + 1e-9, DEFAULT_SILICA_INDEX - 1e-6, 2001)
        values = he11_characteristic(g, grid)
        scalars = np.array([he11_characteristic(g, float(x)) for x in grid])
        assert values.tobytes() == scalars.tobytes()


class TestModeArea:
    @pytest.mark.parametrize("diameter", sorted(FROZEN))
    def test_frozen_area_and_surface_ratio(self, diameter):
        mode = solve_guided_mode(geometry(diameter))
        assert mode.effective_mode_area_um2 == pytest.approx(
            FROZEN[diameter]["a_eff_um2"], rel=1e-9
        )
        assert mode.surface_intensity_ratio == pytest.approx(
            FROZEN[diameter]["surface_ratio"], rel=1e-9
        )

    def test_area_shrinks_with_increasing_confinement(self):
        areas = [
            solve_guided_mode(geometry(d)).effective_mode_area_um2
            for d in (400.0, 650.0, 1000.0)
        ]
        assert areas[0] > areas[1] > areas[2]

    def test_surface_ratio_in_unit_interval(self):
        for diameter in FROZEN:
            ratio = solve_guided_mode(geometry(diameter)).surface_intensity_ratio
            assert 0.0 < ratio <= 1.0

    @pytest.mark.parametrize("diameter", np.arange(300.0, 1201.0, 100.0))
    def test_flux_peaks_on_the_axis_or_at_the_surface(self, diameter):
        # dense-grid oracle for the peak that the surface ratio divides by
        g = geometry(diameter)
        mode = solve_guided_mode(g)
        gamma = g.vacuum_wavenumber * math.sqrt(mode.effective_index**2 - 1.0)
        a = g.radius_m
        radii = np.linspace(0.0, a + 10.0 / gamma, 4001)
        peak = mode_intensity(g, mode.effective_index, [a * (1.0 + 1e-12) + 1e-15])[0]
        peak /= mode.surface_intensity_ratio
        flux = mode_intensity(g, mode.effective_index, radii)
        assert np.max(flux) <= peak * (1.0 + 1e-9)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        g = geometry(650.0)
        n_eff = solve_he11(g).effective_index
        monkeypatch.setattr(modes, "_RULE_ORDERS", (2, 4))
        with pytest.raises(NumericalFailureError) as info:
            effective_mode_area(g, n_eff)
        assert set(info.value.details) == {"diameter_nm", "wavelength_nm", "relative_error"}
        assert info.value.details["relative_error"] > modes.QUADRATURE_RTOL

    def test_convergence_check_reads_quadrature_rtol(self, monkeypatch):
        g = geometry(650.0)
        n_eff = solve_he11(g).effective_index
        monkeypatch.setattr(modes, "_RULE_ORDERS", (2, 4))
        monkeypatch.setattr(modes, "QUADRATURE_RTOL", math.inf)
        area, _ = effective_mode_area(g, n_eff)
        assert area > 0.0

    def test_direct_call_matches_solver(self):
        g = geometry(650.0)
        mode = solve_guided_mode(g)
        area, ratio = effective_mode_area(g, mode.effective_index)
        assert area == mode.effective_mode_area_um2
        assert ratio == mode.surface_intensity_ratio


class TestModeIntensity:
    def test_positive_and_decaying_outside_the_core(self):
        g = geometry(650.0)
        n_eff = solve_he11(g).effective_index
        radii = np.linspace(g.radius_m * 1.01, g.radius_m * 8.0, 200)
        intensity = mode_intensity(g, n_eff, radii)
        assert np.all(intensity > 0.0)
        assert np.all(np.diff(intensity) < 0.0)

    def test_far_tail_decays_at_the_cladding_rate(self):
        g = geometry(650.0)
        n_eff = solve_he11(g).effective_index
        gamma = g.vacuum_wavenumber * math.sqrt(n_eff**2 - 1.0)
        r1, r2 = 10.0 / gamma, 12.0 / gamma
        intensity = mode_intensity(g, n_eff, np.array([r1, r2]))
        slope = math.log(intensity[1] / intensity[0]) / (r2 - r1)
        # asymptotic K-function tail: d(ln I)/dr -> -(2 gamma + 1/r)
        expected = -(2.0 * gamma + 2.0 / (r1 + r2))
        assert slope == pytest.approx(expected, rel=0.02)


class TestGuidedMode:
    def test_single_mode_property(self):
        assert GuidedMode(effective_index=1.06, v_number=1.53).single_mode
        assert not GuidedMode(effective_index=1.40, v_number=3.0).single_mode

    def test_as_dict(self):
        mode = solve_guided_mode(geometry(650.0))
        payload = mode.as_dict()
        assert payload["n_eff"] == mode.effective_index
        assert payload["a_eff_um2"] == mode.effective_mode_area_um2
        assert payload["v_number"] == mode.v_number
        assert payload["surface_intensity_ratio"] == mode.surface_intensity_ratio
        assert set(payload["solver_tolerances"]) == {"n_eff_abs", "quadrature_rel"}
        assert payload["solver_tolerances"]["quadrature_rel"] == modes.QUADRATURE_RTOL

    def test_validation(self):
        with pytest.raises(DomainError):
            GuidedMode(effective_index=-1.0, v_number=1.0)
        with pytest.raises(DomainError):
            GuidedMode(effective_index=1.06, v_number=1.53, surface_intensity_ratio=1.5)


class TestSellmeierIndex:
    def test_frozen_value_at_probe_wavelength(self):
        assert silica_sellmeier_index(1389.0) == pytest.approx(
            SELLMEIER_1389, rel=1e-14
        )

    def test_close_to_default_index(self):
        assert silica_sellmeier_index(1389.0) == pytest.approx(
            DEFAULT_SILICA_INDEX, abs=2e-3
        )

    def test_normal_dispersion_in_the_near_infrared(self):
        indices = [silica_sellmeier_index(nm) for nm in (800.0, 1100.0, 1389.0, 1600.0)]
        assert all(a > b for a, b in zip(indices, indices[1:]))

    def test_range_guard(self):
        with pytest.raises(DomainError):
            silica_sellmeier_index(100.0)
        with pytest.raises(DomainError):
            silica_sellmeier_index(5000.0)
