"""Fundamental guided mode of a vacuum-clad step-index nanofiber.

The fiber is a two-layer cylinder: a core of index ``n₁`` (silica) and an
infinite cladding of index ``n₂`` (vacuum).  The fundamental hybrid mode
HE11 is found as the largest root of the exact vector dispersion
relation; the full vector fields then give the effective mode area
``A_eff = (∫∫I dA)² / ∫∫I² dA`` and the evanescent intensity at the
fiber surface, the quantities that control atom–photon coupling.

All dispersion and field formulas below are the textbook step-index
results with azimuthal dependence ``e^{imφ}``, m = 1, which makes the
axial Poynting flux azimuthally symmetric so only radial profiles are
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _C, epsilon_0 as _EPS0, mu_0 as _MU0
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import jv, kve

from .errors import DomainError, NumericalFailureError

#: Default silica refractive index near 1389 nm (configurable).
DEFAULT_SILICA_INDEX = 1.4449

#: Root tolerance on the effective index.
N_EFF_TOLERANCE = 1e-10

#: Relative tolerance requested from the mode-area quadrature.
QUADRATURE_RTOL = 1e-10

#: Single-mode limit of the V-number (first zero of J0).
SINGLE_MODE_V = 2.405

_AZIMUTHAL_ORDER = 1  # m = 1 for HE11


def silica_sellmeier_index(wavelength_nm: float) -> float:
    """Room-temperature fused-silica index from the three-term Sellmeier fit.

    Valid roughly over 210–3710 nm.
    """
    if not 150.0 < wavelength_nm < 4000.0:
        raise DomainError(f"wavelength {wavelength_nm!r} nm outside the Sellmeier fit range")
    lam_um2 = (wavelength_nm * 1e-3) ** 2
    n2 = 1.0
    for strength, resonance_um in (
        (0.6961663, 0.0684043),
        (0.4079426, 0.1162414),
        (0.8974794, 9.896161),
    ):
        n2 += strength * lam_um2 / (lam_um2 - resonance_um**2)
    return math.sqrt(n2)


@dataclass(frozen=True)
class FiberGeometry:
    """Step-index cylinder: diameter, indices, and operating wavelength."""

    diameter_nm: float
    wavelength_nm: float
    core_index: float = DEFAULT_SILICA_INDEX
    cladding_index: float = 1.0

    def __post_init__(self):
        if self.diameter_nm <= 0.0:
            raise DomainError("diameter must be > 0 nm")
        if self.wavelength_nm <= 0.0:
            raise DomainError("wavelength must be > 0 nm")
        if not self.core_index > self.cladding_index >= 1.0:
            raise DomainError(
                "need core_index > cladding_index >= 1 for a guided mode, got "
                f"n1={self.core_index!r}, n2={self.cladding_index!r}"
            )

    @property
    def radius_m(self) -> float:
        return self.diameter_nm * 1e-9 / 2.0

    @property
    def vacuum_wavenumber(self) -> float:
        """k₀ = 2π/λ [rad/m]."""
        return 2.0 * math.pi / (self.wavelength_nm * 1e-9)


def v_number(geometry: FiberGeometry) -> float:
    """Normalized frequency V = (π d/λ)·√(n₁² − n₂²)."""
    return (
        math.pi
        * geometry.diameter_nm
        / geometry.wavelength_nm
        * math.sqrt(geometry.core_index**2 - geometry.cladding_index**2)
    )


def _transverse_arguments(geometry: FiberGeometry, n_eff: float) -> tuple[float, float]:
    """Normalized transverse arguments (u, w) at the core radius."""
    ak0 = geometry.radius_m * geometry.vacuum_wavenumber
    u = ak0 * math.sqrt(max(geometry.core_index**2 - n_eff**2, 0.0))
    w = ak0 * math.sqrt(max(n_eff**2 - geometry.cladding_index**2, 0.0))
    return u, w


def he11_characteristic(geometry: FiberGeometry, n_eff: float) -> float:
    """Pole-free form of the m = 1 hybrid-mode dispersion relation.

    The textbook eigenvalue equation

    ``(J'/(uJ) + K'/(wK)) · (n₁²J'/(uJ) + n₂²K'/(wK)) = n_eff²(1/u² + 1/w²)²``

    is multiplied through by ``(u J₁(u) · w K₁(w))²`` so the result is
    smooth across the zeros of J₁ (where the raw equation has poles and
    sign flips that are not modes).  Guided modes are exactly the sign
    changes of this function on n_eff ∈ (n₂, n₁).  Exponentially scaled
    Bessel K functions keep large-w geometries from underflowing; the
    overall factor e^{2w} does not move the roots.
    """
    if not geometry.cladding_index < n_eff < geometry.core_index:
        raise DomainError("n_eff must lie strictly between the cladding and core indices")
    m = _AZIMUTHAL_ORDER
    u, w = _transverse_arguments(geometry, n_eff)
    v2 = u * u + w * w
    j1 = jv(m, u)
    jp = 0.5 * (jv(m - 1, u) - jv(m + 1, u))
    k1 = kve(m, w)
    kp = -0.5 * (kve(m - 1, w) + kve(m + 1, w))
    b1 = jp * w * k1 + kp * u * j1
    b2 = geometry.core_index**2 * jp * w * k1 + geometry.cladding_index**2 * kp * u * j1
    coupling = m * n_eff * v2 * j1 * k1 / (u * w)
    return b1 * b2 - coupling**2


def solve_he11(geometry: FiberGeometry) -> "GuidedMode":
    """Effective index of the fundamental HE11 mode.

    Scans the characteristic function on a grid inside (n₂, n₁), refines
    every bracketed sign change, and returns the largest root (the
    fundamental mode always has the largest effective index).  The grid
    is refined adaptively for weakly guided modes whose root hugs the
    cladding line.

    Returns
    -------
    GuidedMode
        With ``effective_index`` and ``v_number`` populated; use
        :func:`solve_guided_mode` to also fill in the mode area.
    """
    n_lo = geometry.cladding_index
    n_hi = geometry.core_index

    def scan(margin: float, subdivisions: int) -> float | None:
        grid = np.linspace(n_lo + margin, n_hi - 1e-6, subdivisions + 1)
        values = np.array([he11_characteristic(geometry, x) for x in grid])
        crossings = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
        if crossings.size == 0:
            return None
        top = crossings[-1]
        return brentq(
            lambda x: he11_characteristic(geometry, x),
            grid[top],
            grid[top + 1],
            xtol=N_EFF_TOLERANCE / 10.0,
            rtol=4.0 * np.finfo(float).eps,
        )

    root = None
    for margin, subdivisions in ((1e-6, 200), (1e-9, 2000), (1e-12, 20000)):
        root = scan(margin, subdivisions)
        if root is not None:
            break
    if root is None:
        raise NumericalFailureError(
            "no guided-mode root bracketed",
            diameter_nm=geometry.diameter_nm,
            wavelength_nm=geometry.wavelength_nm,
            v_number=v_number(geometry),
        )
    return GuidedMode(effective_index=float(root), v_number=v_number(geometry))


class _ModeFields:
    """Exact vector fields of a solved m = 1 mode (unit core amplitude).

    Field components are complex amplitudes with the common phase
    ``e^{i(mφ - βz + ωt)}`` stripped; the axial Poynting flux
    ``S_z = ½ Re(E_r H_φ* - E_φ H_r*)`` is then independent of φ.
    """

    def __init__(self, geometry: FiberGeometry, n_eff: float):
        self.geometry = geometry
        self.n_eff = float(n_eff)
        m = _AZIMUTHAL_ORDER
        a = geometry.radius_m
        k0 = geometry.vacuum_wavenumber
        self.omega = k0 * _C
        self.beta = self.n_eff * k0
        u, w = _transverse_arguments(geometry, n_eff)
        self.u, self.w = u, w
        self.kappa = u / a  # transverse wavenumber, core
        self.gamma = w / a  # decay constant, cladding
        self.eps_core = _EPS0 * geometry.core_index**2
        self.eps_clad = _EPS0 * geometry.cladding_index**2
        # Continuity of E_φ at r = a fixes H_z/E_z = i·b with real b.
        j1 = jv(m, u)
        jp = 0.5 * (jv(m - 1, u) - jv(m + 1, u))
        k1 = kve(m, w)
        kp = -0.5 * (kve(m - 1, w) + kve(m + 1, w))
        jk = jp / (u * j1) + kp / (w * k1)
        self.b = m * self.beta * (1.0 / u**2 + 1.0 / w**2) / (self.omega * _MU0 * jk)
        # Tangential continuity of E_z, H_z fixes the cladding amplitude
        # J₁(u)/K₁(w), carried here against the scaled K functions so the
        # e^{w-y} decay factor never overflows.
        self.clad_scale = j1 / kve(m, w)

    def transverse_fields(self, r):
        """(E_r, E_φ, H_r, H_φ) complex amplitudes at radii r [m]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        m = _AZIMUTHAL_ORDER
        a = self.geometry.radius_m
        beta, omega = self.beta, self.omega
        big_b = 1j * self.b
        er = np.empty(r.shape, dtype=complex)
        ephi = np.empty(r.shape, dtype=complex)
        hr = np.empty(r.shape, dtype=complex)
        hphi = np.empty(r.shape, dtype=complex)

        core = r <= a
        if np.any(core):
            kappa = self.kappa
            x = kappa * r[core]
            jp = 0.5 * (jv(m - 1, x) - jv(m + 1, x))
            j_over_r = kappa * _j_ratio(m, x)
            factor = -1j / kappa**2
            er[core] = factor * (beta * kappa * jp + 1j * m * omega * _MU0 * big_b * j_over_r)
            ephi[core] = factor * (1j * m * beta * j_over_r - omega * _MU0 * big_b * kappa * jp)
            hr[core] = factor * (beta * kappa * jp * big_b - 1j * m * omega * self.eps_core * j_over_r)
            hphi[core] = factor * (1j * m * beta * j_over_r * big_b + omega * self.eps_core * kappa * jp)

        clad = ~core
        if np.any(clad):
            gamma = self.gamma
            y = gamma * r[clad]
            scale = self.clad_scale * np.exp(self.w - y)
            kval = kve(m, y) * scale
            kp = -0.5 * (kve(m - 1, y) + kve(m + 1, y)) * scale
            k_over_r = gamma * kval / y
            factor = 1j / gamma**2
            er[clad] = factor * (beta * gamma * kp + 1j * m * omega * _MU0 * big_b * k_over_r)
            ephi[clad] = factor * (1j * m * beta * k_over_r - omega * _MU0 * big_b * gamma * kp)
            hr[clad] = factor * (beta * gamma * kp * big_b - 1j * m * omega * self.eps_clad * k_over_r)
            hphi[clad] = factor * (1j * m * beta * k_over_r * big_b + omega * self.eps_clad * gamma * kp)
        return er, ephi, hr, hphi

    def axial_flux(self, r):
        """S_z(r) [W/m² per unit amplitude²], azimuthally symmetric."""
        er, ephi, hr, hphi = self.transverse_fields(r)
        return 0.5 * np.real(er * np.conj(hphi) - ephi * np.conj(hr))


def _j_ratio(m: int, x):
    """J_m(x)/x, finite at x = 0 for m = 1 (→ 1/2)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = np.abs(x) < 1e-8
    if np.any(small):
        if m == 1:
            out[small] = 0.5 - x[small] ** 2 / 16.0
        else:
            out[small] = 0.0
    big = ~small
    out[big] = jv(m, x[big]) / x[big]
    return out


def mode_intensity(geometry: FiberGeometry, n_eff: float, radius_m) -> np.ndarray:
    """Axial Poynting flux profile of the solved mode at radii [m]."""
    return np.atleast_1d(_ModeFields(geometry, n_eff).axial_flux(radius_m))


def effective_mode_area(geometry: FiberGeometry, n_eff: float) -> tuple[float, float]:
    """(A_eff [µm²], surface intensity ratio) for a solved mode.

    ``A_eff = (∫∫ S_z dA)² / ∫∫ S_z² dA`` by adaptive radial quadrature
    split at the core boundary; the surface ratio is
    ``S_z(a⁺) / max_r S_z(r)``, the fraction of the peak intensity
    available in the evanescent field just outside the surface.
    """
    fields = _ModeFields(geometry, n_eff)
    a = geometry.radius_m
    outer = a + 30.0 / fields.gamma

    def flux_r(r):
        return float(fields.axial_flux(np.array([r]))[0]) * r

    def flux2_r(r):
        value = float(fields.axial_flux(np.array([r]))[0])
        return value * value * r

    total = 0.0
    total_sq = 0.0
    for integrand, accumulate_sq in ((flux_r, False), (flux2_r, True)):
        for lo, hi in ((0.0, a), (a, outer)):
            value, abserr = quad(integrand, lo, hi, epsabs=0.0, epsrel=QUADRATURE_RTOL, limit=400)
            if value != 0.0 and abs(abserr / value) > 1e-6:
                raise NumericalFailureError(
                    "mode-area quadrature did not converge",
                    interval_m=(lo, hi), relative_error=abserr / value,
                )
            if accumulate_sq:
                total_sq += value
            else:
                total += value
    area_m2 = 2.0 * math.pi * total**2 / total_sq
    grid = np.concatenate(
        [
            np.linspace(0.0, a, 2001)[:-1],
            np.linspace(a, a + 10.0 / fields.gamma, 2001) + 1e-15,
        ]
    )
    flux = fields.axial_flux(grid)
    surface = float(fields.axial_flux(np.array([a * (1.0 + 1e-12) + 1e-15]))[0])
    peak = max(float(np.max(flux)), surface)
    return area_m2 * 1e12, surface / peak


@dataclass(frozen=True)
class GuidedMode:
    """Solved guided-mode summary.

    ``effective_mode_area_um2`` and ``surface_intensity_ratio`` are None
    until computed (see :func:`solve_guided_mode`).
    """

    effective_index: float
    v_number: float
    effective_mode_area_um2: float | None = None
    surface_intensity_ratio: float | None = None

    def __post_init__(self):
        if not self.effective_index > 0.0:
            raise DomainError("effective index must be positive")
        if self.v_number <= 0.0:
            raise DomainError("V-number must be positive")
        if self.effective_mode_area_um2 is not None and self.effective_mode_area_um2 <= 0.0:
            raise DomainError("mode area must be positive")
        if self.surface_intensity_ratio is not None and not (
            0.0 < self.surface_intensity_ratio <= 1.0
        ):
            raise DomainError("surface intensity ratio must lie in (0, 1]")

    @property
    def single_mode(self) -> bool:
        return self.v_number < SINGLE_MODE_V

    def as_dict(self) -> dict:
        return {
            "v_number": self.v_number,
            "n_eff": self.effective_index,
            "a_eff_um2": self.effective_mode_area_um2,
            "surface_intensity_ratio": self.surface_intensity_ratio,
            "solver_tolerances": {
                "n_eff_abs": N_EFF_TOLERANCE,
                "quadrature_rel": QUADRATURE_RTOL,
            },
        }


def solve_guided_mode(geometry: FiberGeometry) -> GuidedMode:
    """Solve HE11 and populate the mode area and surface intensity ratio."""
    mode = solve_he11(geometry)
    bounds_ok = geometry.cladding_index < mode.effective_index < geometry.core_index
    if not bounds_ok:
        raise NumericalFailureError(
            "guided-mode root escaped the physical index interval",
            n_eff=mode.effective_index,
        )
    area_um2, surface_ratio = effective_mode_area(geometry, mode.effective_index)
    return GuidedMode(
        effective_index=mode.effective_index,
        v_number=mode.v_number,
        effective_mode_area_um2=area_um2,
        surface_intensity_ratio=surface_ratio,
    )
