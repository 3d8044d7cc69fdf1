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
from functools import cache

import numpy as np

from .errors import DomainError, NumericalFailureError
from .gratings import C_VACUUM

# scipy.optimize and scipy.special are imported by the functions that call
# them, so that importing this module (and the CLI) loads no scipy.

#: Vacuum permittivity [F/m] and permeability [H/m], CODATA 2022.
_EPS0 = 8.8541878188e-12
_MU0 = 1.25663706127e-06

#: Default silica refractive index near 1389 nm (configurable).
DEFAULT_SILICA_INDEX = 1.4449

#: Root tolerance on the effective index.
N_EFF_TOLERANCE = 1e-10

#: Largest relative difference allowed between the two mode-area rule orders.
QUADRATURE_RTOL = 1e-6

#: Single-mode limit of the V-number (first zero of J0).
SINGLE_MODE_V = 2.405

#: Gauss–Legendre orders of the mode-area rule; their difference is its error.
_RULE_ORDERS = (48, 96)


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


def _transverse_arguments(geometry: FiberGeometry, n_eff):
    """Normalized transverse arguments (u, w) at the core radius."""
    ak0 = geometry.radius_m * geometry.vacuum_wavenumber
    n2 = n_eff * n_eff  # x * x, not x ** 2 (pow), so scalars match arrays bit for bit
    u = ak0 * np.sqrt(np.maximum(geometry.core_index**2 - n2, 0.0))
    w = ak0 * np.sqrt(np.maximum(n2 - geometry.cladding_index**2, 0.0))
    return u, w


def _bessel_terms(x, y):
    """(J₁(x), J₁'(x), K₁(y), K₁'(y)), the K pair scaled by e^y."""
    from scipy.special import jv, kve

    return jv(1, x), 0.5 * (jv(0, x) - jv(2, x)), kve(1, y), -0.5 * (kve(0, y) + kve(2, y))


def he11_characteristic(geometry: FiberGeometry, n_eff):
    """Pole-free form of the m = 1 hybrid-mode dispersion relation.

    The textbook eigenvalue equation

    ``(J'/(uJ) + K'/(wK)) · (n₁²J'/(uJ) + n₂²K'/(wK)) = n_eff²(1/u² + 1/w²)²``

    is multiplied through by ``(u J₁(u) · w K₁(w))²`` so the result is
    smooth across the zeros of J₁ (where the raw equation has poles and
    sign flips that are not modes).  Guided modes are exactly the sign
    changes of this function on n_eff ∈ (n₂, n₁).  Exponentially scaled
    Bessel K functions keep large-w geometries from underflowing; the
    overall factor e^{2w} does not move the roots.  ``n_eff`` may be a
    scalar or an array; arrays are evaluated elementwise.
    """
    if not np.all((geometry.cladding_index < n_eff) & (n_eff < geometry.core_index)):
        raise DomainError("n_eff must lie strictly between the cladding and core indices")
    u, w = _transverse_arguments(geometry, n_eff)
    v2 = u * u + w * w
    j1, jp, k1, kp = _bessel_terms(u, w)
    b1 = jp * w * k1 + kp * u * j1
    b2 = geometry.core_index**2 * jp * w * k1 + geometry.cladding_index**2 * kp * u * j1
    coupling = n_eff * v2 * j1 * k1 / (u * w)
    return b1 * b2 - coupling * coupling  # x * x, as in _transverse_arguments


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
    from scipy.optimize import brentq

    n_lo = geometry.cladding_index
    n_hi = geometry.core_index

    def scan(margin: float, subdivisions: int) -> float | None:
        grid = np.linspace(n_lo + margin, n_hi - 1e-6, subdivisions + 1)
        values = he11_characteristic(geometry, grid)
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
    ``e^{i(φ - βz + ωt)}`` stripped; the axial Poynting flux
    ``S_z = ½ Re(E_r H_φ* - E_φ H_r*)`` is then independent of φ.
    """

    def __init__(self, geometry: FiberGeometry, n_eff: float):
        self.geometry = geometry
        self.n_eff = float(n_eff)
        a = geometry.radius_m
        k0 = geometry.vacuum_wavenumber
        self.omega = k0 * C_VACUUM
        self.beta = self.n_eff * k0
        u, w = _transverse_arguments(geometry, self.n_eff)
        self.w = w
        self.kappa = u / a  # transverse wavenumber, core
        self.gamma = w / a  # decay constant, cladding
        self.eps_core = _EPS0 * geometry.core_index**2
        self.eps_clad = _EPS0 * geometry.cladding_index**2
        # Continuity of E_φ at r = a fixes H_z/E_z = i·b with real b.
        j1, jp, k1, kp = _bessel_terms(u, w)
        jk = jp / (u * j1) + kp / (w * k1)
        self.b = self.beta * (1.0 / u**2 + 1.0 / w**2) / (self.omega * _MU0 * jk)
        # Tangential continuity of E_z, H_z fixes the cladding amplitude
        # J₁(u)/K₁(w), carried here against the scaled K functions so the
        # e^{w-y} decay factor never overflows.
        self.clad_scale = j1 / k1

    def transverse_fields(self, r):
        """(E_r, E_φ, H_r, H_φ) complex amplitudes at radii r [m]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        core = r <= self.geometry.radius_m
        clad = ~core
        # Per radius: transverse wavenumber q, and the slope f' and f/r of the
        # radial profile f = J₁(κr) in the core, (J₁(u)/K₁(w))·K₁(γr) outside.
        q = np.where(core, self.kappa, self.gamma)
        slope = np.empty(r.shape)
        f_over_r = np.empty(r.shape)
        x, y = self.kappa * r[core], self.gamma * r[clad]
        j1, slope[core], k1, kp = _bessel_terms(x, y)
        f_over_r[core] = self.kappa * _j1_over_x(x, j1)
        scale = self.clad_scale * np.exp(self.w - y)
        slope[clad] = kp * scale
        f_over_r[clad] = self.gamma * (k1 * scale) / y
        eps = np.where(core, self.eps_core, self.eps_clad)
        factor = np.where(core, -1j / self.kappa**2, 1j / self.gamma**2)
        beta, omega, big_b = self.beta, self.omega, 1j * self.b
        er = factor * (beta * q * slope + 1j * omega * _MU0 * big_b * f_over_r)
        ephi = factor * (1j * beta * f_over_r - omega * _MU0 * big_b * q * slope)
        hr = factor * (beta * q * slope * big_b - 1j * omega * eps * f_over_r)
        hphi = factor * (1j * beta * f_over_r * big_b + omega * eps * q * slope)
        return er, ephi, hr, hphi

    def axial_flux(self, r):
        """S_z(r) [W/m² per unit amplitude²], azimuthally symmetric."""
        er, ephi, hr, hphi = self.transverse_fields(r)
        return 0.5 * np.real(er * np.conj(hphi) - ephi * np.conj(hr))


def _j1_over_x(x, j1):
    """J₁(x)/x from J₁(x), finite at x = 0 (→ 1/2)."""
    small = np.abs(x) < 1e-8
    return np.where(small, 0.5 - x**2 / 16.0, j1 / np.where(small, 1.0, x))


def mode_intensity(geometry: FiberGeometry, n_eff: float, radius_m) -> np.ndarray:
    """Axial Poynting flux profile of the solved mode at radii [m]."""
    return np.atleast_1d(_ModeFields(geometry, n_eff).axial_flux(radius_m))


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [-1, 1], computed once per order."""
    from scipy.special import roots_legendre

    return roots_legendre(order)


def _radial_rule(a: float, gamma: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii r and weights q with ``Σ q·f(r) ≈ ∫₀^{a+30/γ} f(r)·r dr``.

    Three intervals, each mapped so its integrand is smooth: the core in
    r; ``[a, b]`` with ``b = a + 1/γ`` in ln r, where a weakly guided tail
    still falls off as a power of r; and the next 29 decay lengths in
    ``s = e^{-γ(r-b)}``, where the tail is exponential.
    """
    nodes, q = _gauss_legendre(order)
    t = 0.5 * (nodes + 1.0)  # nodes on [0, 1]; the weights then halve
    b = a + 1.0 / gamma
    r_core = a * t
    log_span = math.log(b / a)
    r_near = a * np.exp(log_span * t)
    s_lo = math.exp(-29.0)
    s = s_lo + (1.0 - s_lo) * t
    r_far = b - np.log(s) / gamma
    radii = np.concatenate([r_core, r_near, r_far])
    weights = 0.5 * np.concatenate(
        [a * q * r_core, log_span * q * r_near**2, (1.0 - s_lo) * q * r_far / (gamma * s)]
    )
    return radii, weights


def effective_mode_area(geometry: FiberGeometry, n_eff: float) -> tuple[float, float]:
    """(A_eff [µm²], surface intensity ratio) for a solved mode.

    ``A_eff = (∫∫ S_z dA)² / ∫∫ S_z² dA`` by Gauss–Legendre quadrature on
    three radial intervals (see :func:`_radial_rule`), run at two orders
    whose relative difference is the error estimate.  The surface ratio is
    ``S_z(a⁺) / max_r S_z(r)``, the fraction of the peak intensity
    available in the evanescent field just outside the surface; the HE11
    flux peaks either on the axis or at ``a⁺``.
    """
    fields = _ModeFields(geometry, n_eff)
    a = geometry.radius_m
    peak_radii = np.array([0.0, a * (1.0 + 1e-12) + 1e-15])
    integrals = []
    for order in _RULE_ORDERS:
        radii, weights = _radial_rule(a, fields.gamma, order)
        flux = fields.axial_flux(np.concatenate([radii, peak_radii]))
        flux, (axis, surface) = flux[:-2], flux[-2:]
        integrals.append(np.array([weights @ flux, weights @ (flux * flux)]))
    coarse, fine = integrals
    relative_error = float(np.max(np.abs(coarse / fine - 1.0)))
    if not relative_error <= QUADRATURE_RTOL:
        raise NumericalFailureError(
            "mode-area quadrature did not converge",
            diameter_nm=geometry.diameter_nm,
            wavelength_nm=geometry.wavelength_nm,
            relative_error=relative_error,
        )
    total, total_sq = fine
    area_m2 = 2.0 * math.pi * total**2 / total_sq
    return float(area_m2) * 1e12, float(surface / max(axis, surface))


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
    area_um2, surface_ratio = effective_mode_area(geometry, mode.effective_index)
    return GuidedMode(
        effective_index=mode.effective_index,
        v_number=mode.v_number,
        effective_mode_area_um2=area_um2,
        surface_intensity_ratio=surface_ratio,
    )
