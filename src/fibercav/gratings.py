"""Uniform fiber Bragg gratings as cavity mirrors.

A uniform grating of length ``L`` and coupling strength ``kappa`` reflects
with peak power reflectivity ``R = tanh²(kappa·L)`` and, within coupled-mode
theory, has the closed-form complex response

    r(δ) = -κ·S / (δ·S + i·cosh(γL)),      t(δ) = 1 / (δ·S + i·cosh(γL)),

with detuning ``δ`` (rad/m) from the Bragg wavenumber, ``γ² = κ² - δ²`` and
``S = sinh(γL)/γ``.  The closed form conserves energy exactly
(``|r|² + |t|² = 1``) because the grating itself is lossless; all loss in
the cavity model lives in the intrinsic round-trip channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: Speed of light in vacuum [m/s], exact by the SI definition.
C_VACUUM = 299792458.0

#: Effective index of the guided mode inside the grating region.  Standard
#: germanosilicate single-mode fiber near 1.4 um.
DEFAULT_GRATING_INDEX = 1.447

#: Relative tolerance for the internal consistency of a GratingSpec whose
#: coupling strength and peak reflectivity are both populated.
_CONSISTENCY_RTOL = 1e-9


def grating_coupling_from_peak(peak_reflectivity: float, grating_length_m: float) -> float:
    """Coupling strength ``kappa`` (1/m) from peak reflectivity and length.

    Inverts ``R = tanh²(kappa L)``:  ``kappa = atanh(sqrt(R)) / L``.

    Parameters
    ----------
    peak_reflectivity : float
        Power reflectivity at band center, strictly inside (0, 1).
    grating_length_m : float
        Physical grating length [m], > 0.

    Returns
    -------
    float
        Coupling strength [1/m].
    """
    if not 0.0 < peak_reflectivity < 1.0:
        raise DomainError(
            f"peak reflectivity must lie strictly in (0, 1), got {peak_reflectivity!r}"
        )
    if grating_length_m <= 0.0:
        raise DomainError(f"grating length must be > 0, got {grating_length_m!r}")
    return math.atanh(math.sqrt(peak_reflectivity)) / grating_length_m


@dataclass(frozen=True)
class GratingSpec:
    """Physical description of one uniform grating mirror.

    Attributes
    ----------
    center_wavelength_nm : float
        Bragg (band-center) wavelength [nm].
    grating_length_mm : float
        Grating length [mm].
    peak_reflectivity : float
        Power reflectivity at band center, in (0, 1).
    effective_index : float
        Effective index of the guided mode in the grating fiber.
    coupling_strength : float, optional
        Coupling strength kappa [1/m].  Derived from the peak reflectivity
        and length when omitted; when given it must reproduce the peak
        reflectivity through tanh²(kappa L).
    """

    center_wavelength_nm: float
    grating_length_mm: float
    peak_reflectivity: float
    effective_index: float = DEFAULT_GRATING_INDEX
    coupling_strength: float | None = field(default=None)

    def __post_init__(self):
        if self.center_wavelength_nm <= 0.0:
            raise DomainError("center wavelength must be > 0 nm")
        if self.grating_length_mm <= 0.0:
            raise DomainError("grating length must be > 0 mm")
        if not 0.0 < self.peak_reflectivity < 1.0:
            raise DomainError(
                f"peak reflectivity must lie in (0, 1), got {self.peak_reflectivity!r}"
            )
        if self.effective_index <= 1.0:
            raise DomainError("effective index must exceed 1")
        kappa = grating_coupling_from_peak(self.peak_reflectivity, self.grating_length_m)
        if self.coupling_strength is None:
            object.__setattr__(self, "coupling_strength", kappa)
        else:
            implied = math.tanh(self.coupling_strength * self.grating_length_m) ** 2
            if abs(implied - self.peak_reflectivity) > _CONSISTENCY_RTOL * self.peak_reflectivity:
                raise DomainError(
                    "coupling strength inconsistent with peak reflectivity: "
                    f"tanh²(kL) = {implied!r} vs R = {self.peak_reflectivity!r}"
                )

    @property
    def grating_length_m(self) -> float:
        return self.grating_length_mm * 1e-3

    @property
    def center_wavelength_m(self) -> float:
        return self.center_wavelength_nm * 1e-9

    @classmethod
    def from_peak_and_length(
        cls,
        center_wavelength_nm: float,
        peak_reflectivity: float,
        grating_length_mm: float,
        effective_index: float = DEFAULT_GRATING_INDEX,
    ) -> "GratingSpec":
        """Construct from the (R_peak, L) pair; kappa follows."""
        return cls(
            center_wavelength_nm=center_wavelength_nm,
            grating_length_mm=grating_length_mm,
            peak_reflectivity=peak_reflectivity,
            effective_index=effective_index,
        )

    @classmethod
    def from_peak_and_stopband(
        cls,
        center_wavelength_nm: float,
        peak_reflectivity: float,
        stopband_nm: float,
        effective_index: float = DEFAULT_GRATING_INDEX,
    ) -> "GratingSpec":
        """Construct from the (R_peak, stopband) pair; length follows.

        The stopband fixes kappa through ``Δλ = λ² kappa / (π n_eff)`` and
        the length then follows from the peak reflectivity.  Use this when
        a datasheet quotes bandwidth rather than physical length; the two
        construction routes are not interchangeable for over-determined
        inputs.
        """
        if stopband_nm <= 0.0:
            raise DomainError("stopband width must be > 0 nm")
        lam = center_wavelength_nm * 1e-9
        kappa = math.pi * effective_index * (stopband_nm * 1e-9) / lam**2
        length_m = math.atanh(math.sqrt(peak_reflectivity)) / kappa
        return cls(
            center_wavelength_nm=center_wavelength_nm,
            grating_length_mm=length_m * 1e3,
            peak_reflectivity=peak_reflectivity,
            effective_index=effective_index,
        )


@dataclass(frozen=True)
class MirrorResponse:
    """Complex grating response sampled on a detuning grid.

    Attributes
    ----------
    detuning : ndarray
        Angular frequency offset from Bragg resonance [rad/s].
    reflection_amplitude, transmission_amplitude : ndarray (complex)
        Amplitude coefficients; ``|r|² + |t|² = 1`` at every sample.
    """

    detuning: np.ndarray
    reflection_amplitude: np.ndarray
    transmission_amplitude: np.ndarray

    def __post_init__(self):
        det = np.atleast_1d(np.asarray(self.detuning, dtype=float))
        refl = np.atleast_1d(np.asarray(self.reflection_amplitude, dtype=complex))
        trans = np.atleast_1d(np.asarray(self.transmission_amplitude, dtype=complex))
        if not (det.shape == refl.shape == trans.shape):
            raise DomainError("detuning and response arrays must share one shape")
        budget = np.abs(refl) ** 2 + np.abs(trans) ** 2
        if np.any(budget > 1.0 + 1e-9):
            raise DomainError(
                f"lossless grating must satisfy |r|²+|t|² <= 1, max = {budget.max()!r}"
            )
        for name, arr in (("detuning", det),
                          ("reflection_amplitude", refl),
                          ("transmission_amplitude", trans)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def reflectivity(self) -> np.ndarray:
        """Power reflectivity |r|²."""
        return np.abs(self.reflection_amplitude) ** 2

    @property
    def transmissivity(self) -> np.ndarray:
        """Power transmissivity |t|²."""
        return np.abs(self.transmission_amplitude) ** 2


def propagation_detuning(spec: GratingSpec, angular_detuning) -> np.ndarray:
    """Convert angular frequency offset [rad/s] to wavenumber detuning [rad/m].

    ``δ = n_eff Δω / c`` — index dispersion across the narrow stopband is
    neglected.
    """
    return spec.effective_index * np.asarray(angular_detuning, dtype=float) / C_VACUUM


def grating_response(spec: GratingSpec, angular_detuning) -> MirrorResponse:
    """Closed-form complex reflection/transmission of a uniform grating.

    Parameters
    ----------
    spec : GratingSpec
        Grating description; kappa is read off this object.
    angular_detuning : array_like
        Angular frequency offsets from Bragg resonance [rad/s].

    Returns
    -------
    MirrorResponse
        Sampled response.  Peak reflectivity sits at zero detuning, side
        lobes fall off as 1/δ² far outside the stopband.
    """
    angular = np.atleast_1d(np.asarray(angular_detuning, dtype=float))
    delta = propagation_detuning(spec, angular)
    kappa = spec.coupling_strength
    length = spec.grating_length_m

    gamma = np.sqrt(np.asarray(kappa**2 - delta**2, dtype=complex))
    gl = gamma * length
    # sinh(gamma L)/gamma is entire in gamma²; series for the small-argument limit.
    small = np.abs(gl) < 1e-6
    sinhc = np.where(small, length * (1.0 + gl**2 / 6.0), np.sinh(gl) / np.where(gamma == 0, 1.0, gamma))
    denom = delta * sinhc + 1j * np.cosh(gl)
    refl = -kappa * sinhc / denom
    trans = 1.0 / denom
    return MirrorResponse(
        detuning=angular, reflection_amplitude=refl, transmission_amplitude=trans
    )


def grating_stopband(spec: GratingSpec) -> float:
    """Full stopband width [nm]: ``Δλ = λ² kappa / (π n_eff)``.

    The band edges sit where the wavenumber detuning magnitude equals
    kappa; the width is converted to wavelength through the effective
    index.
    """
    lam = spec.center_wavelength_m
    return lam**2 * spec.coupling_strength / (math.pi * spec.effective_index) * 1e9
