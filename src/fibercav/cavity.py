"""Two-mirror cavity spectra and their CSV serialization.

The cavity is modeled as two lumped grating mirrors joined by a guided
span with group index ``n_g`` and an intrinsic fractional power loss
``alpha_int`` per round trip.  With amplitude reflectivities ``r₁, r₂``
(evaluated at the cavity resonance detuning, i.e. band center), the
per-round-trip amplitude survival is ``ρ = r₁ r₂ √(1 - alpha_int)`` and

    T(ν) = T₁ T₂ √(1-alpha_int) / |1 - ρ e^{iφ}|²,
    R(ν) = |(r₂ a e^{iφ} - r₁) / (1 - ρ e^{iφ})|²,   a = √(1-alpha_int),

with round-trip phase ``φ = 2πν / FSR`` and ``FSR = c / (2 n_g L)``.
Resonances sit at integer multiples of the free spectral range, and the
finesse obeys ``F ≈ 2π / (T₁ + T₂ + alpha_int)`` in the small-loss limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DomainError, ParseError, SingularCavityError
from .gratings import C_VACUUM, GratingSpec
from .tables import read_columns, write_columns

#: Group index of standard single-mode silica fiber near 1.4 um.
DEFAULT_GROUP_INDEX = 1.462

#: Header of the spectrum interchange format (reflection column optional).
SPECTRUM_HEADER = ("freq_offset_hz", "transmission", "reflection")

#: Fewer samples per linewidth than this triggers the resolution warning.
_MIN_SAMPLES_PER_FWHM = 5.0

#: Small-loss ceiling for the closed-form on-resonance expressions.
_MAX_TOTAL_LOSS = 0.05


@dataclass(frozen=True)
class CavityModel:
    """Two grating mirrors around a guided span.

    Attributes
    ----------
    mirror_1, mirror_2 : GratingSpec
        Input-side and far-side mirrors.
    length_mm : float
        Optical cavity length [mm] (grating-to-grating effective length).
    group_index : float
        Group index setting the free spectral range.
    intrinsic_loss : float
        Fractional intrinsic power loss per round trip, in [0, 1).
    """

    mirror_1: GratingSpec
    mirror_2: GratingSpec
    length_mm: float
    group_index: float = DEFAULT_GROUP_INDEX
    intrinsic_loss: float = 0.0

    def __post_init__(self):
        if self.length_mm <= 0.0:
            raise DomainError("cavity length must be > 0 mm")
        if self.group_index < 1.0:
            raise DomainError("group index must be >= 1")
        if not 0.0 <= self.intrinsic_loss < 1.0:
            raise DomainError(
                f"intrinsic round-trip loss must lie in [0, 1), got {self.intrinsic_loss!r}"
            )

    @property
    def fsr_hz(self) -> float:
        """Free spectral range c / (2 n_g L) [Hz]."""
        return C_VACUUM / (2.0 * self.group_index * self.length_mm * 1e-3)

    @property
    def mirror_transmittance_1(self) -> float:
        """Power transmittance of mirror 1 at band center."""
        return 1.0 - self.mirror_1.peak_reflectivity

    @property
    def mirror_transmittance_2(self) -> float:
        """Power transmittance of mirror 2 at band center."""
        return 1.0 - self.mirror_2.peak_reflectivity

    @property
    def total_loss(self) -> float:
        """Round-trip loss T₁ + T₂ + alpha_int."""
        return self.mirror_transmittance_1 + self.mirror_transmittance_2 + self.intrinsic_loss

    @property
    def expected_finesse(self) -> float:
        """Small-loss finesse 2π / total round-trip loss."""
        if self.total_loss == 0.0:
            raise SingularCavityError("total round-trip loss is zero")
        return 2.0 * math.pi / self.total_loss

    @property
    def expected_fwhm_hz(self) -> float:
        """Resonance linewidth FSR / finesse [Hz]."""
        return self.fsr_hz / self.expected_finesse

    def swapped(self) -> "CavityModel":
        """The same cavity probed from the other side."""
        return replace(self, mirror_1=self.mirror_2, mirror_2=self.mirror_1)


@dataclass(frozen=True)
class SpectrumTrace:
    """A transmission (and optional reflection) spectrum on a frequency grid.

    Attributes
    ----------
    frequency_hz : ndarray
        Strictly increasing frequency offsets [Hz].
    transmission : ndarray
        Normalized transmission, every sample in [0, 1].
    reflection : ndarray, optional
        Normalized reflection, every sample in [0, 1].
    resolution_warning : bool
        True when the grid undersamples the expected linewidth.
    """

    frequency_hz: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray | None = None
    resolution_warning: bool = field(default=False, compare=False)

    def __post_init__(self):
        freq = np.atleast_1d(np.asarray(self.frequency_hz, dtype=float))
        trans = np.atleast_1d(np.asarray(self.transmission, dtype=float))
        if freq.ndim != 1 or freq.shape != trans.shape:
            raise DomainError("frequency grid and transmission must be 1-D and congruent")
        if freq.size < 2:
            raise DomainError("a spectrum needs at least two samples")
        if not np.all(np.isfinite(freq)):
            raise DomainError("frequency grid contains non-finite samples")
        if np.any(np.diff(freq) <= 0.0):
            raise DomainError("frequency grid must be strictly increasing")
        self._check_channel("transmission", trans)
        refl = self.reflection
        if refl is not None:
            refl = np.atleast_1d(np.asarray(refl, dtype=float))
            if refl.shape != freq.shape:
                raise DomainError("reflection must be congruent with the frequency grid")
            self._check_channel("reflection", refl)
            refl.setflags(write=False)
        freq.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "frequency_hz", freq)
        object.__setattr__(self, "transmission", trans)
        object.__setattr__(self, "reflection", refl)

    @staticmethod
    def _check_channel(name: str, values: np.ndarray):
        if not np.all(np.isfinite(values)):
            raise DomainError(f"{name} contains non-finite samples")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise DomainError(f"{name} must lie in [0, 1] after normalization")

    def __eq__(self, other):
        if not isinstance(other, SpectrumTrace):
            return NotImplemented
        # array_equal treats a missing reflection as equal only to a missing one
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self) if f.compare
        )


def cavity_spectrum(model: CavityModel, frequency_hz) -> SpectrumTrace:
    """Synthesize transmission and reflection spectra for a cavity model.

    Parameters
    ----------
    model : CavityModel
    frequency_hz : array_like
        Strictly increasing frequency offsets [Hz]; zero offset is a
        resonance.  Mirror responses are taken at band center (their values
        at the cavity resonance detuning) and held constant across the
        grid, which is narrow compared with the grating stopband.

    Returns
    -------
    SpectrumTrace
        With ``resolution_warning`` set when the grid step resolves the
        expected linewidth with fewer than five samples.
    """
    freq = np.atleast_1d(np.asarray(frequency_hz, dtype=float))
    r1 = math.sqrt(model.mirror_1.peak_reflectivity)
    r2 = math.sqrt(model.mirror_2.peak_reflectivity)
    t1_sq = model.mirror_transmittance_1
    t2_sq = model.mirror_transmittance_2
    survival = math.sqrt(1.0 - model.intrinsic_loss)  # round-trip amplitude factor

    phase = np.exp(2j * math.pi * freq / model.fsr_hz)
    denom = 1.0 - r1 * r2 * survival * phase
    denom_sq = np.abs(denom) ** 2
    transmission = t1_sq * t2_sq * survival / denom_sq
    reflection = np.abs(r2 * survival * phase - r1) ** 2 / denom_sq

    step = float(np.max(np.diff(freq)))
    warn = model.total_loss > 0.0 and step * _MIN_SAMPLES_PER_FWHM > model.expected_fwhm_hz
    return SpectrumTrace(
        frequency_hz=freq,
        transmission=np.clip(transmission, 0.0, 1.0),
        reflection=np.clip(reflection, 0.0, 1.0),
        resolution_warning=warn,
    )


def on_resonance_values(model: CavityModel) -> tuple[float, float, float]:
    """Small-loss closed forms for the on-resonance levels.

    Returns
    -------
    (t_res, r_res_1, r_res_2) : tuple of float
        ``T_res = 4 T₁ T₂ / α_tot²`` and, probed from side k,
        ``R_res = (1 - 2 T_k / α_tot)²``.  Valid for total loss below 5%;
        each agrees with the full spectrum at resonance to better than
        0.5% relative in that regime.
    """
    alpha_tot = model.total_loss
    if alpha_tot == 0.0:
        raise SingularCavityError("on-resonance values diverge for a lossless cavity")
    if alpha_tot > _MAX_TOTAL_LOSS:
        raise DomainError(
            f"closed forms assume total loss <= {_MAX_TOTAL_LOSS}, got {alpha_tot!r}"
        )
    t1 = model.mirror_transmittance_1
    t2 = model.mirror_transmittance_2
    t_res = 4.0 * t1 * t2 / alpha_tot**2
    r_res_1 = (1.0 - 2.0 * t1 / alpha_tot) ** 2
    r_res_2 = (1.0 - 2.0 * t2 / alpha_tot) ** 2
    return t_res, r_res_1, r_res_2


# ----------------------------------------------------------------------
# CSV interchange


def write_spectrum_csv(trace: SpectrumTrace, path) -> None:
    """Write a trace in the ``freq_offset_hz,transmission[,reflection]`` format.

    Floats are written with shortest round-trip representation, so a
    read-back reproduces the trace bit for bit.
    """
    columns = (trace.frequency_hz, trace.transmission)
    if trace.reflection is not None:
        columns += (trace.reflection,)
    write_columns(path, SPECTRUM_HEADER[: len(columns)], columns)


def parse_spectrum_csv(path, normalize: bool = False) -> SpectrumTrace:
    """Read a spectrum CSV, optionally rescaling raw detector units.

    With ``normalize=True`` each channel is divided by its 95th-percentile
    plateau and clipped into [0, 1], so traces recorded in volts map onto
    the normalized conventions (off-resonance reflection plateau at 1).

    Raises
    ------
    ParseError
        As :func:`fibercav.tables.read_columns` does for the file and its
        rows, or when a channel lies outside [0, 1] without ``normalize``.
    """
    header, (freq, *channels) = read_columns(path, (SPECTRUM_HEADER, SPECTRUM_HEADER[:2]))
    if normalize:
        channels = [_normalize_channel(chan, path) for chan in channels]
    for name, chan in zip(header[1:], channels):
        if np.any(chan < 0.0) or np.any(chan > 1.0):
            raise ParseError(
                f"{name} outside [0, 1]; raw detector units need normalize=True (fit --normalize)",
                path=str(path),
            )
    return SpectrumTrace(
        frequency_hz=freq,
        transmission=channels[0],
        reflection=channels[1] if len(channels) == 2 else None,
    )


def _normalize_channel(values: np.ndarray, path) -> np.ndarray:
    plateau = float(np.percentile(values, 95.0))
    if plateau <= 0.0:
        raise ParseError("cannot normalize a non-positive channel plateau", path=str(path))
    return np.clip(values / plateau, 0.0, 1.0)
