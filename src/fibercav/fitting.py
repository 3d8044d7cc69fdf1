"""Resonance detection, Lorentzian line fitting, and finesse extraction.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) loop with
analytic Jacobians.  Steps are accepted only when they do not increase the
sum of squared residuals, so the cost is monotone non-increasing across
accepted steps; iteration stops when the relative cost change drops below
1e-10 or the step norm (in scaled coordinates) drops below 1e-12.
Parameter sigmas come from the covariance of the linearized problem at the
solution, scaled by the reduced chi-square.

All fits run in scaled coordinates (frequency mapped onto [-1, 1] across
the window) so the convergence thresholds and the normal equations are
well conditioned regardless of the grid's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cavity import DEFAULT_GROUP_INDEX, SpectrumTrace
from .errors import (
    DomainError,
    FitFailureError,
    InsufficientPeaksError,
    WindowTooNarrowError,
)
from .gratings import C_VACUUM
from .quantity import Quantity, ratio

_COST_TOL = 1e-10
_STEP_TOL = 1e-12
_DEFAULT_MAX_ITERATIONS = 200
_MIN_WINDOW_SAMPLES = 10
_MIN_SAMPLES_IN_FWHM = 3

_BACKGROUNDS = ("constant", "linear", "linear+etalon")


@dataclass(frozen=True)
class EtalonBackground:
    """Sinusoidal background component riding under a resonance."""

    amplitude: float
    period_hz: float
    phase_rad: float

    def as_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "period_hz": self.period_hz,
            "phase_rad": self.phase_rad,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EtalonBackground":
        return cls(
            float(data["amplitude"]), float(data["period_hz"]), float(data["phase_rad"])
        )


@dataclass(frozen=True)
class ResonanceFit:
    """One fitted resonance line.

    ``baseline`` holds the background polynomial coefficients (constant
    term, then slope per Hz) referenced to the window center.  ``goodness``
    is the reduced chi-square of the unweighted fit.
    """

    center: Quantity
    fwhm: Quantity
    amplitude: Quantity
    baseline: tuple[float, ...]
    window_hz: tuple[float, float]
    model: str
    channel: str
    goodness: float
    etalon: EtalonBackground | None = None
    iterations: int = field(default=0, compare=False)

    def __post_init__(self):
        lo, hi = self.window_hz
        if not lo < hi:
            raise DomainError("fit window must be a non-empty interval")
        if not lo <= self.center.value <= hi:
            raise DomainError("fitted center lies outside its window")
        if self.fwhm.value <= 0.0:
            raise DomainError("fitted FWHM must be > 0")
        if not math.isfinite(self.goodness):
            raise DomainError("reduced chi-square must be finite")

    def as_dict(self) -> dict:
        return {
            "center_hz": self.center.as_dict(),
            "fwhm_hz": self.fwhm.as_dict(),
            "amplitude": self.amplitude.as_dict(),
            "baseline": list(self.baseline),
            "window_hz": list(self.window_hz),
            "model": self.model,
            "channel": self.channel,
            "chi2_reduced": self.goodness,
            "etalon": self.etalon.as_dict() if self.etalon else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResonanceFit":
        etalon = data.get("etalon")
        return cls(
            center=Quantity.from_dict(data["center_hz"]),
            fwhm=Quantity.from_dict(data["fwhm_hz"]),
            amplitude=Quantity.from_dict(data["amplitude"]),
            baseline=tuple(float(b) for b in data["baseline"]),
            window_hz=tuple(float(w) for w in data["window_hz"]),
            model=str(data["model"]),
            channel=str(data["channel"]),
            goodness=float(data["chi2_reduced"]),
            etalon=EtalonBackground.from_dict(etalon) if etalon else None,
        )


@dataclass(frozen=True)
class PeakSet:
    """An ordered collection of fitted resonances and their spacing."""

    peaks: tuple[ResonanceFit, ...]
    fsr: Quantity

    def __post_init__(self):
        if len(self.peaks) < 1:
            raise DomainError("a peak set needs at least one resonance")
        centers = [p.center.value for p in self.peaks]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise DomainError("peaks must be ordered by strictly increasing center")
        if self.fsr.value <= 0.0:
            raise DomainError("free spectral range must be > 0")


@dataclass(frozen=True)
class FitReport:
    """End-to-end result of analyzing one spectrum."""

    peaks: PeakSet
    fwhm: Quantity
    finesse: Quantity
    length_mm: Quantity
    group_index: float
    channel: str
    polarity: str
    finesse_sigma_from_fsr: float
    finesse_sigma_from_fwhm: float

    def as_dict(self) -> dict:
        return {
            "peaks": [p.as_dict() for p in self.peaks.peaks],
            "fsr_hz": self.peaks.fsr.as_dict(),
            "fwhm_hz": self.fwhm.as_dict(),
            "finesse": self.finesse.as_dict(),
            "length_mm": self.length_mm.as_dict(),
            "group_index": self.group_index,
            "channel": self.channel,
            "polarity": self.polarity,
            "finesse_sigma_from_fsr": self.finesse_sigma_from_fsr,
            "finesse_sigma_from_fwhm": self.finesse_sigma_from_fwhm,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FitReport":
        peaks = tuple(ResonanceFit.from_dict(p) for p in data["peaks"])
        return cls(
            peaks=PeakSet(peaks=peaks, fsr=Quantity.from_dict(data["fsr_hz"])),
            fwhm=Quantity.from_dict(data["fwhm_hz"]),
            finesse=Quantity.from_dict(data["finesse"]),
            length_mm=Quantity.from_dict(data["length_mm"]),
            group_index=float(data["group_index"]),
            channel=str(data["channel"]),
            polarity=str(data["polarity"]),
            finesse_sigma_from_fsr=float(data["finesse_sigma_from_fsr"]),
            finesse_sigma_from_fwhm=float(data["finesse_sigma_from_fwhm"]),
        )


# ----------------------------------------------------------------------
# Peak detection


def _channel_values(trace: SpectrumTrace, channel: str) -> np.ndarray:
    if channel == "transmission":
        return trace.transmission
    if channel == "reflection":
        if trace.reflection is None:
            raise DomainError("trace has no reflection channel")
        return trace.reflection
    raise DomainError(f"unknown channel {channel!r}")


def detect_peaks(
    trace: SpectrumTrace,
    polarity: str = "peak",
    prominence_threshold: float = 0.1,
    channel: str = "transmission",
) -> np.ndarray:
    """Locate candidate resonance centers.

    Local extrema whose prominence exceeds ``prominence_threshold`` times
    the peak-to-peak range of the channel are reported, ordered by
    frequency.  A flat trace yields an empty array.

    Parameters
    ----------
    trace : SpectrumTrace
    polarity : {"peak", "dip"}
        Whether resonances stick up (transmission) or down (reflection).
    prominence_threshold : float
        Fraction of the channel's peak-to-peak range, in (0, 1).
    channel : {"transmission", "reflection"}

    Returns
    -------
    ndarray
        Candidate center frequencies [Hz].
    """
    return trace.frequency_hz[_candidates(trace, polarity, prominence_threshold, channel)[0]]


def find_peaks(x, *, prominence: float):
    """Local maxima of ``x`` whose prominence is at least ``prominence``.

    Returns ``(indices, {"prominences": ...})``, the same arrays, bit for
    bit, as ``scipy.signal.find_peaks(x, prominence=prominence)``, by the
    same rules:

    - a local maximum is a sample, or a flat run of equal samples, with a
      strictly lower neighbour on each side; a run's peak is its midpoint
      ``(left + right) // 2``, and nothing is reported at either edge;
    - from the peak, the base search walks each way until the first sample
      strictly higher than the peak, or the edge; the lowest sample walked
      over is that side's base;
    - the prominence is ``x[peak] - max(left base, right base)``, and a peak
      is kept when ``prominence <= its prominence``.

    Between two neighbouring maxima the samples only fall and then only
    rise, so the walk passes every maximum no higher than the peak, and
    stops on the way up to the first higher one after crossing the bottom
    of the valley before it.  Each base is therefore the lowest valley
    between the peak and the nearest strictly higher maximum on that side
    (:func:`_base_minima`).
    """
    x = np.asarray(x, dtype=float)
    slopes = np.diff(x)
    turns = np.flatnonzero(slopes)
    rising = slopes[turns] > 0.0
    # Where the slope changes sign an extremum spans turn + 1 .. next turn;
    # maxima and minima alternate.
    change = np.flatnonzero(rising[:-1] != rising[1:])
    first = 0 if change.size and rising[change[0]] else 1  # 0: a maximum comes first
    left_end = turns[change] + 1
    peaks = (left_end[first::2] + turns[change + 1][first::2]) // 2
    if peaks.size == 0:
        return peaks, {"prominences": np.empty(0)}
    heights = x[peaks]
    # valleys[j]: the lowest sample between peak j - 1 and peak j, which is
    # the local minimum between them; before the first peak and after the
    # last, the edge sample stands in where the trace has no minimum there.
    troughs = x[left_end[1 - first::2]]
    head = x[:1] if first == 0 else x[:0]
    tail = x[-1:] if head.size + troughs.size == peaks.size else x[:0]
    valleys = np.concatenate((head, troughs, tail))
    left = _base_minima(heights, valleys)
    right = _base_minima(heights[::-1], valleys[::-1])[::-1]
    prominences = heights - np.maximum(left, right)
    keep = prominence <= prominences
    return peaks[keep], {"prominences": prominences[keep]}


def _base_minima(heights: np.ndarray, valleys: np.ndarray) -> np.ndarray:
    """Per peak, the lowest valley back to the nearest strictly higher peak on its left.

    ``valleys[j]`` is the lowest sample between peak ``j - 1`` (the edge for
    ``j = 0``) and peak ``j``.  Pointer jumping: every peak points at a peak
    to its left, none higher than itself in between, and holds the lowest
    valley in between; while the peak pointed at is no higher, the pointer
    takes over that peak's pointer and valley.  Each round is one array
    operation over the peaks still moving; a pointer doubles its reach per
    round, or steps past a peak whose own pointer is final, so the rounds
    never outnumber the peaks a sample-by-sample walk would pass.
    """
    size = heights.size
    pointer = np.arange(-1, size - 1)  # -1: the edge
    base = valleys[:size].copy()
    ceiling = np.append(heights, np.inf)  # ceiling[-1]: the edge stops every walk
    moving = np.flatnonzero(heights[:-1] <= heights[1:]) + 1
    while moving.size:
        target = pointer[moving]
        base[moving] = np.minimum(base[moving], base[target])
        target = pointer[target]
        pointer[moving] = target
        moving = moving[ceiling[target] <= heights[moving]]
    return base


def _candidates(trace, polarity, prominence_threshold, channel):
    """Validated ``find_peaks`` on the oriented channel: ``(indices, prominences, oriented)``."""
    if polarity not in ("peak", "dip"):
        raise DomainError(f"polarity must be 'peak' or 'dip', got {polarity!r}")
    if not 0.0 < prominence_threshold < 1.0:
        raise DomainError("prominence threshold must lie in (0, 1)")
    values = _channel_values(trace, channel)
    oriented = values if polarity == "peak" else -values
    indices, props = find_peaks(oriented, prominence=prominence_threshold * float(np.ptp(values)))
    return indices, props["prominences"], oriented


def _half_prominence_width(
    freq: np.ndarray, oriented: np.ndarray, index: int, base: float
) -> float:
    """Estimate a FWHM from the half-height crossings around one extremum above ``base``."""
    half = base + 0.5 * (oriented[index] - base)
    left = index
    while left > 0 and oriented[left] > half:
        left -= 1
    right = index
    while right < oriented.size - 1 and oriented[right] > half:
        right += 1
    if left == index or right == index:
        return float(freq[-1] - freq[0]) / 6.0
    # linear interpolation onto the crossing on each side
    f_left = np.interp(half, [oriented[left], oriented[left + 1]], [freq[left], freq[left + 1]])
    f_right = np.interp(
        half, [oriented[right], oriented[right - 1]], [freq[right], freq[right - 1]]
    )
    width = float(f_right - f_left)
    if width <= 0.0:
        return float(freq[-1] - freq[0]) / 6.0
    return width


# ----------------------------------------------------------------------
# Levenberg-Marquardt core


@dataclass
class _LMResult:
    params: np.ndarray
    cost: float
    residual: np.ndarray
    jacobian: np.ndarray
    iterations: int
    converged: bool


def _levenberg_marquardt(residual_jac, p0, max_iterations: int) -> _LMResult:
    params = np.asarray(p0, dtype=float).copy()
    residual, jacobian = residual_jac(params)
    cost = float(residual @ residual)
    damping = 1e-3
    iterations = 0
    converged = False
    while iterations < max_iterations:
        iterations += 1
        gradient = jacobian.T @ residual
        normal = jacobian.T @ jacobian
        scale = np.clip(np.diag(normal), 1e-14, None)
        accepted = False
        step = None
        for _ in range(60):
            try:
                step = np.linalg.solve(normal + damping * np.diag(scale), -gradient)
            except np.linalg.LinAlgError:
                damping = min(damping * 10.0, 1e14)
                continue
            trial = params + step
            trial_residual, trial_jacobian = residual_jac(trial)
            trial_cost = float(trial_residual @ trial_residual)
            if np.isfinite(trial_cost) and trial_cost <= cost:
                accepted = True
                break
            damping = min(damping * 4.0, 1e14)
        if not accepted:
            # No descent direction within the damping budget: the iterate is
            # at a numerical minimum, which counts as converged.
            converged = True
            break
        drop = cost - trial_cost
        params = trial
        residual, jacobian, cost = trial_residual, trial_jacobian, trial_cost
        damping = max(damping / 3.0, 1e-14)
        if drop <= _COST_TOL * max(cost, 1e-300) or float(np.linalg.norm(step)) < _STEP_TOL:
            converged = True
            break
    return _LMResult(params, cost, residual, jacobian, iterations, converged)


def _parameter_sigmas(jacobian: np.ndarray, cost: float) -> np.ndarray:
    """Parameter sigmas ``sqrt(diag(inv(JᵀJ) · cost / max(n - p, 1)))``; 0.0 where singular."""
    n, p = jacobian.shape
    chi2_reduced = cost / max(n - p, 1)
    try:
        covariance = np.linalg.inv(jacobian.T @ jacobian) * chi2_reduced
    except np.linalg.LinAlgError:
        return np.zeros(p)
    sigmas = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return np.where(np.isfinite(sigmas), sigmas, 0.0)


def _lorentzian_residual_factory(x, y, sign, n_baseline, with_etalon):
    """Build residual+Jacobian callable for the scaled line model."""

    def residual_jac(params):
        center, width, amplitude = params[0], params[1], params[2]
        quarter = width * width / 4.0
        offset = x - center
        denom = offset * offset + quarter
        lor = quarter / denom
        model = params[3] + sign * amplitude * lor
        if n_baseline == 2:
            model = model + params[4] * x
        columns = [
            sign * amplitude * quarter * 2.0 * offset / denom**2,  # d/dc
            sign * amplitude * (width / 2.0) * offset**2 / denom**2,  # d/dw
            sign * lor,  # d/dA
            np.ones_like(x),  # d/db0
        ]
        if n_baseline == 2:
            columns.append(x)  # d/db1
        if with_etalon:
            e_sin, e_cos, period = params[-3], params[-2], params[-1]
            arg = 2.0 * math.pi * x / period
            sin_arg, cos_arg = np.sin(arg), np.cos(arg)
            model = model + e_sin * sin_arg + e_cos * cos_arg
            columns.append(sin_arg)
            columns.append(cos_arg)
            columns.append(
                (e_sin * cos_arg - e_cos * sin_arg) * (-2.0 * math.pi * x / period**2)
            )
        return model - y, np.column_stack(columns)

    return residual_jac


def _etalon_seed(x, residual):
    """Coarse period scan: linear sin/cos fit of the residual per candidate.

    Candidates are geometrically spaced so that the refinement stage always
    starts within a few percent of the true period.
    """
    best = None
    for period in np.geomspace(0.2, 4.0, 40):
        arg = 2.0 * math.pi * x / period
        basis = np.column_stack([np.sin(arg), np.cos(arg)])
        coef, sse, _, _ = np.linalg.lstsq(basis, residual, rcond=None)
        sse = float(sse[0]) if sse.size else float(np.sum((basis @ coef - residual) ** 2))
        if best is None or sse < best[0]:
            best = (sse, float(coef[0]), float(coef[1]), period)
    _, e_sin, e_cos, period = best
    return e_sin, e_cos, period


def fit_lorentzian(
    trace: SpectrumTrace,
    center_hz: float,
    *,
    model: str = "peak",
    background: str = "linear",
    channel: str = "transmission",
    window_hz: tuple[float, float] | None = None,
    window_fwhm_multiple: float = 5.0,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
) -> ResonanceFit:
    """Fit one Lorentzian line (plus background) around a candidate center.

    Parameters
    ----------
    trace : SpectrumTrace
    center_hz : float
        Candidate center from :func:`detect_peaks`.
    model : {"peak", "dip"}
    background : {"constant", "linear", "linear+etalon"}
        The etalon option adds one sinusoid (amplitude, period, phase),
        seeded from a coarse period scan of the residual of a first-stage
        fit without it.
    channel : {"transmission", "reflection"}
    window_hz : (lo, hi), optional
        Explicit fit window; the default is ±``window_fwhm_multiple`` times
        the FWHM estimated from half-prominence crossings.

    Raises
    ------
    FitFailureError
        If the iteration limit is reached without convergence.
    WindowTooNarrowError
        If the fitted line does not fit inside the window (half-maximum
        points outside, or fewer than 3 samples across the FWHM).
    """
    if model not in ("peak", "dip"):
        raise DomainError(f"model must be 'peak' or 'dip', got {model!r}")
    if background not in _BACKGROUNDS:
        raise DomainError(f"background must be one of {_BACKGROUNDS}, got {background!r}")
    values = _channel_values(trace, channel)
    freq = trace.frequency_hz
    sign = 1.0 if model == "peak" else -1.0

    if window_hz is None:
        oriented_full = sign * values
        index = int(np.argmin(np.abs(freq - center_hz)))
        est_fwhm = _half_prominence_width(
            freq, oriented_full, index, float(np.median(oriented_full))
        )
        window_hz = (center_hz - window_fwhm_multiple * est_fwhm,
                     center_hz + window_fwhm_multiple * est_fwhm)
    lo, hi = float(window_hz[0]), float(window_hz[1])
    mask = (freq >= lo) & (freq <= hi)
    if int(mask.sum()) < _MIN_WINDOW_SAMPLES:
        raise DomainError(
            f"fit window contains {int(mask.sum())} samples; need >= {_MIN_WINDOW_SAMPLES}"
        )
    f_win = freq[mask]
    y_win = values[mask]
    # Record the window at the sample extremes so the stored baseline
    # reference (the window midpoint) is exactly the one used in the fit.
    lo, hi = float(f_win[0]), float(f_win[-1])

    # Scaled coordinates: x in [-1, 1] across the window.
    mid = 0.5 * (f_win[0] + f_win[-1])
    half_span = 0.5 * (f_win[-1] - f_win[0])
    x = (f_win - mid) / half_span

    n_baseline = 1 if background == "constant" else 2
    edge = max(2, x.size // 10)
    base0 = float(np.median(np.concatenate([y_win[:edge], y_win[-edge:]])))
    slope0 = 0.0
    if n_baseline == 2:
        slope0 = float(
            (np.median(y_win[-edge:]) - np.median(y_win[:edge]))
            / (np.mean(x[-edge:]) - np.mean(x[:edge]))
        )
    oriented = sign * (y_win - base0 - slope0 * x)
    i_ext = int(np.argmax(oriented))
    amp0 = max(float(oriented[i_ext]), 1e-12)
    width0 = _half_prominence_width(x, oriented, i_ext, float(np.median(oriented)))
    width0 = min(max(width0, 2.0 / x.size), 1.0)
    p0 = [float(x[i_ext]), width0, amp0, base0]
    if n_baseline == 2:
        p0.append(slope0)

    factory = _lorentzian_residual_factory
    stage1 = _levenberg_marquardt(
        factory(x, y_win, sign, n_baseline, with_etalon=False), p0, max_iterations
    )
    iterations = stage1.iterations
    if background == "linear+etalon":
        e_sin, e_cos, period = _etalon_seed(x, -stage1.residual)
        p1 = list(stage1.params) + [e_sin, e_cos, period]
        result = _levenberg_marquardt(
            factory(x, y_win, sign, n_baseline, with_etalon=True), p1, max_iterations
        )
        iterations += result.iterations
        with_etalon = True
    else:
        result = stage1
        with_etalon = False

    if not result.converged:
        raise FitFailureError(
            "line fit did not converge",
            iterations=iterations,
            last_params=[float(v) for v in result.params],
            cost=result.cost,
        )

    params = result.params
    center_scaled = float(params[0])
    width_scaled = abs(float(params[1]))
    # The line must sit inside the window with its half-maximum points.
    if abs(center_scaled) > 1.0 or abs(center_scaled) + width_scaled / 2.0 > 1.0:
        raise WindowTooNarrowError(
            "fitted line extends past the window; enlarge the fit window",
            center_hz=mid + center_scaled * half_span,
            fwhm_hz=width_scaled * half_span * 2.0,
        )
    in_fwhm = int(np.sum(np.abs(x - center_scaled) <= width_scaled / 2.0))
    if in_fwhm < _MIN_SAMPLES_IN_FWHM:
        raise WindowTooNarrowError(
            f"only {in_fwhm} samples within the fitted FWHM; need >= {_MIN_SAMPLES_IN_FWHM}"
        )

    sigmas = _parameter_sigmas(result.jacobian, result.cost)
    center = Quantity(mid + center_scaled * half_span, float(sigmas[0]) * half_span)
    fwhm = Quantity(width_scaled * half_span, float(sigmas[1]) * half_span)
    amplitude = Quantity(abs(float(params[2])), float(sigmas[2]))
    baseline = (float(params[3]),)
    if n_baseline == 2:
        baseline = (float(params[3]), float(params[4]) / half_span)
    etalon = None
    if with_etalon:
        e_sin, e_cos, period = params[-3], params[-2], abs(float(params[-1]))
        etalon = EtalonBackground(
            amplitude=float(math.hypot(e_sin, e_cos)),
            period_hz=period * half_span,
            phase_rad=float(math.atan2(e_cos, e_sin)),
        )
    return ResonanceFit(
        center=center,
        fwhm=fwhm,
        amplitude=amplitude,
        baseline=baseline,
        window_hz=(lo, hi),
        model=model,
        channel=channel,
        goodness=float(result.cost / max(x.size - params.size, 1)),
        etalon=etalon,
        iterations=iterations,
    )


def evaluate_fit(fit: ResonanceFit, frequency_hz) -> np.ndarray:
    """Evaluate a fitted line model (with its background) on a grid [Hz]."""
    freq = np.atleast_1d(np.asarray(frequency_hz, dtype=float))
    mid = 0.5 * (fit.window_hz[0] + fit.window_hz[1])
    sign = 1.0 if fit.model == "peak" else -1.0
    half_width = fit.fwhm.value / 2.0
    offset = freq - fit.center.value
    line = sign * fit.amplitude.value * half_width**2 / (offset**2 + half_width**2)
    values = fit.baseline[0] + line
    if len(fit.baseline) > 1:
        values = values + fit.baseline[1] * (freq - mid)
    if fit.etalon is not None:
        values = values + fit.etalon.amplitude * np.sin(
            2.0 * math.pi * (freq - mid) / fit.etalon.period_hz + fit.etalon.phase_rad
        )
    return values


# ----------------------------------------------------------------------
# Spacing, finesse, and length


def estimate_fsr(fits: Sequence[ResonanceFit]) -> Quantity:
    """Mean adjacent-center spacing of two or more fitted resonances.

    The sigma combines the scatter of the individual spacings (standard
    error, when three or more peaks are available) with the fitted center
    sigmas in quadrature.
    """
    if len(fits) < 2:
        raise InsufficientPeaksError(
            f"need >= 2 fitted peaks to estimate a spacing, got {len(fits)}"
        )
    centers = np.array([f.center.value for f in fits], dtype=float)
    center_sigmas = np.array([f.center.sigma for f in fits], dtype=float)
    spacings = np.diff(centers)
    if np.any(spacings <= 0.0):
        raise DomainError("peak centers must be strictly increasing")
    n_spacings = spacings.size
    mean = float(np.mean(spacings))
    # mean of adjacent spacings telescopes to (last - first) / m
    var_centers = (center_sigmas[0] ** 2 + center_sigmas[-1] ** 2) / n_spacings**2
    var_scatter = 0.0
    if n_spacings >= 2:
        var_scatter = float(np.var(spacings, ddof=1)) / n_spacings
    return Quantity(mean, math.sqrt(var_centers + var_scatter))


def finesse(fsr: Quantity, fwhm: Quantity) -> Quantity:
    """Finesse FSR / FWHM with first-order propagation of both sigmas."""
    if fsr.value <= 0.0:
        raise DomainError("FSR must be > 0")
    if fwhm.value <= 0.0:
        raise DomainError("FWHM must be > 0")
    return ratio(fsr, fwhm)


def cavity_length_from_fsr(fsr: Quantity, group_index: float = DEFAULT_GROUP_INDEX) -> Quantity:
    """Optical cavity length [mm] from the free spectral range.

    ``L = c / (2 n_g FSR)``; the relative sigma of the FSR carries over.
    """
    if fsr.value <= 0.0:
        raise DomainError("FSR must be > 0")
    if group_index < 1.0:
        raise DomainError("group index must be >= 1")
    length_mm = C_VACUUM / (2.0 * group_index * fsr.value) * 1e3
    return Quantity(length_mm, length_mm * fsr.sigma / fsr.value)


def _combined_fwhm(fits: Sequence[ResonanceFit]) -> Quantity:
    sigmas = np.array([f.fwhm.sigma for f in fits], dtype=float)
    values = np.array([f.fwhm.value for f in fits], dtype=float)
    if np.all(sigmas > 0.0):
        weights = 1.0 / sigmas**2
        mean = float(np.sum(weights * values) / np.sum(weights))
        return Quantity(mean, float(1.0 / math.sqrt(np.sum(weights))))
    # noiseless fits collapse to zero sigma; fall back to a plain mean
    return Quantity(float(np.mean(values)), float(np.sqrt(np.sum(sigmas**2))) / values.size)


def analyze_spectrum(
    trace: SpectrumTrace,
    *,
    channel: str = "transmission",
    polarity: str = "peak",
    prominence_threshold: float = 0.1,
    background: str | None = None,
    group_index: float = DEFAULT_GROUP_INDEX,
    window_fwhm_multiple: float = 5.0,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
) -> FitReport:
    """Detect, fit, and summarize every resonance in a spectrum.

    Candidates whose fit windows overlap are pruned keeping the higher
    prominence.  The report combines per-peak FWHMs (inverse-variance
    weighted when sigmas are available), the mean spacing, the finesse
    with its sigma split by source, and the implied cavity length.
    """
    if background is None:
        background = "linear" if channel == "transmission" else "linear+etalon"
    indices, prominences, oriented = _candidates(trace, polarity, prominence_threshold, channel)
    if indices.size < 2:
        raise InsufficientPeaksError(
            f"found {indices.size} candidate resonances; need >= 2 for spacing"
        )
    freq = trace.frequency_hz
    base = float(np.median(oriented))
    widths = np.array(
        [_half_prominence_width(freq, oriented, int(i), base) for i in indices], dtype=float
    )
    # Greedy by prominence: a candidate is kept unless its window overlaps
    # the window of one kept before it.
    centers = freq[indices]
    halves = window_fwhm_multiple * widths
    kept_centers = np.empty(indices.size)
    kept_halves = np.empty(indices.size)
    kept: list[int] = []
    for rank in np.argsort(prominences)[::-1]:
        n = len(kept)
        if not np.any(np.abs(centers[rank] - kept_centers[:n]) < halves[rank] + kept_halves[:n]):
            kept_centers[n] = centers[rank]
            kept_halves[n] = halves[rank]
            kept.append(int(rank))
    kept.sort(key=lambda rank: freq[indices[rank]])

    fits = []
    for rank in kept:
        center = float(freq[indices[rank]])
        fits.append(
            fit_lorentzian(
                trace,
                center,
                model=polarity,
                background=background,
                channel=channel,
                window_hz=(center - window_fwhm_multiple * widths[rank],
                           center + window_fwhm_multiple * widths[rank]),
                max_iterations=max_iterations,
            )
        )
    fsr = estimate_fsr(fits)
    fwhm = _combined_fwhm(fits)
    fin = finesse(fsr, fwhm)
    from_fsr = fin.value * fsr.sigma / fsr.value
    from_fwhm = fin.value * fwhm.sigma / fwhm.value
    return FitReport(
        peaks=PeakSet(peaks=tuple(fits), fsr=fsr),
        fwhm=fwhm,
        finesse=fin,
        length_mm=cavity_length_from_fsr(fsr, group_index),
        group_index=group_index,
        channel=channel,
        polarity=polarity,
        finesse_sigma_from_fsr=from_fsr,
        finesse_sigma_from_fwhm=from_fwhm,
    )
