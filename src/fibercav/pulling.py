"""Pulling-loss time series: ingestion, smoothing, classification, growth fits.

During heat-and-pull fabrication the transmission loss at a probe
wavelength near an impurity overtone is recorded against elapsed time; a
second, far-detuned reference wavelength serves as a sanity channel.  A
hydrogen-flame pull implants absorbing bonds and the probe loss ramps up
(to several percent); a deuterium-flame pull leaves the probe wavelength
clean and the loss stays flat.  This module loads and validates such
traces, classifies them, and fits simple growth models to the loss curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DomainError, FitFailureError, ParseError
from .fitting import _levenberg_marquardt, _parameter_sigmas
from .quantity import Quantity
from .tables import read_columns, write_columns

#: CSV column order for pull traces (third column optional).
PULL_HEADER = ("time_s", "loss_primary", "loss_reference")

#: Default probe wavelength [nm] — near the hydroxyl first overtone.
DEFAULT_PROBE_NM = 1389.0

#: Default reference wavelength [nm] — in the clear telecom window.
DEFAULT_REFERENCE_NM = 1550.0

#: Default classification thresholds on the smoothed loss.
FINAL_LOSS_HIGH = 0.04
FINAL_LOSS_LOW = 0.02

#: Reference channel is "ok" when it stays below this raw loss.
REFERENCE_THRESHOLD = 0.01

#: Minimum number of samples for classification and growth fitting.
MIN_SAMPLES = 10

#: Moving-average window as a fraction of the trace length.
SMOOTHING_FRACTION = 0.05


def _as_loss_array(values, name: str, size: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional")
    if arr.size != size:
        raise DomainError(f"{name} length must match the time axis")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PullTrace:
    """Loss-versus-time record from one fiber pull.

    Attributes
    ----------
    time_s : numpy.ndarray
        Elapsed time [s], strictly increasing.
    loss_primary : numpy.ndarray
        Fractional transmission loss at the probe wavelength, in [0, 1].
    loss_reference : numpy.ndarray or None
        Optional loss at the reference wavelength, same length.
    probe_wavelength_nm, reference_wavelength_nm : float
        The two monitor wavelengths.
    flame_label : str or None
        Free-form annotation of the burner gas, if known.
    """

    time_s: np.ndarray
    loss_primary: np.ndarray
    loss_reference: np.ndarray | None = None
    probe_wavelength_nm: float = DEFAULT_PROBE_NM
    reference_wavelength_nm: float = DEFAULT_REFERENCE_NM
    flame_label: str | None = None

    def __post_init__(self):
        time = np.asarray(self.time_s, dtype=float)
        if time.ndim != 1 or time.size < 2:
            raise DomainError("time axis needs at least two samples")
        if not np.all(np.isfinite(time)):
            raise DomainError("time axis contains non-finite values")
        if not np.all(np.diff(time) > 0.0):
            raise DomainError("time axis must be strictly increasing")
        time = time.copy()
        time.setflags(write=False)
        object.__setattr__(self, "time_s", time)
        primary = _as_loss_array(self.loss_primary, "loss_primary", time.size)
        object.__setattr__(self, "loss_primary", primary)
        if self.loss_reference is not None:
            reference = _as_loss_array(self.loss_reference, "loss_reference", time.size)
            object.__setattr__(self, "loss_reference", reference)
        if self.probe_wavelength_nm <= 0.0 or self.reference_wavelength_nm <= 0.0:
            raise DomainError("monitor wavelengths must be > 0 nm")

    def __len__(self) -> int:
        return int(self.time_s.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PullTrace):
            return NotImplemented
        # array_equal also compares the scalars, and matches None only to None
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_pull_trace(trace: PullTrace, path) -> None:
    """Write a trace as CSV plus a ``<stem>.meta.json`` metadata sidecar.

    Floats are written with ``repr`` so that :func:`load_pull_trace`
    reproduces the trace bit-exactly.
    """
    path = Path(path)
    columns = (trace.time_s, trace.loss_primary)
    if trace.loss_reference is not None:
        columns += (trace.loss_reference,)
    write_columns(path, PULL_HEADER[: len(columns)], columns)
    meta = {
        "probe_wavelength_nm": trace.probe_wavelength_nm,
        "reference_wavelength_nm": trace.reference_wavelength_nm,
    }
    if trace.flame_label is not None:
        meta["flame_label"] = trace.flame_label
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_pull_trace(path) -> PullTrace:
    """Read a pull trace written by :func:`write_pull_trace`.

    The CSV must carry a ``time_s,loss_primary[,loss_reference]`` header
    and losses in [0, 1]; every bad row is reported, as
    :func:`fibercav.tables.read_columns` describes.  The metadata sidecar
    is optional and defaults apply when it is absent.

    Raises
    ------
    ParseError
        For a bad file or bad rows, or a sidecar that is not a JSON object,
        has a wavelength that is not a finite number > 0, or a non-string
        ``flame_label``.
    """
    path = Path(path)
    _, (time, primary, *reference) = read_columns(
        path, (PULL_HEADER, PULL_HEADER[:2]), bounded=PULL_HEADER[1:]
    )
    meta_path = _sidecar_path(path)
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise ParseError(
                f"{meta_path}: invalid JSON sidecar: {exc}", path=str(meta_path)
            ) from exc
        if not isinstance(meta, dict):
            raise ParseError(f"{meta_path}: sidecar must be a JSON object", path=str(meta_path))
    flame_label = meta.get("flame_label")
    if flame_label is not None and not isinstance(flame_label, str):
        raise ParseError(f"{meta_path}: flame_label must be a string", path=str(meta_path))
    return PullTrace(
        time_s=time,
        loss_primary=primary,
        loss_reference=reference[0] if reference else None,
        probe_wavelength_nm=_sidecar_wavelength(
            meta_path, meta, "probe_wavelength_nm", DEFAULT_PROBE_NM
        ),
        reference_wavelength_nm=_sidecar_wavelength(
            meta_path, meta, "reference_wavelength_nm", DEFAULT_REFERENCE_NM
        ),
        flame_label=flame_label,
    )


def _sidecar_wavelength(meta_path: Path, meta: dict, key: str, default: float) -> float:
    """A sidecar wavelength [nm], ``default`` when absent; else a finite number > 0."""
    try:
        value = float(meta.get(key, default))
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ParseError(
            f"{meta_path}: {key} must be a finite number > 0, got {meta[key]!r}",
            path=str(meta_path),
        )
    return value


def smoothing_window(n_samples: int, fraction: float = SMOOTHING_FRACTION) -> int:
    """Moving-average window length: ``fraction`` of the trace, odd, >= 1."""
    window = max(1, int(round(fraction * n_samples)))
    if window % 2 == 0:
        window += 1
    return min(window, n_samples if n_samples % 2 == 1 else n_samples - 1)


def smooth_loss(loss: np.ndarray, window: int | None = None) -> np.ndarray:
    """Centered moving average with symmetrically shrinking edge windows.

    At index ``i`` the average runs over ``[i - k, i + k]`` with
    ``k = min(window // 2, i, n - 1 - i)``, so the window stays centered
    everywhere and straight-line data pass through unchanged.
    """
    loss = np.asarray(loss, dtype=float)
    n = loss.size
    if window is None:
        window = smoothing_window(n)
    if window < 1 or window % 2 == 0:
        raise DomainError(f"window must be a positive odd integer, got {window!r}")
    half = window // 2
    cumulative = np.concatenate(([0.0], np.cumsum(loss)))
    i = np.arange(n)
    k = np.minimum(np.minimum(half, i), n - 1 - i)
    averaged = (cumulative[i + k + 1] - cumulative[i - k]) / (2 * k + 1)
    return np.where(k == 0, loss, averaged)


@dataclass(frozen=True)
class FlameClassification:
    """Verdict on which burner chemistry a pull trace looks like."""

    label: str
    final_loss: float
    monotone_growth_score: float
    reference_ok: bool

    def __post_init__(self):
        if self.label not in ("H2-like", "D2-like", "indeterminate"):
            raise DomainError(f"unknown label {self.label!r}")
        if not 0.0 <= self.monotone_growth_score <= 1.0:
            raise DomainError("monotone_growth_score must lie in [0, 1]")
        if not math.isfinite(self.final_loss):
            raise DomainError("final_loss must be finite")

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "final_loss": self.final_loss,
            "monotone_growth_score": self.monotone_growth_score,
            "reference_ok": self.reference_ok,
        }


def classify_flame(
    trace: PullTrace,
    final_loss_high: float = FINAL_LOSS_HIGH,
    final_loss_low: float = FINAL_LOSS_LOW,
    reference_threshold: float = REFERENCE_THRESHOLD,
) -> FlameClassification:
    """Classify a pull trace as H2-like, D2-like, or indeterminate.

    The loss curve is smoothed first so no verdict keys on a single
    sample.  H2-like: the final smoothed loss exceeds ``final_loss_high``
    and at least 70% of the smoothed first differences are non-negative.
    D2-like: the smoothed loss stays below ``final_loss_low`` throughout.
    Anything else is indeterminate.  ``final_loss`` is the mean of the
    trailing smoothing window.  ``reference_ok`` reports whether the raw
    reference channel stayed below ``reference_threshold`` (vacuously
    true when the channel is absent).
    """
    if len(trace) < MIN_SAMPLES:
        raise DomainError(
            f"classification needs at least {MIN_SAMPLES} samples, got {len(trace)}"
        )
    if not 0.0 < final_loss_low < final_loss_high:
        raise DomainError("need 0 < final_loss_low < final_loss_high")
    window = smoothing_window(len(trace))
    smoothed = smooth_loss(trace.loss_primary, window)
    final_loss = float(np.mean(smoothed[-window:]))
    diffs = np.diff(smoothed)
    score = float(np.mean(diffs >= 0.0)) if diffs.size else 1.0
    reference_ok = True
    if trace.loss_reference is not None:
        reference_ok = bool(np.max(trace.loss_reference) < reference_threshold)
    if final_loss > final_loss_high and score > 0.7:
        label = "H2-like"
    elif final_loss < final_loss_low and float(np.max(smoothed)) < final_loss_low:
        label = "D2-like"
    else:
        label = "indeterminate"
    return FlameClassification(
        label=label,
        final_loss=final_loss,
        monotone_growth_score=score,
        reference_ok=reference_ok,
    )


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth model for the smoothed loss curve.

    ``parameters`` maps parameter names to :class:`Quantity`; the linear
    model exposes ``rate`` [1/s] and ``intercept``, the exponential-onset
    model ``baseline``, ``amplitude``, ``rate`` [1/s], and ``onset_s``.
    """

    model: str
    parameters: dict = field(default_factory=dict)
    residual_rms: float = 0.0
    fell_back_to_linear: bool = False

    @property
    def rate(self) -> Quantity:
        return self.parameters["rate"]

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "parameters": {k: v.as_dict() for k, v in self.parameters.items()},
            "residual_rms": self.residual_rms,
            "fell_back_to_linear": self.fell_back_to_linear,
        }


def _linear_fit(time: np.ndarray, loss: np.ndarray) -> GrowthFit:
    design = np.column_stack([np.ones_like(time), time])
    coeff, *_ = np.linalg.lstsq(design, loss, rcond=None)
    residuals = loss - design @ coeff
    rms = float(np.sqrt(np.mean(residuals**2)))
    sigma = _parameter_sigmas(design, float(residuals @ residuals))
    return GrowthFit(
        model="linear",
        parameters={
            "intercept": Quantity(float(coeff[0]), float(sigma[0])),
            "rate": Quantity(float(coeff[1]), float(sigma[1])),
        },
        residual_rms=rms,
    )


def _exponential_onset_model(p: np.ndarray, time: np.ndarray):
    baseline, amplitude, rate, onset = p
    dt = time - onset
    active = dt > 0.0
    growth = np.where(active, np.expm1(np.clip(rate * dt, None, 700.0)), 0.0)
    model = baseline + amplitude * growth
    jac = np.empty((time.size, 4))
    exp_term = np.where(active, np.exp(np.clip(rate * dt, None, 700.0)), 0.0)
    jac[:, 0] = 1.0
    jac[:, 1] = growth
    jac[:, 2] = amplitude * dt * exp_term * active
    jac[:, 3] = -amplitude * rate * exp_term * active
    return model, jac


def fit_loss_growth(trace: PullTrace, model: str = "linear") -> GrowthFit:
    """Fit a growth model to the smoothed loss-versus-time curve.

    ``model`` is ``"linear"`` (closed-form least squares) or
    ``"exponential-onset"``, i.e. a flat baseline that turns into
    exponential growth at an onset time:
    ``loss(t) = baseline + amplitude·(e^{rate·(t-onset)} - 1)`` for
    ``t > onset``.  Degenerate (effectively constant) data under the
    exponential-onset model fall back to the linear fit with
    ``fell_back_to_linear`` set.
    """
    if len(trace) < MIN_SAMPLES:
        raise DomainError(
            f"growth fitting needs at least {MIN_SAMPLES} samples, got {len(trace)}"
        )
    time = np.asarray(trace.time_s, dtype=float)
    loss = smooth_loss(trace.loss_primary, smoothing_window(len(trace)))
    if model == "linear":
        return _linear_fit(time, loss)
    if model != "exponential-onset":
        raise DomainError(f"unknown growth model {model!r}")

    spread = float(np.ptp(loss))
    noise_estimate = float(np.std(np.diff(trace.loss_primary))) / math.sqrt(2.0)
    if spread < max(1e-9, 6.0 * noise_estimate):
        linear = _linear_fit(time, loss)
        return GrowthFit(
            model="exponential-onset",
            parameters=linear.parameters,
            residual_rms=linear.residual_rms,
            fell_back_to_linear=True,
        )

    baseline0 = float(np.mean(loss[: max(2, loss.size // 10)]))
    rise = loss - baseline0
    target = 0.2 * float(np.max(rise))
    above = np.nonzero(rise > target)[0]
    onset0 = float(time[above[0]]) if above.size else float(time[loss.size // 2])
    span = float(time[-1] - onset0)
    if span <= 0.0:
        span = float(time[-1] - time[0])
        onset0 = float(time[0])
    rate0 = math.log1p(max(float(rise[-1]), 1e-6) / max(target, 1e-9)) / max(span, 1e-9)
    rate0 = max(rate0, 1e-3 / span)
    amplitude0 = max(float(rise[-1]), 1e-6) / math.expm1(rate0 * span)

    def residual_jac(p):
        values, jac = _exponential_onset_model(p, time)
        return values - loss, jac

    p0 = np.array([baseline0, amplitude0, rate0, onset0])
    result = _levenberg_marquardt(residual_jac, p0, max_iterations=500)
    if not result.converged:
        raise FitFailureError("exponential-onset growth fit did not converge")
    rms = float(np.sqrt(np.mean(result.residual**2)))
    sigma = _parameter_sigmas(result.jacobian, result.cost)
    names = ("baseline", "amplitude", "rate", "onset_s")
    parameters = {
        name: Quantity(float(value), float(err))
        for name, value, err in zip(names, result.params, sigma)
    }
    return GrowthFit(model="exponential-onset", parameters=parameters, residual_rms=rms)


def synthesize_pull_trace(
    kind: str,
    duration_s: float = 100.0,
    samples: int = 400,
    *,
    final_loss: float = 0.08,
    flat_loss: float = 0.005,
    baseline: float = 0.002,
    amplitude: float = 0.004,
    rate: float = 0.05,
    onset_s: float = 30.0,
    noise: float = 0.0,
    reference_loss: float | None = 0.005,
    seed: int = 0,
) -> PullTrace:
    """Generate a synthetic pull trace of a given shape.

    ``kind`` selects the loss curve: ``"ramp"`` rises linearly from zero
    to ``final_loss``; ``"flat"`` stays at ``flat_loss``;
    ``"exponential-onset"`` follows the model of :func:`fit_loss_growth`.
    Gaussian noise of standard deviation ``noise`` is added (seeded),
    and values are clipped to [0, 1].  ``reference_loss`` adds a flat
    reference channel (None omits it).
    """
    if samples < 2 or duration_s <= 0.0:
        raise DomainError("need samples >= 2 and duration > 0")
    rng = np.random.default_rng(seed)
    time = np.linspace(0.0, duration_s, samples)
    if kind == "ramp":
        loss = final_loss * time / duration_s
    elif kind == "flat":
        loss = np.full(samples, flat_loss)
    elif kind == "exponential-onset":
        dt = time - onset_s
        loss = baseline + amplitude * np.where(dt > 0.0, np.expm1(rate * dt), 0.0)
    else:
        raise DomainError(f"unknown trace kind {kind!r}")
    if noise > 0.0:
        loss = loss + rng.normal(scale=noise, size=samples)
    loss = np.clip(loss, 0.0, 1.0)
    reference = None
    if reference_loss is not None:
        reference = np.full(samples, reference_loss)
        if noise > 0.0:
            reference = np.clip(
                reference + rng.normal(scale=noise, size=samples), 0.0, 1.0
            )
    return PullTrace(time_s=time, loss_primary=loss, loss_reference=reference)
