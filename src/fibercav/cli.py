"""Command-line front end tying the analysis modules into one pipeline.

One verb per analysis stage: ``synth`` writes model spectra, ``fit``
extracts finesse from measured spectra, ``budget`` decomposes the loss,
``pull`` classifies pulling-loss traces, ``modes`` solves the guided
mode, ``coop`` projects cooperativity, and ``report`` renders stored run
records for humans.  Every run writes a JSON report plus a tamper-evident
run record embedding the effective configuration, so results can be
reproduced from the record alone.

Each verb is one entry of the table ``_VERBS``: its click parameters
(whose defaults :func:`run_pipeline` also applies), its handler, its
stdout summary and its ``report`` renderer.

Exit statuses: 0 success, 2 invalid input, 3 fit/solver failure,
4 mutually inconsistent measurements.  Failures are also emitted as
structured JSON on stderr.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import click
import numpy as np

from .budget import budget as compute_budget
from .cavity import (
    CavityModel,
    cavity_spectrum,
    on_resonance_values,
    parse_spectrum_csv,
    write_spectrum_csv,
)
from .config import ToolConfig, load_config
from .cooperativity import (
    CooperativityScenario,
    cooperativity,
    reference_scenario,
    required_finesse,
)
from .errors import FibercavError, ValidationError
from .fitting import analyze_spectrum, evaluate_fit
from .gratings import GratingSpec
from .modes import FiberGeometry, silica_sellmeier_index, solve_guided_mode
from .pulling import classify_flame, fit_loss_growth, load_pull_trace, smooth_loss, smoothing_window
from .quantity import Quantity, format_parenthesized, format_scientific
from .records import TOOL_VERSION, RunRecord, file_digest, load_run_record, make_run_record, write_run_record
from .tables import write_columns


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


@dataclass(frozen=True)
class PipelineOutcome:
    """What one pipeline invocation produced."""

    record: RunRecord
    report_path: Path
    record_path: Path
    artifact_paths: tuple

    @property
    def results(self) -> dict:
        return self.record.results


def run_pipeline(
    subcommand: str,
    args: dict,
    config: ToolConfig | None = None,
    out_dir=".",
    created_at: str | None = None,
) -> PipelineOutcome:
    """Execute one subcommand programmatically.

    Writes ``<stem>_report.json`` and ``<stem>_record.json`` into
    ``out_dir`` (stem defaults to the subcommand name; pass
    ``args["stem"]`` to override, as batch mode does).  Arguments that
    are missing or ``None`` take the defaults of the verb's command-line
    options.  Raises the module's error types on failure; their
    ``exit_code`` attribute is the process exit status the CLI maps them
    to.
    """
    verb = _VERBS.get(subcommand)
    if verb is None:
        raise ValidationError(f"unknown subcommand {subcommand!r}; known: {tuple(_VERBS)}")
    if config is None:
        config = ToolConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    args = {**verb.defaults, **{k: v for k, v in args.items() if v is not None}}
    inputs, results, artifacts = verb.handler(args, config, out)
    report_path = out / f"{args['stem']}_report.json"
    report_path.write_text(
        json.dumps(results, indent=2, sort_keys=True, default=_json_default) + "\n"
    )
    record = make_run_record(inputs, config.as_dict(), results, created_at=created_at)
    record_path = out / f"{args['stem']}_record.json"
    write_run_record(record, record_path)
    return PipelineOutcome(
        record=record,
        report_path=report_path,
        record_path=record_path,
        artifact_paths=tuple(artifacts),
    )


@dataclass(frozen=True)
class _Verb:
    """One subcommand; the handler's docstring is its help text.

    The defaults of the options in ``params`` are also the defaults
    :func:`run_pipeline` fills in; ``None`` means "derive from the config
    or another argument".  ``role`` is the ``inputs`` key the handler
    writes, by which ``report`` knows the verb's records.
    """

    name: str
    handler: Callable  # (args, config, out) -> (inputs, results, artifacts)
    summary: Callable[[dict], str]  # results -> stdout line(s)
    params: tuple
    role: str | None = None
    render: Callable[[dict], list] | None = None  # results -> report lines
    batch_key: str | None = None  # the file argument ``--batch`` iterates over
    library_defaults: dict = field(default_factory=dict)  # arguments with no option

    @property
    def defaults(self) -> dict:
        options = {p.name: p.default for p in self.params if isinstance(p, click.Option)}
        return {"stem": self.name, **options, **self.library_defaults}


# ----------------------------------------------------------------------
# Handlers and report renderers


def _default_if_none(value, default):
    return default if value is None else value


def _quantity_arg(args: dict, key: str) -> Quantity:
    return Quantity(float(args[key]), float(args[f"{key}_sigma"]))


def _fmt_quantity(data: dict, scale: float = 1.0, unit: str = "") -> str:
    return format_parenthesized(data["value"] * scale, data["sigma"] * scale, unit)


def _fmt_finesse(data: dict) -> str:
    return format_scientific(data["value"], data["sigma"])


def _run_synth(args, config, out):
    """Synthesize a cavity spectrum CSV from model parameters."""
    t1 = float(args["t1"])
    t2 = float(args["t2"])
    alpha_int = float(args["alpha_int"])
    length_mm = float(args["length_mm"])
    group_index = float(_default_if_none(args["group_index"], config.group_index))
    span_fsr = float(args["span_fsr"])
    samples = int(args["samples"])
    noise = float(args["noise"])
    seed = int(_default_if_none(args["seed"], config.seed))
    center_nm = float(args["center_wavelength_nm"])
    grating_mm = float(args["grating_length_mm"])
    if not 0.0 < t1 < 1.0 or not 0.0 < t2 < 1.0:
        raise ValidationError("mirror transmittances must lie in (0, 1)")
    if span_fsr <= 0.0 or samples < 2:
        raise ValidationError("need span_fsr > 0 and samples >= 2")
    if noise < 0.0:
        raise ValidationError("noise level must be >= 0")
    if seed < 0:
        raise ValidationError("seed must be >= 0")

    model = CavityModel(
        mirror_1=GratingSpec.from_peak_and_length(center_nm, 1.0 - t1, grating_mm),
        mirror_2=GratingSpec.from_peak_and_length(center_nm, 1.0 - t2, grating_mm),
        length_mm=length_mm,
        group_index=group_index,
        intrinsic_loss=alpha_int,
    )
    half_span = 0.5 * span_fsr * model.fsr_hz
    freq = np.linspace(-half_span, half_span, samples)
    trace = cavity_spectrum(model, freq)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        trace = dataclasses.replace(
            trace,
            transmission=np.clip(
                trace.transmission + rng.normal(scale=noise, size=samples), 0.0, 1.0
            ),
            reflection=np.clip(
                trace.reflection + rng.normal(scale=noise, size=samples), 0.0, 1.0
            ),
        )
    csv_path = out / f"{args['stem']}_spectrum.csv"
    write_spectrum_csv(trace, csv_path)

    parameters = {
        "t1": t1,
        "t2": t2,
        "alpha_int": alpha_int,
        "length_mm": length_mm,
        "group_index": group_index,
        "span_fsr": span_fsr,
        "samples": samples,
        "noise": noise,
        "seed": seed,
        "center_wavelength_nm": center_nm,
        "grating_length_mm": grating_mm,
    }
    results = {
        "parameters": parameters,
        "fsr_hz": model.fsr_hz,
        "total_loss": model.total_loss,
        "expected_finesse": model.expected_finesse,
        "expected_fwhm_hz": model.expected_fwhm_hz,
        "resolution_warning": bool(trace.resolution_warning),
        "spectrum_csv": csv_path.name,
    }
    if model.total_loss <= 0.05:
        t_res, r1_res, r2_res = on_resonance_values(model)
        results["on_resonance"] = {
            "transmission": t_res,
            "reflection_side_1": r1_res,
            "reflection_side_2": r2_res,
        }
    return {"synthesis_parameters": parameters}, results, (csv_path,)


def _render_synth(results: dict) -> list[str]:
    return [
        f"  synthesized spectrum: {results['spectrum_csv']}",
        f"  FSR: {results['fsr_hz'] * 1e-9:.6g} GHz",
        f"  total loss: {results['total_loss'] * 100.0:.4g}%",
        f"  expected finesse: {results['expected_finesse']:.6g}",
    ]


def _run_fit(args, config, out):
    """Fit resonances in a spectrum and report finesse and cavity length."""
    source = Path(args["spectrum"])
    channel = args["channel"]
    transmission = channel == "transmission"
    polarity = _default_if_none(args["polarity"], "peak" if transmission else "dip")
    background = _default_if_none(
        args["background"], config.background if transmission else "linear+etalon"
    )
    group_index = float(_default_if_none(args["group_index"], config.group_index))
    normalized = bool(args["normalize"])
    trace = parse_spectrum_csv(source, normalize=normalized)
    report = analyze_spectrum(
        trace,
        channel=channel,
        polarity=polarity,
        prominence_threshold=config.prominence_threshold,
        background=background,
        group_index=group_index,
        window_fwhm_multiple=config.window_fwhm_multiple,
        max_iterations=config.max_iterations,
    )
    results = report.as_dict()
    results["source"] = source.name
    results["normalized"] = normalized
    artifacts = []
    if args["emit_plot_data"]:
        overlay_path = out / f"{args['stem']}_overlay.csv"
        values = trace.transmission if transmission else trace.reflection
        peaks = report.peaks.peaks
        masks = [(trace.frequency_hz >= p.window_hz[0]) & (trace.frequency_hz <= p.window_hz[1])
                 for p in peaks]
        freqs = [trace.frequency_hz[mask] for mask in masks]
        write_columns(overlay_path, ("freq_offset_hz", "measured", "fitted", "peak"), (
            np.concatenate(freqs),
            np.concatenate([values[mask] for mask in masks]),
            np.concatenate([evaluate_fit(peak, freq) for peak, freq in zip(peaks, freqs)]),
            np.repeat(np.arange(len(peaks)), [freq.size for freq in freqs]),
        ))
        artifacts.append(overlay_path)
        results["overlay_csv"] = overlay_path.name
    inputs = {"spectrum": {"path": source.name, "sha256": file_digest(source)}}
    return inputs, results, tuple(artifacts)


def _render_fit(results: dict) -> list[str]:
    return [
        f"  peaks fitted: {len(results['peaks'])}",
        f"  FSR: {_fmt_quantity(results['fsr_hz'], 1e-9, ' GHz')}",
        f"  FWHM: {_fmt_quantity(results['fwhm_hz'], 1e-6, ' MHz')}",
        f"  finesse: {_fmt_finesse(results['finesse'])}",
        f"  cavity length: {_fmt_quantity(results['length_mm'], 1.0, ' mm')}",
    ]


def _run_budget(args, config, out):
    """Decompose the round-trip loss into {T1, T2, alpha_int}."""
    inputs: dict = {}
    if args["from_fit"] is not None:
        fit_path = Path(args["from_fit"])
        try:
            fit_payload = json.loads(fit_path.read_text())
            finesse = Quantity.from_dict(fit_payload["finesse"])
        except (OSError, ValueError, KeyError) as exc:
            raise ValidationError(f"cannot read finesse from {fit_path}: {exc}") from exc
        inputs["fit_report"] = {"path": fit_path.name, "sha256": file_digest(fit_path)}
    else:
        if args["finesse"] is None:
            raise ValidationError("provide --finesse or --from-fit")
        finesse = _quantity_arg(args, "finesse")
    r1 = _quantity_arg(args, "r1")
    r2 = _quantity_arg(args, "r2")
    regime_1 = _default_if_none(args["regime1"], config.regime_1)
    regime_2 = _default_if_none(args["regime2"], config.regime_2)
    result = compute_budget(finesse, r1, r2, regime_1=regime_1, regime_2=regime_2)
    parameters = {
        "finesse": finesse.as_dict(),
        "r1": r1.as_dict(),
        "r2": r2.as_dict(),
        "regime_1": regime_1,
        "regime_2": regime_2,
    }
    inputs["measurement_parameters"] = parameters
    return inputs, result.as_dict(), ()


_BUDGET_PARTS = (
    ("alpha_tot", "alpha_tot", "round-trip loss"),
    ("t1", "T1", "mirror-1 transmittance"),
    ("t2", "T2", "mirror-2 transmittance"),
    ("alpha_int", "alpha_int", "intrinsic loss"),
)


def _summarize_budget(results: dict) -> str:
    parts = [
        f"{label} {_fmt_quantity(results[key], 100.0, '%')}"
        for key, label, _ in _BUDGET_PARTS
    ]
    notes = [f"note: {note}" for note in results.get("diagnostics", ())]
    return "\n".join(["; ".join(parts), *notes])


def _render_budget(results: dict) -> list[str]:
    lines = [
        f"  {label}: {_fmt_quantity(results[key], 100.0, '%')}"
        for key, _, label in _BUDGET_PARTS
    ]
    lines.append(f"  finesse: {_fmt_finesse(results['finesse_tot'])}")
    if results.get("finesse_int"):
        lines.append(f"  intrinsic finesse: {_fmt_finesse(results['finesse_int'])}")
    lines.extend(f"  note: {note}" for note in results.get("diagnostics", ()))
    return lines


def _run_pull(args, config, out):
    """Classify a pulling-loss trace as H2-like or D2-like."""
    source = Path(args["trace"])
    trace = load_pull_trace(source)
    classification = classify_flame(
        trace,
        final_loss_high=config.final_loss_high,
        final_loss_low=config.final_loss_low,
        reference_threshold=config.reference_threshold,
    )
    results = {
        "classification": classification.as_dict(),
        "samples": len(trace),
        "probe_wavelength_nm": trace.probe_wavelength_nm,
        "reference_wavelength_nm": trace.reference_wavelength_nm,
        "flame_label": trace.flame_label,
        "source": source.name,
    }
    if args["growth"] is not None:
        results["growth_fit"] = fit_loss_growth(trace, model=args["growth"]).as_dict()
    artifacts = []
    if args["emit_plot_data"]:
        smooth_path = out / f"{args['stem']}_smoothed.csv"
        smoothed = smooth_loss(trace.loss_primary, smoothing_window(len(trace)))
        write_columns(smooth_path, ("time_s", "loss_raw", "loss_smoothed"),
                      (trace.time_s, trace.loss_primary, smoothed))
        artifacts.append(smooth_path)
        results["smoothed_csv"] = smooth_path.name
    inputs = {"trace": {"path": source.name, "sha256": file_digest(source)}}
    sidecar = source.with_name(source.stem + ".meta.json")
    if sidecar.exists():
        inputs["trace_metadata"] = {"path": sidecar.name, "sha256": file_digest(sidecar)}
    return inputs, results, tuple(artifacts)


def _render_pull(results: dict) -> list[str]:
    cls = results["classification"]
    return [
        f"  verdict: {cls['label']}",
        f"  final smoothed loss: {cls['final_loss'] * 100.0:.3g}%",
        f"  monotone growth score: {cls['monotone_growth_score']:.3g}",
        f"  reference channel ok: {cls['reference_ok']}",
    ]


def _run_modes(args, config, out):
    """Solve the fundamental guided mode and its effective area."""
    wavelength_nm = float(args["wavelength_nm"])
    if args["sellmeier"]:
        core_index = silica_sellmeier_index(wavelength_nm)
    else:
        core_index = float(_default_if_none(args["core_index"], config.core_index))
    geometry = FiberGeometry(
        diameter_nm=float(args["diameter_nm"]),
        wavelength_nm=wavelength_nm,
        core_index=core_index,
        cladding_index=float(_default_if_none(args["cladding_index"], config.cladding_index)),
    )
    mode = solve_guided_mode(geometry)
    results = mode.as_dict()
    results["geometry"] = {
        "diameter_nm": geometry.diameter_nm,
        "wavelength_nm": geometry.wavelength_nm,
        "core_index": geometry.core_index,
        "cladding_index": geometry.cladding_index,
    }
    results["single_mode"] = bool(mode.single_mode)
    inputs = {"geometry_parameters": results["geometry"]}
    return inputs, results, ()


def _render_modes(results: dict) -> list[str]:
    geometry = results["geometry"]
    return [
        f"  geometry: d = {geometry['diameter_nm']:g} nm at {geometry['wavelength_nm']:g} nm",
        f"  V-number: {results['v_number']:.4g} (single-mode: {results['single_mode']})",
        f"  n_eff: {results['n_eff']:.6f}",
        f"  A_eff: {results['a_eff_um2']:.4g} um^2",
        f"  surface intensity ratio: {results['surface_intensity_ratio']:.3g}",
    ]


def _run_coop(args, config, out):
    """Project atom-cavity cooperativity from finesse and mode area."""
    if args["reference"]:
        scenario = reference_scenario()
        if args["finesse"] is not None:
            scenario = scenario.with_finesse(_quantity_arg(args, "finesse"))
    else:
        if args["finesse"] is None:
            raise ValidationError("provide --finesse or --reference")
        scenario = CooperativityScenario(
            sigma0_over_aeff=float(
                _default_if_none(args["sigma0_over_aeff"], config.sigma0_over_aeff)
            ),
            finesse=_quantity_arg(args, "finesse"),
            prefactor=float(_default_if_none(args["prefactor"], config.prefactor)),
            label=str(args["label"]),
        )
    value = cooperativity(scenario)
    results = scenario.as_dict()
    results["cooperativity"] = value.as_dict()
    if args["target"] is not None:
        target = float(args["target"])
        results["required_finesse"] = {
            "target_cooperativity": target,
            "finesse": required_finesse(target, scenario.sigma0_over_aeff, scenario.prefactor),
        }
    inputs = {"cooperativity_parameters": {k: results[k] for k in ("K", "sigma0_over_aeff", "finesse", "label")}}
    return inputs, results, ()


def _render_coop(results: dict) -> list[str]:
    lines = [
        f"  convention K: {results['K']:.6g}",
        f"  sigma0/A_eff: {results['sigma0_over_aeff']:.6g}",
        f"  finesse: {_fmt_quantity(results['finesse'])}",
        f"  cooperativity: {_fmt_quantity(results['cooperativity'])}",
    ]
    if "required_finesse" in results:
        req = results["required_finesse"]
        lines.append(
            f"  finesse for C = {req['target_cooperativity']:g}: {req['finesse']:.4g}"
        )
    return lines


def _run_report(args, config, out):
    """Render stored run records as a human-readable summary."""
    paths = [Path(p) for p in args["records"]]
    if not paths:
        raise ValidationError("report needs at least one run record")
    lines: list[str] = []
    inputs = {}
    record_ids = []
    for path in paths:
        record = load_run_record(path)
        inputs[path.name] = {"path": path.name, "sha256": file_digest(path)}
        record_ids.append(record.record_id)
        lines.extend(_render_record(path.name, record))
        lines.append("")
    text = "\n".join(lines).rstrip("\n") + "\n"
    summary_path = out / f"{args['stem']}_summary.txt"
    summary_path.write_text(text)
    results = {"summary": text, "record_ids": record_ids, "summary_txt": summary_path.name}
    return inputs, results, (summary_path,)


def _render_record(name: str, record: RunRecord) -> list[str]:
    lines = [f"== {name} (record {record.record_id[:12]}) =="]
    for verb in _VERBS.values():
        if verb.render is not None and verb.role in record.inputs:
            return lines + verb.render(record.results)
    raw_keys = ", ".join(sorted(record.results))
    return lines + ["  (unrecognized result shape; raw keys: " + raw_keys + ")"]


_VERBS = {verb.name: verb for verb in (
    _Verb(
        "synth",
        _run_synth,
        lambda r: (f"wrote {r['spectrum_csv']} (FSR {r['fsr_hz'] * 1e-9:.4g} GHz, "
                   f"expected finesse {r['expected_finesse']:.5g})"),
        (
            click.Option(["--t1"], type=float, required=True,
                         help="Mirror-1 power transmittance (fraction)."),
            click.Option(["--t2"], type=float, required=True,
                         help="Mirror-2 power transmittance (fraction)."),
            click.Option(["--alpha-int"], type=float, default=0.0,
                         help="Intrinsic round-trip loss (fraction)."),
            click.Option(["--length-mm"], type=float, required=True, help="Cavity length [mm]."),
            click.Option(["--group-index"], type=float, default=None,
                         help="Group index (default from config)."),
            click.Option(["--span-fsr"], type=float, default=3.0, help="Grid span in units of the FSR."),
            click.Option(["--samples"], type=int, default=30001, help="Number of frequency samples."),
            click.Option(["--noise"], type=float, default=0.0, help="Additive Gaussian noise level."),
            click.Option(["--seed"], type=int, default=None,
                         help="RNG seed for the noise (default from config)."),
        ),
        role="synthesis_parameters",
        render=_render_synth,
        library_defaults={"center_wavelength_nm": 1389.0, "grating_length_mm": 8.0},
    ),
    _Verb(
        "fit",
        _run_fit,
        lambda r: (f"{len(r['peaks'])} peaks; finesse {_fmt_finesse(r['finesse'])}; "
                   f"length {_fmt_quantity(r['length_mm'], 1.0, ' mm')}"),
        (
            click.Argument(["spectrum"], type=click.Path(exists=True, dir_okay=False), required=False),
            click.Option(["--batch", "batch_dir"], type=click.Path(exists=True, file_okay=False),
                         default=None, help="Fit every CSV in a directory, in name order."),
            click.Option(["--channel"], type=click.Choice(["transmission", "reflection"]),
                         default="transmission"),
            click.Option(["--polarity"], type=click.Choice(["peak", "dip"]), default=None,
                         help="Default: peak for transmission, dip for reflection."),
            click.Option(["--background"], type=click.Choice(["constant", "linear", "linear+etalon"]),
                         default=None, help="Background model (default from config/channel)."),
            click.Option(["--normalize"], is_flag=True, help="Rescale raw detector units onto [0, 1]."),
            click.Option(["--group-index"], type=float, default=None,
                         help="Group index for the length estimate."),
            click.Option(["--emit-plot-data"], is_flag=True, help="Write a data-vs-model overlay CSV."),
        ),
        role="spectrum",
        render=_render_fit,
        batch_key="spectrum",
    ),
    _Verb(
        "budget",
        _run_budget,
        _summarize_budget,
        (
            click.Option(["--finesse"], type=float, default=None, help="Measured finesse."),
            click.Option(["--finesse-sigma"], type=float, default=0.0),
            click.Option(["--from-fit", "from_fit"], type=click.Path(exists=True, dir_okay=False),
                         default=None, help="Read the finesse from a fit report JSON."),
            click.Option(["--r1"], type=float, required=True, help="On-resonance reflectance, side 1."),
            click.Option(["--r1-sigma"], type=float, default=0.0),
            click.Option(["--r2"], type=float, required=True, help="On-resonance reflectance, side 2."),
            click.Option(["--r2-sigma"], type=float, default=0.0),
            click.Option(["--regime1"], type=click.Choice(["under", "over"]), default=None,
                         help="Coupling branch of mirror 1 (default from config)."),
            click.Option(["--regime2"], type=click.Choice(["under", "over"]), default=None),
        ),
        role="measurement_parameters",
        render=_render_budget,
    ),
    _Verb(
        "pull",
        _run_pull,
        lambda r: (f"{r['classification']['label']} "
                   f"(final loss {r['classification']['final_loss'] * 100.0:.3g}%, "
                   f"growth score {r['classification']['monotone_growth_score']:.2f}, "
                   f"reference ok: {r['classification']['reference_ok']})"),
        (
            click.Argument(["trace"], type=click.Path(exists=True, dir_okay=False), required=False),
            click.Option(["--batch", "batch_dir"], type=click.Path(exists=True, file_okay=False),
                         default=None, help="Classify every CSV in a directory, in name order."),
            click.Option(["--growth"], type=click.Choice(["linear", "exponential-onset"]),
                         default=None, help="Also fit a loss-growth model."),
            click.Option(["--emit-plot-data"], is_flag=True, help="Write the smoothed loss curve CSV."),
        ),
        role="trace",
        render=_render_pull,
        batch_key="trace",
    ),
    _Verb(
        "modes",
        _run_modes,
        lambda r: (f"V = {r['v_number']:.4g}; n_eff = {r['n_eff']:.6f}; "
                   f"A_eff = {r['a_eff_um2']:.4g} um^2; "
                   f"surface ratio = {r['surface_intensity_ratio']:.3g}"),
        (
            click.Option(["--diameter-nm"], type=float, required=True, help="Fiber diameter [nm]."),
            click.Option(["--wavelength-nm"], type=float, default=1389.0,
                         help="Vacuum wavelength [nm]."),
            click.Option(["--core-index"], type=float, default=None,
                         help="Core index (default from config)."),
            click.Option(["--sellmeier"], is_flag=True,
                         help="Derive the core index from the silica Sellmeier fit instead."),
            click.Option(["--cladding-index"], type=float, default=None,
                         help="Cladding index (default 1.0)."),
        ),
        role="geometry_parameters",
        render=_render_modes,
    ),
    _Verb(
        "coop",
        _run_coop,
        lambda r: f"C = {_fmt_quantity(r['cooperativity'])} (K = {r['K']:.6g})",
        (
            click.Option(["--finesse"], type=float, default=None, help="Cavity finesse."),
            click.Option(["--finesse-sigma"], type=float, default=0.0),
            click.Option(["--sigma0-over-aeff"], type=float, default=None,
                         help="Cross-section to mode-area ratio (default from config)."),
            click.Option(["--prefactor"], type=float, default=None,
                         help="Convention constant K (default from config)."),
            click.Option(["--reference"], is_flag=True, help="Use the shipped reference scenario."),
            click.Option(["--target"], type=float, default=None,
                         help="Also report the finesse required for this cooperativity."),
            click.Option(["--label"], default="", help="Scenario label carried into the report."),
        ),
        role="cooperativity_parameters",
        render=_render_coop,
    ),
    _Verb(
        "report",
        _run_report,
        lambda r: r["summary"].removesuffix("\n"),
        (click.Argument(["records"], nargs=-1, type=click.Path(exists=True, dir_okay=False)),),
    ),
)}


# ----------------------------------------------------------------------
# Click wiring


def _error_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=_json_default)


def _fail(exc: FibercavError):
    click.echo(_error_json(exc.as_dict()), err=True)
    sys.exit(exc.exit_code)


def _run_batch(verb: _Verb, directory, args: dict, config: ToolConfig, out_dir) -> None:
    """Run ``verb`` on every CSV in ``directory`` in name order.

    A failing file is reported on stderr as JSON naming the file, and the
    rest still run; the exit status is the worst one seen.
    """
    files = sorted(Path(directory).glob("*.csv"))
    if not files:
        _fail(ValidationError(f"no CSV files found in {directory}"))
    status = 0
    for path in files:
        file_args = {**args, verb.batch_key: str(path), "stem": f"{path.stem}_{verb.name}"}
        try:
            outcome = run_pipeline(verb.name, file_args, config, out_dir)
        except FibercavError as exc:
            click.echo(_error_json({"file": path.name, **exc.as_dict()}), err=True)
            status = max(status, exc.exit_code)
        else:
            click.echo(f"{path.name}: report {outcome.report_path}")
    if status:
        sys.exit(status)


def _command(verb: _Verb) -> click.Command:
    def callback(config_path, out_dir, batch_dir=None, **args):
        if batch_dir is None and verb.batch_key is not None and args[verb.batch_key] is None:
            _fail(ValidationError(f"provide a {verb.batch_key} file or --batch DIR"))
        try:
            config = load_config(config_path)
        except FibercavError as exc:
            _fail(exc)
        if batch_dir is not None:
            _run_batch(verb, batch_dir, args, config, out_dir)
            return
        try:
            outcome = run_pipeline(verb.name, args, config, out_dir)
        except FibercavError as exc:
            _fail(exc)
        click.echo(verb.summary(outcome.results))

    params = [
        click.Option(["--out", "out_dir"], type=click.Path(file_okay=False), default=".",
                     help="Directory for reports and records."),
        click.Option(["--config", "config_path"], type=click.Path(exists=False), default=None,
                     help="INI config file (or set FIBERCAV_CONFIG)."),
        *verb.params,
        click.Option(["--stem"], default=None, help=f"Output file stem (default: {verb.name})."),
    ]
    return click.Command(verb.name, params=params, callback=callback, help=verb.handler.__doc__)


@click.group()
@click.version_option(TOOL_VERSION, prog_name="fibercav")
def main():
    """Fiber-cavity spectra, loss budgets, pull traces, and guided modes."""


for _verb in _VERBS.values():
    main.add_command(_command(_verb))


if __name__ == "__main__":
    main()
