"""Fiber Bragg-grating nanofiber cavity toolkit.

Synthesize and fit cavity transmission/reflection spectra, decompose the
round-trip loss into mirror transmittances and intrinsic loss, model
impurity absorption bands and pulling-loss traces, solve the fundamental
guided mode of a subwavelength fiber, and project atom-cavity
cooperativity.
"""

from .absorption import (
    AbsorptionBand,
    TransparencyResult,
    band_absorption,
    default_bands,
    deuteroxyl_band,
    hydroxyl_band,
    overtone_center,
    transparency_check,
)
from .budget import (
    BudgetComparison,
    LossBudget,
    budget,
    compare_budgets,
    finesse_from_loss,
    loss_from_finesse,
    mirror_transmittance_from_reflectance,
)
from .cavity import (
    CavityModel,
    SpectrumTrace,
    cavity_spectrum,
    on_resonance_values,
    parse_spectrum_csv,
    write_spectrum_csv,
)
from .config import ToolConfig, absorption_bands, load_config
from .cooperativity import (
    CooperativityScenario,
    cooperativity,
    reference_scenario,
    required_finesse,
)
from .errors import (
    DomainError,
    FibercavError,
    FitFailureError,
    InsufficientPeaksError,
    MeasurementInconsistencyError,
    NumericalFailureError,
    ParseError,
    SingularCavityError,
    TamperedRecordError,
    ValidationError,
    WindowTooNarrowError,
)
from .fitting import (
    EtalonBackground,
    FitReport,
    PeakSet,
    ResonanceFit,
    analyze_spectrum,
    cavity_length_from_fsr,
    detect_peaks,
    estimate_fsr,
    evaluate_fit,
    finesse,
    fit_lorentzian,
)
from .gratings import (
    GratingSpec,
    MirrorResponse,
    grating_coupling_from_peak,
    grating_response,
    grating_stopband,
)
from .modes import (
    FiberGeometry,
    GuidedMode,
    mode_intensity,
    silica_sellmeier_index,
    solve_guided_mode,
    solve_he11,
    v_number,
)
from .pulling import (
    FlameClassification,
    GrowthFit,
    PullTrace,
    classify_flame,
    fit_loss_growth,
    load_pull_trace,
    synthesize_pull_trace,
    write_pull_trace,
)
from .quantity import Quantity, format_parenthesized, format_scientific
from .records import TOOL_VERSION, RunRecord, load_run_record, make_run_record, write_run_record

__version__ = TOOL_VERSION

__all__ = [
    "AbsorptionBand",
    "BudgetComparison",
    "CavityModel",
    "CooperativityScenario",
    "DomainError",
    "EtalonBackground",
    "FiberGeometry",
    "FibercavError",
    "FitFailureError",
    "FitReport",
    "FlameClassification",
    "GratingSpec",
    "GrowthFit",
    "GuidedMode",
    "InsufficientPeaksError",
    "LossBudget",
    "MeasurementInconsistencyError",
    "MirrorResponse",
    "NumericalFailureError",
    "ParseError",
    "PeakSet",
    "PullTrace",
    "Quantity",
    "ResonanceFit",
    "RunRecord",
    "SingularCavityError",
    "SpectrumTrace",
    "TamperedRecordError",
    "ToolConfig",
    "TransparencyResult",
    "ValidationError",
    "WindowTooNarrowError",
    "absorption_bands",
    "analyze_spectrum",
    "band_absorption",
    "budget",
    "cavity_length_from_fsr",
    "cavity_spectrum",
    "classify_flame",
    "compare_budgets",
    "cooperativity",
    "default_bands",
    "detect_peaks",
    "deuteroxyl_band",
    "estimate_fsr",
    "evaluate_fit",
    "finesse",
    "finesse_from_loss",
    "fit_lorentzian",
    "fit_loss_growth",
    "format_parenthesized",
    "format_scientific",
    "grating_coupling_from_peak",
    "grating_response",
    "grating_stopband",
    "hydroxyl_band",
    "load_config",
    "load_pull_trace",
    "load_run_record",
    "loss_from_finesse",
    "make_run_record",
    "mirror_transmittance_from_reflectance",
    "mode_intensity",
    "on_resonance_values",
    "overtone_center",
    "parse_spectrum_csv",
    "reference_scenario",
    "required_finesse",
    "silica_sellmeier_index",
    "solve_guided_mode",
    "solve_he11",
    "synthesize_pull_trace",
    "transparency_check",
    "v_number",
    "write_pull_trace",
    "write_run_record",
    "write_spectrum_csv",
]
