"""Fiber Bragg-grating nanofiber cavity toolkit.

Synthesize and fit cavity transmission/reflection spectra, decompose the
round-trip loss into mirror transmittances and intrinsic loss, model
impurity absorption bands and pulling-loss traces, solve the fundamental
guided mode of a subwavelength fiber, and project atom-cavity
cooperativity.

``__all__`` is every public name the imports below bind; each name is
listed once, in those imports.
"""

from types import ModuleType as _ModuleType

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
    LossBudget,
    budget,
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
from .config import ToolConfig, load_config
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

# The package namespace also holds the submodules the imports loaded.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
