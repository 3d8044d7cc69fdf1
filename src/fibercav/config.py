"""Tool configuration: one INI file, flat sections per analysis stage.

Every value has a default, so an empty (or absent) file is a complete
configuration.  Values are validated at load time against the
preconditions of the modules that consume them, so a bad config fails
before any computation starts.  The effective configuration is embedded
verbatim in every run record for reproducibility.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from .cavity import DEFAULT_GROUP_INDEX
from .cooperativity import DEFAULT_PREFACTOR, REFERENCE_SIGMA0_OVER_AEFF
from .errors import ValidationError
from .modes import DEFAULT_SILICA_INDEX

#: Environment variable consulted when no --config path is given.
CONFIG_ENV_VAR = "FIBERCAV_CONFIG"

_REGIMES = {
    "under": "under",
    "over": "over",
    "undercoupled": "under",
    "overcoupled": "over",
}

_BACKGROUNDS = ("constant", "linear", "linear+etalon")


def _normalize_regime(value: str, key: str) -> str:
    try:
        return _REGIMES[value.strip().lower()]
    except KeyError:
        raise ValidationError(
            f"{key} must be one of under/over/undercoupled/overcoupled, got {value!r}"
        ) from None


@dataclass(frozen=True)
class ToolConfig:
    """Effective configuration for one run (defaults = shipped behavior)."""

    # [general]
    seed: int = 0
    group_index: float = DEFAULT_GROUP_INDEX
    # [fit]
    background: str = "linear"
    window_fwhm_multiple: float = 5.0
    prominence_threshold: float = 0.1
    max_iterations: int = 200
    # [budget]
    regime_1: str = "under"
    regime_2: str = "under"
    # [classify]
    final_loss_high: float = 0.04
    final_loss_low: float = 0.02
    reference_threshold: float = 0.01
    # [modes]
    core_index: float = DEFAULT_SILICA_INDEX
    cladding_index: float = 1.0
    # [cooperativity]
    prefactor: float = DEFAULT_PREFACTOR
    sigma0_over_aeff: float = REFERENCE_SIGMA0_OVER_AEFF

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.group_index < 1.0:
            raise ValidationError("group_index must be >= 1")
        if self.background not in _BACKGROUNDS:
            raise ValidationError(
                f"background must be one of {_BACKGROUNDS}, got {self.background!r}"
            )
        if self.window_fwhm_multiple <= 0.0:
            raise ValidationError("window_fwhm_multiple must be > 0")
        if not 0.0 < self.prominence_threshold < 1.0:
            raise ValidationError("prominence_threshold must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        object.__setattr__(self, "regime_1", _normalize_regime(self.regime_1, "regime_1"))
        object.__setattr__(self, "regime_2", _normalize_regime(self.regime_2, "regime_2"))
        if not 0.0 < self.final_loss_low < self.final_loss_high < 1.0:
            raise ValidationError("need 0 < final_loss_low < final_loss_high < 1")
        if not 0.0 < self.reference_threshold < 1.0:
            raise ValidationError("reference_threshold must lie in (0, 1)")
        if not self.core_index > self.cladding_index >= 1.0:
            raise ValidationError("need core_index > cladding_index >= 1")
        if self.prefactor <= 0.0 or self.sigma0_over_aeff <= 0.0:
            raise ValidationError("cooperativity constants must be > 0")
        for name in ("group_index", "window_fwhm_multiple", "prefactor"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def as_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {
    "general": ("seed", "group_index"),
    "fit": ("background", "window_fwhm_multiple", "prominence_threshold", "max_iterations"),
    "budget": ("regime_1", "regime_2"),
    "classify": ("final_loss_high", "final_loss_low", "reference_threshold"),
    "modes": ("core_index", "cladding_index"),
    "cooperativity": ("prefactor", "sigma0_over_aeff"),
}

_INT_KEYS = ("seed", "max_iterations")
_STR_KEYS = ("background", "regime_1", "regime_2")


def load_config(path=None) -> ToolConfig:
    """Load configuration from an INI file.

    Resolution order: explicit ``path`` argument, then the
    ``FIBERCAV_CONFIG`` environment variable, then built-in defaults.
    Unknown sections or keys are rejected rather than ignored.
    """
    if path is None:
        env_path = os.environ.get(CONFIG_ENV_VAR, "").strip()
        if env_path:
            path = env_path
        else:
            return ToolConfig()
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config is not UTF-8 text: {exc}", path=str(path)) from exc
    except configparser.Error as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ValidationError(f"{path}: unknown key {key!r} in section [{section}]")
            if key in _INT_KEYS:
                try:
                    overrides[key] = int(raw)
                except ValueError:
                    raise ValidationError(f"{path}: {key} must be an integer, got {raw!r}") from None
            elif key in _STR_KEYS:
                overrides[key] = raw.strip()
            else:
                try:
                    overrides[key] = float(raw)
                except ValueError:
                    raise ValidationError(f"{path}: {key} must be a number, got {raw!r}") from None
    return ToolConfig(**overrides)
