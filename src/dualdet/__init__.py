"""Key-rate models for QKD receivers that pair a fast noisy detector with
a slow quiet one, plus distance-sweep and scheduling tools."""

from .core import (
    E0,
    DomainError,
    GmcsSource,
    HomodyneSpec,
    LinkSpec,
    SpdSpec,
    binary_entropy,
    channel_transmittance,
    db_to_transmittance,
)
from .bb84 import Bb84Config, bb84_gain, bb84_qber, bb84_rate_dual
from .decoy import (
    DecoyConfig,
    decoy_rate_dual,
    decoy_signal_gain,
    decoy_signal_qber,
    decoy_single_photon_gain,
    decoy_single_photon_qber,
    optimal_mu,
)
from .gmcs import (
    MismatchedEfficiencyError,
    gmcs_dr_rate_dual,
    gmcs_rr_rate_dual,
    info_ae,
    info_be,
    mutual_info_ab,
    noise_budget,
)
from .practical import (
    accumulation_time,
    choice_probabilities,
    max_slow_probability,
    multi_pulse_qber,
)
from .presets import FigurePreset, figure_preset
from .scenario import ConfigError, Scenario, evaluate, load_scenario, scenario_from_dict
from .sweep import (
    RateCurve,
    crossover_distance,
    max_secure_distance,
    read_curves_csv,
    save_curves_csv,
    sweep_preset,
    write_curves_csv,
)

__version__ = "0.1.0"

__all__ = [
    "E0",
    "DomainError",
    "ConfigError",
    "MismatchedEfficiencyError",
    "SpdSpec",
    "HomodyneSpec",
    "LinkSpec",
    "GmcsSource",
    "Bb84Config",
    "DecoyConfig",
    "Scenario",
    "FigurePreset",
    "RateCurve",
    "binary_entropy",
    "channel_transmittance",
    "db_to_transmittance",
    "bb84_gain",
    "bb84_qber",
    "bb84_rate_dual",
    "decoy_signal_gain",
    "decoy_signal_qber",
    "decoy_single_photon_gain",
    "decoy_single_photon_qber",
    "decoy_rate_dual",
    "optimal_mu",
    "noise_budget",
    "mutual_info_ab",
    "info_ae",
    "info_be",
    "gmcs_dr_rate_dual",
    "gmcs_rr_rate_dual",
    "choice_probabilities",
    "multi_pulse_qber",
    "max_slow_probability",
    "accumulation_time",
    "evaluate",
    "sweep_preset",
    "max_secure_distance",
    "crossover_distance",
    "figure_preset",
    "load_scenario",
    "scenario_from_dict",
    "write_curves_csv",
    "save_curves_csv",
    "read_curves_csv",
]
