"""Key-rate models for QKD receivers that pair a fast noisy detector with
a slow quiet one, plus distance-sweep and scheduling tools.

Each public name is imported from its module on first use (PEP 562), so
``import dualdet`` loads none of the submodules.
"""

import importlib

__version__ = "0.1.0"

#: module -> the public names the package root re-exports from it.
_EXPORTS = {
    "core": ("E0", "DomainError", "ConfigError", "SpdSpec", "HomodyneSpec", "LinkSpec", "GmcsSource",
             "binary_entropy", "channel_transmittance", "db_to_transmittance"),
    "bb84": ("Bb84Config", "bb84_rate_dual"),
    "decoy": ("DecoyConfig", "decoy_single_photon_qber", "decoy_rate_dual", "optimal_mu"),
    "gmcs": ("MismatchedEfficiencyError", "gmcs_dr_rate_dual", "gmcs_rr_rate_dual"),
    "practical": ("choice_probabilities", "multi_pulse_qber", "max_slow_probability", "accumulation_time"),
    "presets": ("FigurePreset", "figure_preset"),
    "scenario": ("Scenario", "evaluate", "load_scenario", "scenario_from_dict"),
    "sweep": ("RateCurve", "sweep_preset", "max_secure_distance", "crossover_distance",
              "write_curves_csv", "save_curves_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__, as after an eager import
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
