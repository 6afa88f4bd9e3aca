"""Built-in scenario presets for the nine reference distance sweeps.

Each preset bundles a dual-detector scenario with the two single-detector
baselines it is compared against, plus the sweep grid. Detector and link
numbers follow the published parameter sets for the respective receiver
combinations.
"""

from __future__ import annotations

from .bb84 import Bb84Config
from .core import ConfigError, GmcsSource, HomodyneSpec, LinkSpec, Record, SpdSpec
from .decoy import DecoyConfig
from .scenario import Scenario

# Single-photon detectors: a GHz up-conversion detector, a transition-edge
# sensor, and a 10 GHz low-jitter up-conversion detector whose adjacent-pulse
# cross-talk shows up as a large e_det. The slow variant of the low-jitter
# detector runs two decades slower, so its cross-talk stays at baseline.
UPCONVERSION_SPD = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=1.3e-5, e_det=0.018)
TES_SPD = SpdSpec(rep_rate=2.5e6, eta_d=0.5, y0=3e-7, e_det=0.018)
LOW_JITTER_SPD_FAST = SpdSpec(rep_rate=10e9, eta_d=0.0027, y0=3.2e-9, e_det=0.097)
LOW_JITTER_SPD_SLOW = SpdSpec(rep_rate=100e6, eta_d=0.0027, y0=3.2e-9, e_det=0.018)

# Homodyne detectors: fast-but-noisy vs slow-but-quiet, equal efficiency.
FAST_HOMODYNE = HomodyneSpec(rep_rate=82e6, g_det=0.8, eps_det=0.43)
QUIET_HOMODYNE = HomodyneSpec(rep_rate=1e6, g_det=0.8, eps_det=0.01)

FIBER_ALPHA = 0.21  # dB/km, telecom fiber
BB84_LINK = LinkSpec(alpha=FIBER_ALPHA, g_bob=0.16)
GMCS_LINK = LinkSpec(alpha=FIBER_ALPHA)

BB84_CONFIG = Bb84Config(basis_factor=0.5, f_ec=1.22)
# The decoy presets pin the signal intensity at the published 0.73; see
# optimal_mu for the self-consistent optimum, which comes out lower.
DECOY_CONFIG = DecoyConfig(mu=0.73, basis_factor=0.5, f_ec=1.22)
GMCS_SOURCE_IDEAL = GmcsSource(v=40.0, beta=1.0, eps_pre=0.05)
GMCS_SOURCE_REALISTIC = GmcsSource(v=20.0, beta=0.8, eps_pre=0.05)

SPD_GRID = (0.0, 250.0, 1.0)
GMCS_GRID = (0.0, 60.0, 0.25)


class FigurePreset(Record):
    """One reference figure: its dual, fast and slow scenarios and its sweep grid in km."""

    fig_id: int
    description: str
    scenarios: dict[str, Scenario]  # keys: dual, fast, slow
    l_min: float
    l_max: float
    step: float


#: fig_id -> (protocol, fast, slow, config, link, grid, dual-receiver switch loss in dB, description).
_FIGURES = {
    1: ("bb84_single_photon", UPCONVERSION_SPD, TES_SPD, BB84_CONFIG, BB84_LINK, SPD_GRID, 0.0,
        "single-photon BB84, GHz up-conversion SPD + TES"),
    2: ("bb84_single_photon", LOW_JITTER_SPD_FAST, TES_SPD, BB84_CONFIG, BB84_LINK, SPD_GRID, 0.0,
        "single-photon BB84, 10 GHz low-jitter SPD + TES"),
    3: ("bb84_single_photon", LOW_JITTER_SPD_FAST, LOW_JITTER_SPD_SLOW, BB84_CONFIG, BB84_LINK, SPD_GRID, 0.0,
        "single-photon BB84, two low-jitter SPDs"),
    4: ("decoy_bb84", UPCONVERSION_SPD, TES_SPD, DECOY_CONFIG, BB84_LINK, SPD_GRID, 0.0,
        "decoy-state BB84, GHz up-conversion SPD + TES"),
    5: ("gmcs_dr", FAST_HOMODYNE, QUIET_HOMODYNE, GMCS_SOURCE_IDEAL, GMCS_LINK, GMCS_GRID, 0.0,
        "GMCS direct reconciliation, V=40, beta=1"),
    6: ("gmcs_rr", FAST_HOMODYNE, QUIET_HOMODYNE, GMCS_SOURCE_IDEAL, GMCS_LINK, GMCS_GRID, 0.0,
        "GMCS reverse reconciliation, V=40, beta=1"),
    7: ("gmcs_rr", FAST_HOMODYNE, QUIET_HOMODYNE, GMCS_SOURCE_REALISTIC, GMCS_LINK, GMCS_GRID, 0.0,
        "GMCS reverse reconciliation, V=20, beta=0.8"),
    8: ("bb84_single_photon", LOW_JITTER_SPD_FAST, TES_SPD, BB84_CONFIG, BB84_LINK, SPD_GRID, 3.0,
        "as figure 2 with a 3 dB switch on the dual receiver"),
    9: ("bb84_single_photon", LOW_JITTER_SPD_FAST, LOW_JITTER_SPD_SLOW, BB84_CONFIG, BB84_LINK, SPD_GRID, 3.0,
        "as figure 3 with a 3 dB switch on the dual receiver"),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_preset(fig_id: int) -> FigurePreset:
    """Return the scenarios and sweep grid for reference figure 1..9."""
    if fig_id not in _FIGURES:
        raise ConfigError(f"unknown figure id {fig_id}; expected 1..9")
    protocol, fast, slow, config, link, grid, switch_loss, description = _FIGURES[fig_id]
    dual_link = LinkSpec(link.alpha, link.length, link.g_bob, switch_loss)
    scenarios = {
        "dual": Scenario(protocol=protocol, mode="dual", link=dual_link, config=config, fast=fast, slow=slow),
        "fast": Scenario(protocol=protocol, mode="single_fast", link=link, config=config, fast=fast, slow=slow),
        "slow": Scenario(protocol=protocol, mode="single_slow", link=link, config=config, fast=fast, slow=slow),
    }
    return FigurePreset(fig_id, description, scenarios, *grid)
