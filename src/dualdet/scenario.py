"""Scenario configuration: protocol + detectors + link, loadable from JSON.

A scenario is the unit the sweep tools evaluate: one protocol, one
detector configuration (single or dual), one link. This module alone knows
the receiver layout: the receiver optics (g_bob) and, in a dual receiver,
the routing switch sit in front of both detectors, so their loss is part of
the transmittance either detector sees; single-detector modes have no switch.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

from . import bb84, decoy, gmcs
from .core import (
    ConfigError, DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec,
    channel_transmittance, db_to_transmittance,
)

#: protocol -> (config type, detector type, keyed arm(config, detector, t),
#: bounding arm(config, detector, t), combine(config, keyed detector, keyed
#: terms, bounding terms or None), whether a config's rate turns from positive
#: to non-positive at most once as the length grows, for every mode and
#: detector: each True is proved in the public kernel's docstring, gmcs_rr has
#: no proof, and max_secure_distance then binary-searches its grid). An arm
#: returns one detector's terms; each public kernel (bb84_rate_dual, ...) is
#: the row's three functions composed.
_PROTOCOLS = {
    "bb84_single_photon": (bb84.Bb84Config, SpdSpec, bb84._arm, bb84._arm, bb84._combine, lambda cfg: True),
    "decoy_bb84": (decoy.DecoyConfig, SpdSpec, decoy._signal, bb84._arm, decoy._combine,
                   lambda cfg: cfg.mu <= 1.0),
    "gmcs_dr": (GmcsSource, HomodyneSpec, gmcs.noise_budget, gmcs.noise_budget, gmcs._dr_combine,
                lambda cfg: True),
    "gmcs_rr": (GmcsSource, HomodyneSpec, gmcs.noise_budget, gmcs.noise_budget, gmcs._rr_combine,
                lambda cfg: False),
}
#: mode -> (keyed arm, bounding arm, behind the switch). A single detector
#: is the dual receiver with that detector on both arms at the same t; no
#: bounding arm means no privacy-amplification term.
_ARMS = {
    "single_fast": ("fast", "fast", False),
    "single_slow": ("slow", "slow", False),
    "dual": ("fast", "slow", True),
    "dual_no_pa": ("fast", None, True),
}
PROTOCOLS = tuple(_PROTOCOLS)
MODES = tuple(_ARMS)
#: mode -> the CSV curve role its rate fills: "dual" behind the switch, otherwise the keyed arm.
MODE_TO_ROLE = {mode: "dual" if switched else keyed for mode, (keyed, _, switched) in _ARMS.items()}

Detector = Union[SpdSpec, HomodyneSpec]
ProtocolConfig = Union[bb84.Bb84Config, decoy.DecoyConfig, GmcsSource]


@dataclass(frozen=True)
class Scenario:
    protocol: str
    mode: str
    link: LinkSpec
    config: ProtocolConfig
    fast: Detector | None = None
    slow: Detector | None = None

    def __post_init__(self) -> None:
        validate_scenario(self)
        # Resolve once what evaluate needs besides the length: the receiver
        # optics g_bob and the switch are one factor on the fiber transmittance.
        keyed, bounding, switched = _ARMS[self.mode]
        _, _, keyed_arm, bounding_arm, combine, one_sign_change = _PROTOCOLS[self.protocol]
        factor = self.link.g_bob
        if switched:
            factor *= db_to_transmittance(self.link.switch_loss)
        keyed_det = getattr(self, keyed)
        bounding_det = None if bounding is None else getattr(self, bounding)
        if bounding_det is None:
            bounding_arm = _no_arm
        # One detector with one arm function (the BB84 and GMCS single modes): evaluate computes it once.
        shared = bounding_det is keyed_det and bounding_arm is keyed_arm
        plan = (keyed_arm, bounding_arm, combine, keyed_det, bounding_det, self.config, self.link.alpha, factor,
                shared)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_one_sign_change", one_sign_change(self.config))


def validate_scenario(s: Scenario) -> None:
    if s.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {s.protocol!r}; expected one of {PROTOCOLS}")
    if s.mode not in MODES:
        raise ConfigError(f"unknown mode {s.mode!r}; expected one of {MODES}")
    if s.mode == "dual_no_pa" and s.protocol != "decoy_bb84":
        raise ConfigError("mode 'dual_no_pa' only applies to protocol 'decoy_bb84'")
    if not isinstance(s.link, LinkSpec):
        raise ConfigError(f"link kind {type(s.link).__name__} is not LinkSpec")

    config_cls, detector_cls = _PROTOCOLS[s.protocol][:2]
    for label, det in (("fast", s.fast), ("slow", s.slow)):
        if det is not None and not isinstance(det, detector_cls):
            raise ConfigError(
                f"{label} detector kind {type(det).__name__} does not match "
                f"protocol {s.protocol!r} (expected {detector_cls.__name__})"
            )

    if not isinstance(s.config, config_cls):
        raise ConfigError(
            f"config kind {type(s.config).__name__} does not match protocol "
            f"{s.protocol!r} (expected {config_cls.__name__})"
        )

    for arm in _ARMS[s.mode][:2]:
        if arm is not None and getattr(s, arm) is None:
            raise ConfigError(f"mode {s.mode!r} needs a {arm} detector")
    if s.protocol == "gmcs_rr" and s.mode == "dual" and s.fast.g_det != s.slow.g_det:
        raise ConfigError(
            "reverse reconciliation with dual detectors requires equal "
            f"detection efficiencies, got {s.fast.g_det} and {s.slow.g_det}"
        )


def evaluate(scenario: Scenario, length_km: float) -> float:
    """Raw (unclamped) key rate in bits/s at the given fiber length."""
    keyed_arm, bounding_arm, combine, keyed, bounding, config, alpha, factor, shared = scenario._plan
    t = channel_transmittance(alpha, length_km) * factor
    terms = keyed_arm(config, keyed, t)
    return combine(config, keyed, terms, terms if shared else bounding_arm(config, bounding, t))


def _no_arm(config, detector, t) -> None:
    """The bounding arm of a mode without one: no terms, no privacy-amplification cost."""
    return None


def _raw_rates(scenarios, lengths: tuple[float, ...]) -> list[tuple[float, ...]]:
    """evaluate's raw rates of each scenario at each length.

    Each column is computed once per call: the fiber transmittance for each
    distinct attenuation, t for each (attenuation, factor), and the terms of
    each arm for each (arm function, detector, config, attenuation, factor).
    A single-detector mode reads one column for both arms, and in a preset
    without a switch the dual curve takes its keyed terms from the fast
    curve and its bounding terms from the slow one. If anything raises, the
    scenarios are evaluated in order, length by length, so the error is the
    one evaluate raises first.
    """
    columns = {}
    rates = []
    try:
        for scenario in scenarios:
            keyed_arm, bounding_arm, combine, keyed, bounding, config, alpha, factor, _ = scenario._plan
            if alpha not in columns:
                columns[alpha] = [channel_transmittance(alpha, length) for length in lengths]
            if (alpha, factor) not in columns:
                columns[alpha, factor] = [u * factor for u in columns[alpha]]
            arms = []
            for arm, det in ((keyed_arm, keyed), (bounding_arm, bounding)):
                key = (arm, id(det), id(config), alpha, factor)
                if key not in columns:
                    columns[key] = [arm(config, det, t) for t in columns[alpha, factor]]
                arms.append(columns[key])
            rates.append(tuple([combine(config, keyed, k, b) for k, b in zip(*arms)]))
    except (ArithmeticError, ValueError):  # DomainError is a ValueError
        return [tuple([evaluate(scenario, length) for length in lengths]) for scenario in scenarios]
    return rates


# ---------------------------------------------------------------------------
# JSON loading

#: Field names whose JSON key carries the unit; every other key is its field's name.
_JSON_NAMES = {"rep_rate": "rep_rate_hz", "alpha": "alpha_db_per_km", "length": "length_km",
               "switch_loss": "switch_loss_db"}
_DETECTOR_KINDS = {"spd": SpdSpec, "homodyne": HomodyneSpec}


def _schema(cls: type) -> tuple[dict[str, str], set[str], set[str]]:
    """(JSON key -> field name, required keys, optional keys) of a spec
    dataclass; a key is optional exactly when its field has a default."""
    names, required, optional = {}, set(), set()
    for f in dataclasses.fields(cls):
        key = _JSON_NAMES.get(f.name, f.name)
        names[key] = f.name
        (required if f.default is dataclasses.MISSING else optional).add(key)
    return names, required, optional


#: Resolved once here: scenario_from_dict runs per scan point and must not re-read the fields.
_SCHEMAS = {
    cls: _schema(cls) for cls in (LinkSpec, *_DETECTOR_KINDS.values(), *(row[0] for row in _PROTOCOLS.values()))
}


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _spec(cls: type, obj: Any, where: str):
    """Build a spec of type cls from its JSON object."""
    names, required, optional = _SCHEMAS[cls]
    _check_keys(obj, required, optional, where)
    return cls(**{names[key]: value for key, value in obj.items()})


def _parse_detector(entry: Any, index: int) -> Detector:
    where = f"detectors[{index}]"
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ConfigError(f"{where} must be an object with exactly one detector kind")
    kind, fields = next(iter(entry.items()))
    if kind not in _DETECTOR_KINDS:
        raise ConfigError(f"{where}: unknown detector kind {kind!r}; expected 'spd' or 'homodyne'")
    return _spec(_DETECTOR_KINDS[kind], fields, where)


def scenario_from_dict(data: Any) -> Scenario:
    """Build and validate a Scenario from decoded JSON."""
    _check_keys(data, {"protocol", "mode", "link", "detectors", "config"}, set(), "scenario")
    protocol, mode, detectors = data["protocol"], data["mode"], data["detectors"]
    try:
        link = _spec(LinkSpec, data["link"], "link")
        if not isinstance(detectors, list) or not 1 <= len(detectors) <= 2:
            raise ConfigError("detectors must be an array of 1 or 2 entries (fast first)")
        parsed = [_parse_detector(d, i) for i, d in enumerate(detectors)]
        # An unknown protocol gets no config; the Scenario constructor reports it.
        config = _spec(_PROTOCOLS[protocol][0], data["config"], "config") if protocol in _PROTOCOLS else None
        if len(parsed) == 2:
            arms = dict(zip(("fast", "slow"), parsed))
        else:  # a lone detector is the one the mode keys with; fast for an unknown mode
            arms = {_ARMS[mode][0] if mode in MODES else "fast": parsed[0]}
        return Scenario(protocol=protocol, mode=mode, link=link, config=config, **arms)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)
