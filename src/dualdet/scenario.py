"""Scenario configuration: protocol + detectors + link, loadable from JSON.

A scenario is the unit the sweep tools evaluate: one protocol, one
detector configuration (single or dual), one link. This module alone knows
the receiver layout: the receiver optics (g_bob) and, in a dual receiver,
the routing switch sit in front of both detectors, so their loss is part of
the transmittance either detector sees; single-detector modes have no switch.
"""

from __future__ import annotations

import math
import operator
import os

from . import bb84, decoy, gmcs
from .core import (
    ConfigError, DomainError, GmcsSource, HomodyneSpec, LinkSpec, Record, SpdSpec,
    channel_transmittance, db_to_transmittance,
)

#: protocol -> (config type, detector type, keyed arm(read, detector, t), bounding
#: arm(read, detector, t), combine(config, keyed detector, keyed terms, bounding
#: terms or None), read(config): what the arms read from it (nothing for BB84, mu
#: for decoy, the source for GMCS), twin order(dual's bounding detector, member's
#: bounding detector): whether _twins may pair them, error scale(config, keyed
#: detector, bounding detector or None): a scale whose 2**-41 multiple bounds
#: |fl(rate) - rate|, normalizer(keyed detector): (c, d) of N(t) = c + d*t > 0, such
#: that rate/N does not rise with the length, in either sign: the keyed gain for BB84,
#: t for decoy and GMCS RR, 1 for GMCS DR, whose rate falls; so in every mode the rate is
#: positive on a prefix of lengths and does not rise there; each bound and proof is in
#: the public kernel's docstring). An arm returns one detector's terms; each public
#: kernel (bb84_rate_dual, ...) is the row's three functions composed.
_PROTOCOLS = {
    "bb84_single_photon": (bb84.Bb84Config, SpdSpec, bb84._arm, bb84._arm, bb84._combine, lambda cfg: None,
                           bb84._noisier, lambda cfg, keyed, bounding: bb84._error_scale(cfg, keyed),
                           lambda keyed: (keyed.y0, keyed.eta_d)),
    "decoy_bb84": (decoy.DecoyConfig, SpdSpec, decoy._signal, bb84._arm, decoy._combine, lambda cfg: cfg.mu,
                   bb84._noisier, lambda cfg, keyed, bounding: bb84._error_scale(cfg, keyed),
                   lambda keyed: (0.0, 1.0)),
    "gmcs_dr": (GmcsSource, HomodyneSpec, gmcs._arm, gmcs._arm, gmcs._dr_combine, lambda cfg: cfg,
                lambda dual, member: True, lambda cfg, keyed, bounding: gmcs._dr_error_scale(cfg, keyed),
                lambda keyed: (1.0, 0.0)),
    "gmcs_rr": (GmcsSource, HomodyneSpec, gmcs._arm, gmcs._arm, gmcs._rr_combine, lambda cfg: cfg,
                lambda dual, member: False, gmcs._rr_error_scale, lambda keyed: (0.0, 1.0)),
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

Detector = SpdSpec | HomodyneSpec
ProtocolConfig = bb84.Bb84Config | decoy.DecoyConfig | GmcsSource


class _Kept:
    """An attribute computed on its first read, by the module function of the
    same name called on the instance, and kept on the instance with
    object.__setattr__, which a frozen Record allows. functools.cached_property
    writes through instance.__dict__, and once that dict exists every attribute
    read of the instance is slower (evaluate's read of _plan went from about 15
    to 45 ns, CPython 3.11.7 on a 2-vCPU x86 VM)."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type | None = None):
        if instance is None:
            return self
        value = globals()[self.name](instance)  # read at call time, so a patched function is called
        object.__setattr__(instance, self.name, value)  # read from now on instead of this descriptor
        return value


class Scenario(Record):
    """One receiver: protocol, mode (the detectors it reads are in _ARMS), link, config, detectors."""

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
        _, _, keyed_arm, bounding_arm, combine, read, _, _, _ = _PROTOCOLS[self.protocol]
        factor = self.link.g_bob
        if switched:
            factor *= db_to_transmittance(self.link.switch_loss)
        keyed_det = getattr(self, keyed)
        bounding_det = None if bounding is None else getattr(self, bounding)
        if bounding_det is None:
            bounding_arm = _no_arm
        # One detector with one arm function (the BB84 and GMCS single modes): evaluate computes it once.
        shared = bounding_det is keyed_det and bounding_arm is keyed_arm
        plan = (keyed_arm, bounding_arm, combine, keyed_det, bounding_det, self.config, read(self.config),
                self.link.alpha, factor, shared)
        object.__setattr__(self, "_plan", plan)

    # The searches' constants _error_scale(self), _proof_length(self) and _normalizer(self),
    # computed on first read and then kept: scan builds a Scenario per point and never
    # searches, so __post_init__ does not pay for them.
    _error_scale, _proof_length, _normalizer = _Kept(), _Kept(), _Kept()


def validate_scenario(s: Scenario) -> None:
    if s.protocol not in PROTOCOLS or s.mode not in MODES:
        name, known = ("protocol", PROTOCOLS) if s.protocol not in PROTOCOLS else ("mode", MODES)
        value = getattr(s, name)  # not a string: named by its type, as an array nested 1,000 deep has a long repr
        shown = repr(value) if isinstance(value, str) else f"of type {type(value).__name__}"
        raise ConfigError(f"unknown {name} {shown}; expected one of {known}")
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
    keyed_arm, bounding_arm, combine, keyed, bounding, config, read, alpha, factor, shared = scenario._plan
    t = channel_transmittance(alpha, length_km) * factor
    terms = keyed_arm(read, keyed, t)
    return combine(config, keyed, terms, terms if shared else bounding_arm(read, bounding, t))


def _twins(dual: Scenario, member: Scenario) -> bool:
    """Whether member shares dual's keyed arm, combine and t, both have a
    bounding arm, and the twin order holds: then t*(rate_dual - rate_member)
    does not rise with the length while it is positive (the twin proofs in
    bb84_rate_dual and gmcs_dr_rate_dual)."""
    keyed_arm, bounding_arm, combine, keyed, bounding, config, read, alpha, factor, _ = dual._plan
    plan = member._plan
    return (
        (keyed_arm, combine, keyed, config, read, alpha, factor) == (plan[0], plan[2], plan[3], *plan[5:9])
        and _no_arm not in (bounding_arm, plan[1])
        and _PROTOCOLS[dual.protocol][6](bounding, plan[4])
    )


def _error_scale(s: Scenario) -> float:
    """The protocol's error scale (the eighth column of _PROTOCOLS) of s's keyed and bounding detectors."""
    _, _, _, keyed, bounding, config, _, _, _, _ = s._plan
    return _PROTOCOLS[s.protocol][7](config, keyed, bounding)


#: The least gain y0 + t*eta_d of a photon-counting arm at which the proofs' error bounds hold.
_LEAST_GAIN = 2.0 ** -1000


def _proof_length(s: Scenario) -> float:
    """The longest length at which every photon-counting arm of s has a gain
    of at least _LEAST_GAIN: below it the QBER is a ratio of underflowed
    numbers, which the error bounds do not cover. Infinite for GMCS: its
    bounds hold at every t in [0, 1]."""
    _, _, _, keyed, bounding, _, _, alpha, factor, _ = s._plan
    limit = math.inf
    for det in (keyed, bounding):
        if isinstance(det, SpdSpec) and det.y0 < _LEAST_GAIN:
            # t*eta_d >= _LEAST_GAIN while the fiber loss is at most 10*log10(factor*eta_d/_LEAST_GAIN) dB.
            db = 10.0 * (math.log10(factor) + math.log10(det.eta_d) - math.log10(_LEAST_GAIN)) if det.eta_d else -1.0
            limit = min(limit, -math.inf if db < 0.0 else db / alpha if alpha else math.inf)
    return limit


def _normalizer(s: Scenario) -> tuple[float, float]:
    """(c, d) of s's normalizer (the last column of _PROTOCOLS) as a function
    of the fiber transmittance 10**(-alpha*L/10): N = c + d*10**(-alpha*L/10),
    with the receiver's factor (g_bob and the switch) folded into d."""
    _, _, _, keyed, _, _, _, _, factor, _ = s._plan
    c, d = _PROTOCOLS[s.protocol][8](keyed)
    return c, d * factor


def _no_arm(read, detector, t) -> None:
    """The bounding arm of a mode without one: no terms, no privacy-amplification cost."""
    return None


def _raw_rates(scenarios, lengths: tuple[float, ...]) -> list[tuple[float, ...]]:
    """evaluate's raw rates of each scenario at each length.

    Each column is computed once per call: the fiber transmittance for each
    distinct attenuation, t for each (attenuation, factor), and the terms of
    each arm for each (arm function, detector, what it reads from the config,
    attenuation, factor).
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
            keyed_arm, bounding_arm, combine, keyed, bounding, config, read, alpha, factor, _ = scenario._plan
            if alpha not in columns:
                columns[alpha] = [channel_transmittance(alpha, length) for length in lengths]
            if (alpha, factor) not in columns:
                columns[alpha, factor] = [u * factor for u in columns[alpha]]
            arms = []
            for arm, det in ((keyed_arm, keyed), (bounding_arm, bounding)):
                key = (arm, id(det), id(read), alpha, factor)
                if key not in columns:
                    columns[key] = [arm(read, det, t) for t in columns[alpha, factor]]
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


def _schema(cls: type) -> tuple[frozenset, frozenset, dict, operator.itemgetter]:
    """(required keys, allowed keys, each optional key's default, an itemgetter of the keys in field
    order) of a spec record; a key is optional exactly when its field has a default."""
    keys = tuple(_JSON_NAMES.get(name, name) for name in cls._fields)
    optional = {key: vars(cls)[name] for key, name in zip(keys, cls._fields) if name in vars(cls)}
    return frozenset(keys) - optional.keys(), frozenset(keys), optional, operator.itemgetter(*keys)


#: Resolved once here: scenario_from_dict runs per scan point and must not re-read the fields.
_SCHEMAS = {
    cls: _schema(cls) for cls in (LinkSpec, *_DETECTOR_KINDS.values(), *(row[0] for row in _PROTOCOLS.values()))
}
_SCENARIO_KEYS = frozenset({"protocol", "mode", "link", "detectors", "config"})


def _check_keys(obj, required: frozenset, allowed: frozenset, where: str) -> None:
    """Refuse a non-object, then unknown keys, then missing ones."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if unknown := set(obj) - allowed:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    if missing := required - set(obj):
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _spec(cls: type, obj, where: str | int):
    """Build a spec of type cls from its JSON object, positionally in field order; an absent optional
    key takes its field's default. Only what is not a plain dict with the right keys goes through
    _check_keys, which names it where, or detectors[where] for a detector's index."""
    required, allowed, optional, values = _SCHEMAS[cls]
    if obj.__class__ is not dict or (full := {**optional, **obj}).keys() != allowed:
        _check_keys(obj, required, allowed, where if where.__class__ is str else f"detectors[{where}]")
        full = {**optional, **obj}  # a dict subclass with the right keys, read as a dict
    return cls(*values(full))


def _parse_detector(entry, index: int) -> Detector:
    if isinstance(entry, dict) and len(entry) == 1:
        [(kind, fields)] = entry.items()
        if kind in _DETECTOR_KINDS:
            return _spec(_DETECTOR_KINDS[kind], fields, index)
        raise ConfigError(f"detectors[{index}]: unknown detector kind {kind!r}; expected 'spd' or 'homodyne'")
    raise ConfigError(f"detectors[{index}] must be an object with exactly one detector kind")


def scenario_from_dict(data) -> Scenario:
    """Build and validate a Scenario from decoded JSON."""
    if data.__class__ is not dict or data.keys() != _SCENARIO_KEYS:
        _check_keys(data, _SCENARIO_KEYS, _SCENARIO_KEYS, "scenario")
    protocol, mode, detectors = data["protocol"], data["mode"], data["detectors"]
    try:
        link = _spec(LinkSpec, data["link"], "link")
        if not isinstance(detectors, list) or not 1 <= len(detectors) <= 2:
            raise ConfigError("detectors must be an array of 1 or 2 entries (fast first)")
        fast = _parse_detector(detectors[0], 0)
        slow = _parse_detector(detectors[1], 1) if len(detectors) == 2 else None
        # An unknown protocol gets no config; the Scenario constructor reports it.
        config = _spec(_PROTOCOLS[protocol][0], data["config"], "config") if protocol in _PROTOCOLS else None
        if slow is None and mode in MODES and _ARMS[mode][0] == "slow":  # a lone detector is the mode's keyed one
            fast, slow = None, fast
        return Scenario(protocol, mode, link, config, fast, slow)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed scenario: {exc}") from exc


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Load a scenario from a JSON file."""
    import json  # here, so that a command that reads no file does not load it
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bytes that are not UTF-8, or nested too deep
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)
