"""Shared units, math primitives, and parameter types.

Conventions used throughout the package: key rates in bits/s, fiber length
in km, attenuation in dB/km, all probabilities and transmittances as plain
floats in [0, 1], homodyne variances in shot-noise units.
"""

from __future__ import annotations

import math
import operator


class DomainError(ValueError):
    """An argument fell outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A scenario file or scenario object is malformed or inconsistent."""


#: Error rate of background (dark) counts. A dark count carries no signal
#: correlation, so it lands on the wrong detector half of the time.
E0 = 0.5


def binary_entropy(x: float) -> float:
    """Binary entropy H2(x) = -x*log2(x) - (1-x)*log2(1-x), in bits.

    Uses the 0*log(0) = 0 limit convention, so the endpoints x = 0 and
    x = 1 return exactly 0.0.
    """
    if 0.0 < x < 1.0:
        return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    if x == 0.0 or x == 1.0:
        return 0.0
    raise DomainError(f"binary_entropy requires x in [0, 1], got {x}")


def channel_transmittance(alpha: float, length: float) -> float:
    """Fiber transmittance 10^(-alpha*length/10).

    Args:
        alpha: attenuation in dB/km.
        length: fiber length in km.
    """
    if not alpha >= 0.0:
        raise DomainError(f"attenuation must be >= 0 dB/km, got {alpha}")
    if not length >= 0.0:
        raise DomainError(f"length must be >= 0 km, got {length}")
    return 10.0 ** (-alpha * length / 10.0)


def db_to_transmittance(loss: float) -> float:
    """Convert an insertion loss in dB to a power transmittance."""
    if not loss >= 0.0:
        raise DomainError(f"loss must be >= 0 dB, got {loss}")
    return 10.0 ** (-loss / 10.0)


#: Printed number formats: lengths to 2 decimals, rates to 6 significant digits.
LENGTH_FORMAT = "%.2f"
RATE_FORMAT = "%.5e"


#: Most halvings bisect_sign_change makes before it returns.
BISECT_MAX_ITER = 200


def bisect_sign_change(f, lo: float, hi: float, tol: float) -> float:
    """Bisect f on [lo, hi] assuming f(lo) > 0 >= f(hi).

    Returns the midpoint of the final bracket once its width is <= tol, or
    after BISECT_MAX_ITER halvings. The caller guarantees the bracket;
    values are not re-checked here.
    """
    if not hi > lo:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_BOUNDS: dict[str, tuple[float, float]] = {}  # rule -> _bounds(rule), filled on first use
_setattr = object.__setattr__  # Record's __init__ stores by it: one global read, and no parameter to show


def _bounds(rule: str) -> tuple[float, float]:
    """Open interval (low, high) of a rule; a closed end moves out to the adjacent float."""
    if rule.startswith("in "):
        low, high = map(float, rule[4:-1].split(", "))
        return (math.nextafter(low, -math.inf) if rule[3] == "[" else low,
                math.nextafter(high, math.inf) if rule[-1] == "]" else high)
    symbol, bound = rule.split()[:2]  # a trailing unit is not read
    return math.nextafter(float(bound), -math.inf) if symbol == ">=" else float(bound), math.inf


def check_number(name: str, value, rule: str | None = None) -> None:
    """Refuse a bool or a non-finite value (JSON admits NaN, Infinity, true and huge ints),
    then a value outside rule, such as "> 0 Hz" or "in [0, 1)", which the message quotes."""
    if value.__class__ is not float or value - value:  # NaN and inf leave a NaN difference
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range, such as 10**400
            finite = False
        if not finite:
            raise DomainError(f"{name} must be a finite number, got {value!r}")
    if rule is not None:
        low, high = _BOUNDS.get(rule) or _BOUNDS.setdefault(rule, _bounds(rule))
        if not low < value < high:
            raise DomainError(f"{name} must be {rule}, got {value}")


def check_fields(spec) -> None:
    """check_number over a spec record: every field finite, then the class's RULES in order.

    Record's __init__ calls it only where a field fails its inline test (a float strictly inside
    the field's rule), so it is the one place that raises check_number's first message in that
    order, or accepts an in-range int. getattr reads the fields: vars(spec) would make a slower
    __dict__."""
    cls = spec.__class__
    for name in cls._fields:
        value = getattr(spec, name)
        if value.__class__ is not float or value - value:
            check_number(name, value)
    for name, rule in cls.RULES.items():
        check_number(name, getattr(spec, name), rule)


class Record:
    """@dataclass(frozen=True) without the dataclasses import a CLI process would pay for: the fields
    are the subclass's annotations, in order, a class attribute of the same name their default. __init__
    stores them by object.__setattr__ (CPython 3.11 builds an instance __dict__ only once one is read);
    with RULES it tests each for a float strictly inside its rule, any finite float without one (NaN
    fails every comparison), and runs check_fields only if one fails; then __post_init__. ==, hash and
    repr go field by field (_values, an attrgetter, does not bind), a write or delete raises
    AttributeError, and dataclasses.replace and fields read __dataclass_fields__, made on first read."""

    def __init_subclass__(cls) -> None:
        names = cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        source = [f"def __init__(self, {', '.join(f'{n}=cls.{n}' if n in cls.__dict__ else n for n in names)}):"]
        source += [f" _setattr(self, {name!r}, {name})" for name in names]
        if "RULES" in cls.__dict__:  # each field's open interval as float literals, an infinite end as math.inf
            ends = [_bounds(cls.RULES[n]) if n in cls.RULES else (-math.inf, math.inf) for n in names]
            low, high = ([repr(end).replace("inf", "math.inf") for end in side] for side in zip(*ends))
            tests = " and ".join(map("{0}.__class__ is float and {1} < {0} < {2}".format, names, low, high))
            source += [f" if not ({tests}):", "  check_fields(self)"]
        source += [" self.__post_init__()"] * hasattr(cls, "__post_init__")
        exec("\n".join(source), globals(), namespace := {"cls": cls})  # globals(): a patched check_fields runs
        cls.__init__, cls._values = namespace["__init__"], operator.attrgetter(*names)
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__dataclass_fields__ = _DataclassFields()

    def __eq__(self, other):
        return self._values(self) == self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values(self)))})"

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {self.__class__.__name__}")

    __delattr__ = __setattr__


class _DataclassFields:
    """A record class's __dataclass_fields__, made on the first read and then kept on the class."""

    def __get__(self, instance, owner: type) -> dict:
        import dataclasses
        owner.__dataclass_fields__ = dataclasses.make_dataclass(owner.__name__, [
            (name, kind, owner.__dict__[name]) if name in owner.__dict__ else (name, kind)
            for name, kind in owner.__annotations__.items()]).__dataclass_fields__
        return owner.__dataclass_fields__


class SpdSpec(Record):
    """A gated single-photon detector.

    rep_rate: maximum gate/pulse rate the detector supports, Hz, at most 1e15:
        with f_ec <= 10 every rate and its error scale stay finite.
    eta_d: detection efficiency.
    y0: background (dark-count) probability per gate.
    e_det: probability that a detected photon lands on the wrong detector
        (misalignment plus cross-talk), per detector because a fast gate
        can suffer far worse adjacent-pulse cross-talk than a slow one.
    eta_d and y0 may not both be 0: such a detector never clicks.
    """

    rep_rate: float
    eta_d: float
    y0: float
    e_det: float

    RULES = {"rep_rate": "in (0, 1e15]", "eta_d": "in [0, 1]", "y0": "in [0, 1)", "e_det": "in [0, 0.5]"}

    def __post_init__(self) -> None:
        if self.eta_d == 0.0 and self.y0 == 0.0:
            raise DomainError("eta_d and y0 must not both be 0: the detector would never click")


class HomodyneSpec(Record):
    """A homodyne detector for continuous-variable QKD.

    rep_rate: pulse measurement rate, Hz, at most 1e15.
    g_det: detection efficiency.
    eps_det: detector excess noise at its input, shot-noise units, at most
        1e30, and eps_det/g_det at most 1e36: with GmcsSource's bounds every
        product in the GMCS rates stays below 1e307.
    """

    rep_rate: float
    g_det: float
    eps_det: float

    RULES = {"rep_rate": "in (0, 1e15]", "g_det": "in (0, 1]", "eps_det": "in [0, 1e30]"}

    def __post_init__(self) -> None:
        if not self.eps_det / self.g_det <= 1e36:
            raise DomainError(f"eps_det/g_det must be at most 1e36, got {self.eps_det / self.g_det}")


class LinkSpec(Record):
    """Fiber link plus the receiver's passive optics.

    alpha: fiber attenuation, dB/km.
    length: fiber length, km. Nothing reads it: evaluate and the searches
        take the length as an argument.
    g_bob: optical transmittance of the receiver (before the detector).
    switch_loss: insertion loss of the routing switch, dB. Applied only in
        dual-detector configurations; single-detector setups have no switch.
    """

    alpha: float
    length: float = 0.0
    g_bob: float = 1.0
    switch_loss: float = 0.0

    RULES = {"alpha": ">= 0 dB/km", "length": ">= 0 km", "g_bob": "in (0, 1]", "switch_loss": ">= 0 dB"}


class GmcsSource(Record):
    """Gaussian-modulated coherent-state source and reconciliation model.

    v: total quadrature variance V = V_mod + 1 in shot-noise units, at most
        1e270: with the eps_pre and eps_det bounds every product in the GMCS
        rates stays finite, and so do their error scales.
    beta: reconciliation efficiency in (0, 1].
    eps_pre: state-preparation excess noise, shot-noise units, at most 1e30.
    """

    v: float
    beta: float
    eps_pre: float = 0.0

    RULES = {"v": "in (1, 1e270]", "beta": "in (0, 1]", "eps_pre": "in [0, 1e30]"}
