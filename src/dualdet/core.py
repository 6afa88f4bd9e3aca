"""Shared units, math primitives, and parameter types.

Conventions used throughout the package: key rates in bits/s, fiber length
in km, attenuation in dB/km, all probabilities and transmittances as plain
floats in [0, 1], homodyne variances in shot-noise units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


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
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary_entropy requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


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


def format_length(length_km: float) -> str:
    return LENGTH_FORMAT % length_km


def format_rate(rate_bps: float) -> str:
    return RATE_FORMAT % rate_bps


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


def check_numbers(spec) -> None:
    """Reject bools and non-finite values in a spec's numeric fields.

    JSON admits NaN, Infinity, true and integers too large for a float
    where a number belongs; the specs' range checks would let NaN through
    (every comparison with it is false) and read True as 1. Fields
    annotated ``bool`` are left alone.
    """
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type in ("bool", bool):
            continue
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range, such as 10**400
            finite = False
        if not finite:
            raise DomainError(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SpdSpec:
    """A gated single-photon detector.

    rep_rate: maximum gate/pulse rate the detector supports, Hz.
    eta_d: detection efficiency.
    y0: background (dark-count) probability per gate.
    e_det: probability that a detected photon lands on the wrong detector
        (misalignment plus cross-talk), per detector because a fast gate
        can suffer far worse adjacent-pulse cross-talk than a slow one.
    """

    rep_rate: float
    eta_d: float
    y0: float
    e_det: float

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.rep_rate <= 0.0:
            raise DomainError(f"rep_rate must be > 0 Hz, got {self.rep_rate}")
        if not 0.0 <= self.eta_d <= 1.0:
            raise DomainError(f"eta_d must be in [0, 1], got {self.eta_d}")
        if not 0.0 <= self.y0 < 1.0:
            raise DomainError(f"y0 must be in [0, 1), got {self.y0}")
        if not 0.0 <= self.e_det <= 0.5:
            raise DomainError(f"e_det must be in [0, 0.5], got {self.e_det}")


@dataclass(frozen=True)
class HomodyneSpec:
    """A homodyne detector for continuous-variable QKD.

    rep_rate: pulse measurement rate, Hz.
    g_det: detection efficiency.
    eps_det: detector excess noise at its input, shot-noise units.
    """

    rep_rate: float
    g_det: float
    eps_det: float

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.rep_rate <= 0.0:
            raise DomainError(f"rep_rate must be > 0 Hz, got {self.rep_rate}")
        if not 0.0 < self.g_det <= 1.0:
            raise DomainError(f"g_det must be in (0, 1], got {self.g_det}")
        if self.eps_det < 0.0:
            raise DomainError(f"eps_det must be >= 0, got {self.eps_det}")


@dataclass(frozen=True)
class LinkSpec:
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

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.alpha < 0.0:
            raise DomainError(f"alpha must be >= 0 dB/km, got {self.alpha}")
        if self.length < 0.0:
            raise DomainError(f"length must be >= 0 km, got {self.length}")
        if not 0.0 < self.g_bob <= 1.0:
            raise DomainError(f"g_bob must be in (0, 1], got {self.g_bob}")
        if self.switch_loss < 0.0:
            raise DomainError(f"switch_loss must be >= 0 dB, got {self.switch_loss}")


@dataclass(frozen=True)
class GmcsSource:
    """Gaussian-modulated coherent-state source and reconciliation model.

    v: total quadrature variance V = V_mod + 1 in shot-noise units.
    beta: reconciliation efficiency in (0, 1].
    eps_pre: state-preparation excess noise, shot-noise units.
    """

    v: float
    beta: float
    eps_pre: float = 0.0

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.v <= 1.0:
            raise DomainError(f"v must be > 1 shot-noise unit, got {self.v}")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError(f"beta must be in (0, 1], got {self.beta}")
        if self.eps_pre < 0.0:
            raise DomainError(f"eps_pre must be >= 0, got {self.eps_pre}")
