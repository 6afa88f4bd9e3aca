"""Asymptotic decoy-state BB84 with a weak coherent (Poisson) source.

With ideal decoy states the signal gain/QBER and the single-photon
gain/QBER are known exactly, so the rate bound needs no linear program.
Error correction is paid on all signal detections; privacy amplification
only on the single-photon fraction, which is where a quiet second
detector helps: it tightens the single-photon error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bb84 import F_EC_RULE, _arm, bb84_gain, bb84_qber, check_sifting
from .core import E0, DomainError, SpdSpec, binary_entropy, bisect_sign_change, check_fields, check_number


@dataclass(frozen=True)
class DecoyConfig:
    """Source intensity and protocol constants.

    mu: mean photon number of the signal state, at most 700: exp(-mu) stays
        normal and Q_1 = (y0 + eta)*mu*exp(-mu) is never inf*0 = nan.
    """

    mu: float
    basis_factor: float
    f_ec: float

    def __post_init__(self) -> None:
        check_fields(self, mu="in (0, 700]")
        check_sifting(self)


# In the four helpers below, t is the transmittance from the source to the
# detector; eta = t*eta_d.


def decoy_signal_gain(mu: float, spd: SpdSpec, t: float) -> float:
    """Gain of the signal state: Q_mu = y0 + 1 - exp(-eta*mu)."""
    eta = t * spd.eta_d
    return spd.y0 + 1.0 - math.exp(-eta * mu)


def decoy_signal_qber(mu: float, spd: SpdSpec, t: float) -> float:
    """Overall QBER of the signal state."""
    return _signal(mu, spd, t)[1]


def decoy_single_photon_gain(mu: float, spd: SpdSpec, t: float) -> float:
    """Gain of the single-photon pulses: Q_1 = Y_1 * mu * exp(-mu), where the
    yield Y_1 = y0 + eta is the ideal single-photon source's BB84 gain."""
    return bb84_gain(spd, t) * mu * math.exp(-mu)


def decoy_single_photon_qber(mu: float, spd: SpdSpec, t: float) -> float:
    """QBER of the single-photon pulses: the ideal single-photon source's
    BB84 QBER, so independent of mu."""
    return bb84_qber(spd, t)


def decoy_rate_dual(keyed: SpdSpec, bounding: SpdSpec | None, cfg: DecoyConfig, t: float) -> float:
    """Key rate in bits/s with gains and error correction from the keyed
    detector and the privacy-amplification error bound from the bounding one.

    t is the transmittance from the source to either detector. A
    single-detector receiver passes one detector twice. With no bounding
    detector the rate charges no privacy amplification, showing how much
    of the rate loss is error correction alone.

    For mu <= 1 the rate turns from positive to non-positive at most once
    as the length grows, that is as eta = t*eta_d (keyed arm) falls. Its
    sign is that of per_pulse/q_1 = 1 - f_ec*(q_mu/q_1)*H2(e_mu) - H2(e_1),
    as q_1 = (y0 + eta)*mu*exp(-mu) > 0 wherever the QBERs are defined, and
    each subtracted term is >= 0 and does not fall:
    - q_mu/q_1 = [(y0 + 1 - exp(-eta*mu))/(y0 + eta)] / (mu*exp(-mu)). Its
      eta-derivative has the sign of
      mu*eta*exp(-eta*mu) - (1 - exp(-eta*mu)) + y0*(mu*exp(-eta*mu) - 1),
      where the first two terms are (1 + x)*exp(-x) - 1 <= 0 with x = eta*mu,
      and the last is <= 0 for mu <= 1. So the ratio does not fall with length.
    - e_mu is a weighted mean of E0 = 1/2 (weight y0) and e_det <= 1/2
      (weight 1 - exp(-eta*mu)); that weight falls, so e_mu moves toward
      1/2 and H2(e_mu) does not fall.
    - e_1 is the BB84 QBER, which rises with length (bb84_rate_dual), and
      dual_no_pa only drops this term.
    So the rate is q_1, positive and falling with length, times a bracket
    that does not rise with length: where the rate is positive it does not
    rise with length, and once it is non-positive it stays non-positive.
    Where it is non-positive, rate/t does not rise with length either:
    q_1/t = (y0/t + eta_d)*mu*exp(-mu) is >= 0 and rises as t falls, and the
    bracket is <= 0 and does not rise, as in bb84_rate_dual.
    For mu > 1 the y0 term can be positive, and no such bound is claimed.

    Twin rule: a twin (bb84_rate_dual) differs from this rate by
    b*rep_rate*q_1*(H2(e_1m) - H2(e_1d)), BB84's D with q_1 for the gain, as
    q_1 is proportional to it. So BB84's twin rule holds, for every mu.
    The error bound is bb84._error_scale's.
    """
    terms = _signal(cfg.mu, keyed, t)
    return _combine(cfg, keyed, terms, None if bounding is None else _arm(None, bounding, t))


def _signal(mu: float, spd: SpdSpec, t: float) -> tuple[float, float, float, float]:
    """(Q_mu, E_mu, H2(E_mu), Q_1) of the keyed arm, Q_mu and E_mu from one
    exp(-eta*mu). Q_mu and Q_1 are decoy_signal_gain's and
    decoy_single_photon_gain's, kept apart: at zero gain they return a value, where this raises."""
    eta = t * spd.eta_d
    vacuum = math.exp(-eta * mu)
    q_mu = spd.y0 + 1.0 - vacuum
    if q_mu == 0.0:
        raise ZeroDivisionError("signal gain is zero; QBER undefined")
    e_mu = (E0 * spd.y0 + spd.e_det * (1.0 - vacuum)) / q_mu
    return q_mu, e_mu, binary_entropy(e_mu), (spd.y0 + eta) * mu * math.exp(-mu)


def _combine(cfg: DecoyConfig, keyed: SpdSpec, keyed_terms, bounding_terms) -> float:
    """The rate from the keyed arm's terms and, unless None, the bounding arm's H2(e_1)."""
    q_mu, _, h_mu, q_1 = keyed_terms
    per_pulse = q_1 - cfg.f_ec * q_mu * h_mu
    if bounding_terms is not None:
        per_pulse -= q_1 * bounding_terms[2]
    return cfg.basis_factor * keyed.rep_rate * per_pulse


#: Largest residual optimal_mu accepts from its bisection.
MU_RESIDUAL_TOL = 1e-10


def optimal_mu(e_det: float, f_ec: float) -> float:
    """Solve (1 - mu) * exp(-mu) = f_ec * H2(e_det) / (1 - H2(e_det)) for mu.

    The left side falls strictly from 1 to 0 as mu goes from 0 to 1, so a
    root exists and is unique whenever the right side lies in (0, 1).
    Found by bisection; the returned value has residual below MU_RESIDUAL_TOL.
    """
    check_number("e_det", e_det, "in (0, 0.5)")
    check_number("f_ec", f_ec, F_EC_RULE)
    h = binary_entropy(e_det)
    rhs = f_ec * h / (1.0 - h) if h < 1.0 else math.inf  # H2 rounds to 1 near e_det = 0.5
    if not 0.0 < rhs < 1.0:
        raise DomainError(
            f"no root: f_ec*H2(e_det)/(1-H2(e_det)) = {rhs} falls outside (0, 1)"
        )
    root = bisect_sign_change(
        lambda mu: (1.0 - mu) * math.exp(-mu) - rhs, 0.0, 1.0, tol=1e-14
    )
    residual = abs((1.0 - root) * math.exp(-root) - rhs)
    if residual >= MU_RESIDUAL_TOL:
        raise DomainError(f"bisection residual {residual} exceeds {MU_RESIDUAL_TOL}")
    return root
