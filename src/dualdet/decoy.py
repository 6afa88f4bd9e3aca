"""Asymptotic decoy-state BB84 with a weak coherent (Poisson) source.

With ideal decoy states the signal gain/QBER and the single-photon
gain/QBER are known exactly, so the rate bound needs no linear program.
Error correction is paid on all signal detections; privacy amplification
only on the single-photon fraction, which is where a quiet second
detector helps: it tightens the single-photon error estimate.
"""

from __future__ import annotations

import math

from .bb84 import F_EC_RULE, _arm, _constants, check_sifting
from .core import E0, DomainError, Record, SpdSpec, binary_entropy, check_number


class DecoyConfig(Record):
    """Source intensity and protocol constants.

    mu: mean photon number of the signal state, at most 700: exp(-mu) stays
        normal and Q_1 = (y0 + eta)*mu*exp(-mu) is never inf*0 = nan.
    """

    mu: float
    basis_factor: float
    f_ec: float

    RULES = {"mu": "in (0, 700]"}  # check_sifting checks the others

    def __post_init__(self) -> None:
        check_sifting(self)


def decoy_single_photon_qber(mu: float, spd: SpdSpec, t: float) -> float:
    """QBER of the single-photon pulses: the ideal single-photon source's
    BB84 QBER, so independent of mu."""
    return _arm(None, spd, t)[1]


def decoy_rate_dual(keyed: SpdSpec, bounding: SpdSpec | None, cfg: DecoyConfig, t: float) -> float:
    """Key rate in bits/s with gains and error correction from the keyed
    detector and the privacy-amplification error bound from the bounding one.

    t, in [0, 1], is the transmittance from the source to either detector. A
    single-detector receiver passes one detector twice. With no bounding
    detector the rate charges no privacy amplification, showing how much
    of the rate loss is error correction alone.

    The normalizer rule, with N = t, for every mu and in every mode: rate/t
    does not rise with length, in either sign. Let n = y0 of the keyed arm,
    x = mu*t*eta_d, s = 1 - exp(-x), c = mu*exp(-mu) <= 1/e, P = 1 - H2(e_1) of the bounding
    arm (P = 1 with none) and F(n, s) = (n + s)*H2(e_mu). As q_1 = c*(n + t*eta_d)
    and q_mu = n + s, the rate per pulse is c*(n + t*eta_d)*P - f_ec*F, so
    rate/t = b*rep_rate*(c*eta_d*P + W/t) with W = c*n*P - f_ec*F. The
    first term does not rise with length: e_1 is the BB84 QBER, which rises
    with length (bb84_rate_dual), so P in [0, 1] does not rise. With
    l = -ln t, d(W/t)/dl = (W + dW/dl)/t, and three facts about F bound it:
    - F is 1-homogeneous in (n, s): e_mu = (n/2 + e_det*s)/(n + s) does not
      change when both are scaled.
    - dF/dn = H2(e_mu) + H2'(e_mu)*(1/2 - e_mu) >= H2(1/2) = 1, as
      de_mu/dn = (1/2 - e_mu)/(n + s) and a tangent of the concave H2 lies
      above it.
    - F >= n, as H2(p) >= 2p on [0, 1/2] and 2*(n + s)*e_mu = n + 2*e_det*s.
    As ds/dl = -x*exp(-x), Euler's F = n*dF/dn + s*dF/ds gives
    F + dF/dl = (1 - lam)*F + lam*n*dF/dn >= n, with lam = x/(exp(x) - 1) in
    (0, 1]. As c*n >= 0 and P neither exceeds 1 nor rises,
    W + dW/dl <= c*n - f_ec*n < 0 where n > 0, since f_ec >= 1 > c; where
    n = 0, F + dF/dl = H2(e_det)*(s - x*exp(-x)) >= 0, so W + dW/dl <= 0.
    rate/t has the rate's sign, so once the rate is non-positive it stays
    so, and where it is positive it is t, falling, times a positive rate/t
    that does not rise: the rate is positive on a prefix of lengths and
    does not rise there.

    Twin rule: a twin (bb84_rate_dual) differs from this rate by
    b*rep_rate*q_1*(H2(e_1m) - H2(e_1d)), BB84's D with q_1 for the gain, as
    q_1 is proportional to it. So BB84's twin rule holds, for every mu.
    The error bound is bb84._error_scale's.
    """
    check_number("t", t, "in [0, 1]")
    terms = _signal(cfg.mu, keyed, t)
    return _combine(_constants(cfg, keyed, bounding), terms, None if bounding is None else _arm(None, bounding, t))


def _signal(mu: float, spd: SpdSpec, t: float) -> tuple[float, float, float, float]:
    """(Q_mu, E_mu, H2(E_mu), Q_1) of the keyed arm, with eta = t*eta_d: the
    signal gain Q_mu = y0 + 1 - exp(-eta*mu) and its QBER E_mu from one
    exp(-eta*mu), and the single-photon gain Q_1 = Y_1*mu*exp(-mu), where
    the yield Y_1 = y0 + eta is the ideal single-photon source's BB84 gain."""
    eta = t * spd.eta_d
    vacuum = math.exp(-eta * mu)
    q_mu = spd.y0 + 1.0 - vacuum
    if q_mu == 0.0:
        raise ZeroDivisionError("signal gain is zero; QBER undefined")
    e_mu = (E0 * spd.y0 + spd.e_det * (1.0 - vacuum)) / q_mu
    return q_mu, e_mu, binary_entropy(e_mu), (spd.y0 + eta) * mu * math.exp(-mu)


def _combine(constants, keyed_terms, bounding_terms) -> float:
    """The rate from bb84._constants, the keyed arm's terms and, unless None, the bounding arm's H2(e_1)."""
    sifted_rate, f_ec = constants
    q_mu, _, h_mu, q_1 = keyed_terms
    per_pulse = q_1 - f_ec * q_mu * h_mu
    if bounding_terms is not None:
        per_pulse -= q_1 * bounding_terms[2]
    return sifted_rate * per_pulse


#: Largest residual optimal_mu accepts from its closed form.
MU_RESIDUAL_TOL = 1e-10


def optimal_mu(e_det: float, f_ec: float) -> float:
    """Solve (1 - mu) * exp(-mu) = f_ec * H2(e_det) / (1 - H2(e_det)) for mu.

    The left side falls strictly from 1 to 0 as mu goes from 0 to 1, so a
    root exists and is unique whenever the right side lies in (0, 1). It is
    computed in closed form (_mu_root); the returned value has residual below
    MU_RESIDUAL_TOL.
    """
    check_number("e_det", e_det, "in (0, 0.5)")
    check_number("f_ec", f_ec, F_EC_RULE)
    h = binary_entropy(e_det)
    rhs = f_ec * h / (1.0 - h) if h < 1.0 else math.inf  # H2 rounds to 1 near e_det = 0.5
    if not 0.0 < rhs < 1.0:
        raise DomainError(
            f"no root: f_ec*H2(e_det)/(1-H2(e_det)) = {rhs} falls outside (0, 1)"
        )
    root = _mu_root(rhs)
    residual = abs((1.0 - root) * math.exp(-root) - rhs)
    if residual >= MU_RESIDUAL_TOL:
        raise DomainError(f"residual {residual} exceeds {MU_RESIDUAL_TOL}")
    return root


def _mu_root(rhs: float) -> float:
    """The root mu of (1 - mu) * exp(-mu) = rhs for rhs in (0, 1).

    With w = 1 - mu the equation is w * exp(w) = e * rhs, so w = W0(e * rhs),
    the principal branch of the Lambert W function (Corless et al., Adv.
    Comput. Math. 5, 329 (1996)), and W0 maps (0, e) onto (0, 1). Halley's
    iteration on w * exp(w) - z starts from log1p(z), within 0.32 of W0(z)
    there, and converges cubically: once a step is below 1e-8 * w, the error
    left is far below an ulp. It takes 1 to 4 steps across (0, 1); the loop
    is bounded, and optimal_mu's residual check would catch a miss. As rhs
    < 1, fl(e * rhs) is at most the float below e, whose W0 is about
    1 - 8.2e-17, nearer the float below 1 than 1 itself: mu > 0.
    """
    z = math.e * rhs
    w = math.log1p(z)
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * w:
            break
    return 1.0 - w
