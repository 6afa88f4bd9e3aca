"""BB84 key rates for an ideal single-photon source.

The rate bound charges f_ec*H2(e) for error correction and H2(e) for
privacy amplification. In the dual-detector receiver the privacy
amplification term uses the error rate seen by the quiet (slow) detector,
which bounds the eavesdropper's information for the raw key produced by
the fast detector. A single-detector receiver is the same formula with one
detector on both arms.
"""

from __future__ import annotations

from .core import E0, DomainError, Record, SpdSpec, binary_entropy, check_number

BASIS_FACTORS = (0.5, 1.0)
F_EC_RULE = "in [1, 10]"


def check_sifting(cfg) -> None:
    """Shared range check of basis_factor and f_ec for the BB84 configs."""
    if cfg.basis_factor not in BASIS_FACTORS:
        raise DomainError(f"basis_factor must be 0.5 or 1.0, got {cfg.basis_factor}")
    check_number("f_ec", cfg.f_ec, F_EC_RULE)


class Bb84Config(Record):
    """Protocol constants: sifting factor and error-correction efficiency.

    basis_factor is 1/2 for standard basis choice, 1 for the efficient
    variant with biased bases. f_ec in [1, 10] multiplies the Shannon limit;
    no error-correction code needs more than about 2.
    """

    basis_factor: float
    f_ec: float

    RULES = {}  # check_sifting checks both fields

    def __post_init__(self) -> None:
        check_sifting(self)


def _arm(_, spd: SpdSpec, t: float) -> tuple[float, float, float]:
    """(gain, QBER, H2(QBER)) of one detector arm, with t the transmittance
    from the source to the detector: the gain Q = y0 + t*eta_d is the
    detection probability per pulse, and dark counts err at rate E0. A BB84
    arm reads nothing from its config, so the first argument is unused. The
    terms of a BB84 arm and of decoy's bounding arm."""
    eta = t * spd.eta_d
    gain = spd.y0 + eta
    if gain == 0.0:
        raise ZeroDivisionError("gain is zero; QBER undefined")
    e = (E0 * spd.y0 + spd.e_det * eta) / gain
    return gain, e, binary_entropy(e)


def _combine(cfg: Bb84Config, keyed: SpdSpec, keyed_terms, bounding_terms) -> float:
    """The rate from the keyed arm's gain and H2 and the bounding arm's H2."""
    gain, _, h_keyed = keyed_terms
    return cfg.basis_factor * keyed.rep_rate * gain * (1.0 - cfg.f_ec * h_keyed - bounding_terms[2])


def bb84_rate_dual(keyed: SpdSpec, bounding: SpdSpec, cfg: Bb84Config, t: float) -> float:
    """Key rate in bits/s with `keyed` making the key and `bounding` bounding leakage.

    t, in [0, 1], is the transmittance from the source to either detector. May be
    negative when the error-correction and privacy-amplification costs
    exceed one bit per detection; callers clamp for plotting. A
    single-detector receiver passes one detector twice: its arm is computed once.

    The rate turns from positive to non-positive at most once as the length
    grows (t falls). Each arm's QBER e(t) = (E0*y0 + e_det*t*eta_d)/(y0 + t*eta_d)
    is a weighted mean of E0 = 1/2 and e_det <= 1/2, so it lies in [0, 1/2],
    and de/dt = eta_d*y0*(e_det - 1/2)/(y0 + t*eta_d)^2 <= 0. H2 increases
    on [0, 1/2], so 1 - f_ec*H2(e_keyed) - H2(e_bounding) does not rise with
    the length, and the rate has its sign: the gain is > 0 wherever the
    QBER is defined. The rate is that gain, positive and falling with
    length, times a bracket that does not rise with length. So the rate over
    the keyed gain, b*rep_rate*bracket, does not rise with length in either
    sign: the normalizer rule, with N = y0 + eta_d*t of the keyed detector
    (scenario._PROTOCOLS). Where the rate is positive it does not rise with
    length, and once it is non-positive it stays non-positive. Where it is
    non-positive, rate/t does not rise with length either: rate/t =
    b*rep_rate*(y0/t + eta_d)*bracket, a factor >= 0 that rises as t falls
    times a bracket <= 0 that does not rise, and such a product does not rise.

    Twin rule. A receiver with the same keyed detector, config and t but
    another bounding detector m (a twin) has this rate, with bounding
    detector o, minus D = b*rep_rate*gain*(H2(e_m) - H2(e_o)). With eta_x,
    y0_x and e_det_x the fields of detector x and den_x = y0_x + eta_x*t,
    e_m - e_o = t*l(t)/(den_m*den_o), where
    l(t) = eta_m*eta_o*(e_det_m - e_det_o)*t + eta_o*y0_m*(E0 - e_det_o) - eta_m*y0_o*(E0 - e_det_m),
    so D changes sign at most once. If e_det_m >= e_det_o (_noisier), l does
    not fall as t grows, and t*D = b*rep_rate*gain*S*l*t^2/(den_m*den_o), where S
    is the slope of H2's chord from e_o to e_m: it does not fall as t grows,
    as H2 is concave and both QBERs fall. Where D > 0, every factor is >= 0
    and none falls as t grows. So if D(L) > 0, then D(L') >= D(L)*t(L)/t(L')
    at every L' <= L.
    """
    check_number("t", t, "in [0, 1]")
    terms = _arm(None, keyed, t)
    return _combine(cfg, keyed, terms, terms if bounding is keyed else _arm(None, bounding, t))


def _noisier(dual: SpdSpec, member: SpdSpec) -> bool:
    """Whether a twin with bounding detector member may be compared with a
    receiver bounded by dual: member's e_det is at least dual's, so l(t) in
    bb84_rate_dual's twin rule does not fall as t grows."""
    return member.e_det >= dual.e_det


def _error_scale(cfg, keyed: SpdSpec) -> float:
    """rep_rate*2*(2 + f_ec) of the keyed detector: a bound on |rate| (the
    gain is <= 2 and the bracket in [-(1 + f_ec), 1]) whose 2**-41 multiple
    bounds the rate's rounding error, for BB84 and for decoy at every mu.

    The bound holds where each arm's gain is >= 2**-1000
    (scenario._proof_length), up to 2**-1074 per rounding that underflows.
    With u = 2**-53, the computed t = 10**(-alpha*L/10)*factor is off by a
    relative rho < 1,500u: the exponent's two roundings are multiplied by
    ln(10)*|exponent| <= 745 where t > 0; the pow and the products add a few
    u; an underflowed t is off by at most 2**-1074, below 2**-74 of a gain.
    Such an error moves the gain by rho*gain and each H2(e) by at most 0.53*rho,
    since |dH2(e)/d ln t| = |H2'(e)|*w*(1 - w)*(1/2 - e_det) <= 0.53, with
    w = eta/gain and e >= (1 - w)/2. So the rate moves by at most
    1.53*rho*scale < 2,300u*scale. The kernel's other roundings and libm
    calls add under 100u*scale. Decoy is the same at every mu, with Q_1 <= 2/e
    and Q_mu <= 2 in the bracket. Q_1 moves with t as the gain does. With
    x = mu*t*eta_d and s = 1 - exp(-x), d ln Q_mu/d ln t = x*exp(-x)/(y0 + s) <= 1,
    and E_mu = 1/2 - (1/2 - e_det)*w, w = s/(y0 + s), |dw/d ln t| <= w*(1 - w),
    so H2(E_mu) moves by at most 0.53*rho. exp(-x) is off by under u
    absolutely (x*exp(-x) <= 1/e carries the product's rounding), so s is off
    by under 2u and Q_mu by under 3u (y0 + 1.0); Q_mu*H2(E_mu) moves by
    -log2(1 - E_mu) <= 1 per unit of Q_mu and by e_det*H2'(E_mu) <= 0.53 per
    unit of s in E_mu's numerator, as E_mu >= e_det: so f_ec*Q_mu*H2(E_mu) is
    off by under 5*f_ec*u plus the same relative terms. In all, the error is
    below 2,400u*scale < 2**-41*scale.
    """
    return keyed.rep_rate * 2.0 * (2.0 + cfg.f_ec)
