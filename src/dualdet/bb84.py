"""BB84 key rates for an ideal single-photon source.

The rate bound charges f_ec*H2(e) for error correction and H2(e) for
privacy amplification. In the dual-detector receiver the privacy
amplification term uses the error rate seen by the quiet (slow) detector,
which bounds the eavesdropper's information for the raw key produced by
the fast detector. A single-detector receiver is the same formula with one
detector on both arms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import E0, DomainError, SpdSpec, binary_entropy, check_fields, check_number

BASIS_FACTORS = (0.5, 1.0)
F_EC_RULE = ">= 1"


def check_sifting(cfg) -> None:
    """Shared range check of basis_factor and f_ec for the BB84 configs."""
    if cfg.basis_factor not in BASIS_FACTORS:
        raise DomainError(f"basis_factor must be 0.5 or 1.0, got {cfg.basis_factor}")
    check_number("f_ec", cfg.f_ec, F_EC_RULE)


@dataclass(frozen=True)
class Bb84Config:
    """Protocol constants: sifting factor and error-correction efficiency.

    basis_factor is 1/2 for standard basis choice, 1 for the efficient
    variant with biased bases. f_ec >= 1 multiplies the Shannon limit.
    """

    basis_factor: float
    f_ec: float

    def __post_init__(self) -> None:
        check_fields(self)
        check_sifting(self)


def bb84_gain(spd: SpdSpec, t: float) -> float:
    """Detection probability per emitted pulse: Q = y0 + t*eta_d, with t the
    transmittance from the source to the detector."""
    return spd.y0 + t * spd.eta_d


def bb84_qber(spd: SpdSpec, t: float) -> float:
    """Error rate of detected bits; dark counts contribute at rate E0."""
    return _arm(None, spd, t)[1]


def _arm(_, spd: SpdSpec, t: float) -> tuple[float, float, float]:
    """(gain, QBER, H2(QBER)) of one detector arm, the gain computed once; a
    BB84 arm reads nothing from its config, so the first argument is unused.
    The terms of a BB84 arm and of decoy's bounding arm. The gain is
    bb84_gain's, kept apart: at zero gain bb84_gain returns 0.0, where this raises."""
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

    t is the transmittance from the source to either detector. May be
    negative when the error-correction and privacy-amplification costs
    exceed one bit per detection; callers clamp for plotting. A
    single-detector receiver passes one detector twice: its arm is computed once.

    The rate turns from positive to non-positive at most once as the length
    grows (t falls). Each arm's QBER e(t) = (E0*y0 + e_det*t*eta_d)/(y0 + t*eta_d)
    is a weighted mean of E0 = 1/2 and e_det <= 1/2, so it lies in [0, 1/2],
    and de/dt = eta_d*y0*(e_det - 1/2)/(y0 + t*eta_d)^2 <= 0. H2 increases
    on [0, 1/2], so 1 - f_ec*H2(e_keyed) - H2(e_bounding) does not rise with
    the length, and the rate has its sign: the gain is > 0 wherever the
    QBER is defined.
    """
    terms = _arm(None, keyed, t)
    return _combine(cfg, keyed, terms, terms if bounding is keyed else _arm(None, bounding, t))
