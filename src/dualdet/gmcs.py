"""Gaussian-modulated coherent-state (CV) QKD rates, direct and reverse
reconciliation, against individual attacks.

All noises are referred to the channel input: transmission loss G shows up
as vacuum noise (1-G)/G, and detector excess noise is divided by G. The
dual-detector receiver measures with a quiet detector a small fraction of
the time and uses that arm's noise budget to bound the eavesdropper.
"""

from __future__ import annotations

import math

from .core import DomainError, GmcsSource, HomodyneSpec


class MismatchedEfficiencyError(DomainError):
    """Reverse reconciliation needs both homodyne detectors to share g_det.

    The eavesdropper bound on the receiver's data depends on the overall
    transmittance, so a quiet arm with a different efficiency says nothing
    about the keyed arm.
    """


def noise_budget(source: GmcsSource, det: HomodyneSpec, t: float) -> tuple[float, float, float]:
    """Input-referred noise budget (g, chi_vac, eps) of one detector arm.

    g = t*g_det is the arm's overall transmittance, with t the
    transmittance from the source to the detector. chi_vac = (1-g)/g is
    the vacuum noise from transmission loss and eps = eps_pre + eps_det/g
    the total excess noise; the equivalent input noise is chi = chi_vac + eps.
    A g so small that chi overflows (subnormal, or eps_det/g past the float
    range) is outside the model's domain: the rates would come out NaN.
    """
    g = t * det.g_det
    if g == 0.0:
        raise DomainError("overall transmittance is zero")
    chi_vac = (1.0 - g) / g
    eps = source.eps_pre + det.eps_det / g
    if not chi_vac + eps < math.inf:
        raise DomainError(f"overall transmittance {g!r} is too small: the input noise overflows")
    return g, chi_vac, eps


def _check_v_chi(v: float, chi: float) -> None:
    if not 1.0 <= v < math.inf:
        raise DomainError(f"v must be >= 1, got {v}")
    if not 0.0 <= chi < math.inf:
        raise DomainError(f"chi must be >= 0, got {chi}")


def mutual_info_ab(v: float, chi: float) -> float:
    """Mutual information (1/2)*log2[(v+chi)/(1+chi)] in bits per pulse.

    Symmetric between the two reconciliation directions, so it serves both
    the sender-referenced and receiver-referenced key maps.
    """
    _check_v_chi(v, chi)
    return 0.5 * math.log2((v + chi) / (1.0 + chi))


def info_ae(v: float, chi: float) -> float:
    """Eavesdropper information on the sender: (1/2)*log2[(v+1/chi)/(1+1/chi)].

    At chi = 0 the channel is lossless and noiseless and the expression's
    limit is 0 bits; that edge is returned directly. A subnormal chi, whose
    1/chi overflows, gives the limit (v - 1)*chi/(2 ln 2): with v <= 1e270
    (GmcsSource) it is within a relative (v - 1)*chi < 1e-38 of the value.
    """
    _check_v_chi(v, chi)
    if chi == 0.0:
        return 0.0
    inv = 1.0 / chi
    if inv == math.inf:
        return (v - 1.0) * chi / (2.0 * math.log(2.0))
    return 0.5 * math.log2((v + inv) / (1.0 + inv))


def info_be(v: float, chi: float, g: float) -> float:
    """Eavesdropper information on the receiver: (1/2)*log2[g^2*(v+chi)*(1/v+chi)].

    The argument is at least g^2, so it can only reach 0 by g^2 underflowing
    (about 7,750 km at 0.21 dB/km): there g is outside the model's domain.
    A g*chi past about 1e154 (a huge excess noise) overflows the argument;
    the logs of its factors are added instead, which stay finite as
    v <= 1e270 (GmcsSource).
    """
    _check_v_chi(v, chi)
    if not 0.0 < g <= 1.0:
        raise DomainError(f"g must be in (0, 1], got {g}")
    if chi == 0.0:
        # v*(1/v) rounds off exact 1; at chi = 0 the argument is exactly g^2.
        return math.log2(g)
    arg = g * g * (v + chi) * (1.0 / v + chi)
    if arg <= 0.0:
        raise DomainError(f"overall transmittance {g!r} is too small: its square underflows")
    if arg == math.inf:
        return math.log2(g) + 0.5 * (math.log2(v + chi) + math.log2(1.0 / v + chi))
    return 0.5 * math.log2(arg)


def gmcs_dr_rate_dual(keyed: HomodyneSpec, bounding: HomodyneSpec, source: GmcsSource, t: float) -> float:
    """Direct-reconciliation rate in bits/s with the keyed arm making the key.

    t is the transmittance from the source to either detector. The
    vacuum-noise term is shared (taken from the keyed arm); each arm
    contributes its own excess noise. A single-detector receiver passes
    one detector twice, and its noise budget is computed once.

    The rate falls strictly as t falls, so it turns from positive to
    non-positive at most once as the length grows. Each arm's input noise
    chi = (1 + eps_det)/g - 1 + eps_pre grows as g = t*g_det falls (the
    bounding arm's vacuum term uses the keyed g, which falls too).
    I_AB = (1/2)*log2[(v+chi)/(1+chi)] falls in chi since v > 1, and
    I_AE = (1/2)*log2[(v*chi+1)/(chi+1)] rises in chi, so with beta > 0
    beta*I_AB - I_AE falls strictly. So the rate is rep_rate, positive,
    times a bracket that falls with length: where the rate is positive it
    does not rise with length, and once it is non-positive it stays
    non-positive. Where it is non-positive, rate/t does not rise with length
    either: 1/t is positive and rises as t falls, and the bracket is <= 0
    and falls.

    Twin rule. A receiver with the same keyed detector, source and t but
    another bounding detector m (a twin) has this rate, with bounding
    detector o, minus D = rep_rate*(I_AE(chi_m) - I_AE(chi_o)), where
    chi_m - chi_o = k/t with k = eps_det_m/g_det_m - eps_det_o/g_det_o:
    D has the sign of k at every length. I_AE is concave and rising in chi, so
    t*D = rep_rate*k*S, where S is the slope of I_AE's chord between the two
    chi. Both chi fall as t grows, so S does not fall. So if D(L) > 0, then
    D(L') >= D(L)*t(L)/t(L') at every L' <= L.
    """
    terms = noise_budget(source, keyed, t)
    return _dr_combine(source, keyed, terms, terms if bounding is keyed else noise_budget(source, bounding, t))


def _dr_error_scale(source: GmcsSource, keyed: HomodyneSpec) -> float:
    """rep_rate*(1 + v + log2(v)) of the keyed detector, whose 2**-41 multiple
    bounds the DR rate's rounding error, up to 2**-1074 per rounding that
    underflows (|rate| <= rep_rate*log2(v)); finite, as v <= 1e270.

    With u = 2**-53, the computed g is off by a relative rho < 1,510u: t as in
    bb84._error_scale, and a g small enough to be subnormal but keep chi
    finite is off by under 5u more. That moves chi = (1 + eps_det)/g - 1 + eps_pre
    by at most (1 + chi)*rho, so I_AB by at most 0.72*rho and I_AE by at most
    0.72*(v - 1)*rho/(v*chi + 1), as dI/dchi is 0.72*(v - 1)/((v + chi)*(1 + chi))
    and 0.72*(v - 1)/((v*chi + 1)*(chi + 1)). The roundings of chi itself are
    relative (3u) and move each I by under 2.2u; the logs and the combine
    add under 10*(1 + log2(v))*u. In all the error is below
    1,100u*(1 + v) + 20u*(1 + log2(v)) < 2**-41*scale. A chi so small that
    1/chi overflows takes info_ae's limit, off by under 1e-38 of I_AE and a
    few roundings that underflow.
    """
    return keyed.rep_rate * (1.0 + source.v + math.log2(source.v))


def _dr_combine(source: GmcsSource, keyed: HomodyneSpec, keyed_terms, bounding_terms) -> float:
    """The DR rate from two noise budgets: the keyed arm's chi_vac, each arm's eps."""
    _, chi_vac, eps_keyed = keyed_terms
    return keyed.rep_rate * (
        source.beta * mutual_info_ab(source.v, chi_vac + eps_keyed)
        - info_ae(source.v, chi_vac + bounding_terms[2])
    )


def gmcs_rr_rate_dual(keyed: HomodyneSpec, bounding: HomodyneSpec, source: GmcsSource, t: float) -> float:
    """Reverse-reconciliation rate in bits/s with the keyed arm making the key.

    Arguments as for gmcs_dr_rate_dual. Requires identical detection
    efficiencies on the two arms; otherwise the bounding arm's
    eavesdropper bound does not transfer to the keyed arm. I_BE's argument
    is not monotone in g in general, so no single sign change is claimed.
    """
    if keyed.g_det != bounding.g_det:
        raise MismatchedEfficiencyError(
            f"detector efficiencies differ: {keyed.g_det} vs {bounding.g_det}"
        )
    terms = noise_budget(source, keyed, t)
    return _rr_combine(source, keyed, terms, terms if bounding is keyed else noise_budget(source, bounding, t))


def _rr_combine(source: GmcsSource, keyed: HomodyneSpec, keyed_terms, bounding_terms) -> float:
    """The RR rate from two noise budgets: the keyed arm's g and chi_vac, each arm's eps."""
    g, chi_vac, eps_keyed = keyed_terms
    return keyed.rep_rate * (
        source.beta * mutual_info_ab(source.v, chi_vac + eps_keyed)
        - info_be(source.v, chi_vac + bounding_terms[2], g)
    )
