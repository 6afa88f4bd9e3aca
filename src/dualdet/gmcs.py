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
    limit is 0 bits; that edge is returned directly.
    """
    _check_v_chi(v, chi)
    if chi == 0.0:
        return 0.0
    inv = 1.0 / chi
    return 0.5 * math.log2((v + inv) / (1.0 + inv))


def info_be(v: float, chi: float, g: float) -> float:
    """Eavesdropper information on the receiver: (1/2)*log2[g^2*(v+chi)*(1/v+chi)].

    The argument is at least g^2, so it can only reach 0 by g^2 underflowing
    (about 7,750 km at 0.21 dB/km): there g is outside the model's domain.
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
    beta*I_AB - I_AE falls strictly.
    """
    _, chi_vac, eps_keyed = noise_budget(source, keyed, t)
    eps_bounding = eps_keyed if bounding is keyed else noise_budget(source, bounding, t)[2]
    return keyed.rep_rate * (
        source.beta * mutual_info_ab(source.v, chi_vac + eps_keyed)
        - info_ae(source.v, chi_vac + eps_bounding)
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
    g, chi_vac, eps_keyed = noise_budget(source, keyed, t)
    eps_bounding = eps_keyed if bounding is keyed else noise_budget(source, bounding, t)[2]
    return keyed.rep_rate * (
        source.beta * mutual_info_ab(source.v, chi_vac + eps_keyed)
        - info_be(source.v, chi_vac + eps_bounding, g)
    )
