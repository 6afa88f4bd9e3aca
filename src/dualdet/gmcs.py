"""Gaussian-modulated coherent-state (CV) QKD rates, direct and reverse
reconciliation, against individual attacks.

The model refers all noises to the channel input: transmission loss G shows
up as vacuum noise (1-G)/G, and detector excess noise is divided by G.
Each kernel's docstring states its informations in that input noise chi,
then computes the same rate multiplied through by G (the transmittance
form), where every term is of order 1, so a rate exists at every
transmittance in [0, 1]. The dual-detector receiver measures with a quiet
detector a small fraction of the time and uses that arm's excess noise to
bound the eavesdropper.
"""

from __future__ import annotations

import math

from .core import DomainError, GmcsSource, HomodyneSpec, check_number


class MismatchedEfficiencyError(DomainError):
    """Reverse reconciliation needs both homodyne detectors to share g_det.

    The eavesdropper bound on the receiver's data depends on the overall
    transmittance, so a quiet arm with a different efficiency says nothing
    about the keyed arm.
    """


def _arm(source: GmcsSource, det: HomodyneSpec, t: float) -> float:
    """g = t*g_det, the overall transmittance of one detector arm: all of the arm that varies with t. Its
    excess noise is fixed per detector, and _constants reads it."""
    return t * det.g_det


def gmcs_dr_rate_dual(keyed: HomodyneSpec, bounding: HomodyneSpec, source: GmcsSource, t: float) -> float:
    """Direct-reconciliation rate in bits/s with the keyed arm making the key.

    t, in [0, 1], is the transmittance from the source to either detector. The
    vacuum-noise term is shared (taken from the keyed arm); each arm
    contributes its own excess noise. A single-detector receiver passes
    one detector twice.

    The transmittance form. With g = t*g_det of the keyed arm, in [0, 1],
    a = 1 + eps_det of the keyed arm, e = eps_pre, p = v - 1 + e,
    n = eps_det/g_det of the bounding arm and c = 1 + n*g_det_k, each input
    noise chi times g is a sum of non-negative terms: g*(v + chi_k) = a + p*g,
    g*(1 + chi_k) = a + e*g and x = g*chi_b = (1 - g) + n*g_det_k + e*g, so
    I_AB = (1/2)*log2[(v + chi_k)/(1 + chi_k)] = (1/2)*log2[(a + p*g)/(a + e*g)]
    and I_AE = (1/2)*log2[(v*chi_b + 1)/(chi_b + 1)] = (1/2)*log2[(v*x + g)/(c + e*g)],
    defined on all of [0, 1]; at g = 0 the rate is -rep_rate*log2(v)/2.

    The normalizer rule, with N = 1: the rate falls strictly with length, in
    either sign, so it changes sign at most once.
    d ln[(a + p*g)/(a + e*g)]/dg = a*(p - e)/((a + p*g)*(a + e*g)) > 0, as
    p - e = v - 1 > 0: I_AB rises strictly with g. As v*x + g = v*(c + e*g) - (v - 1)*g,
    I_AE = phi(y), where phi(y) = (1/2)*log2(v - (v - 1)*y) falls and is
    concave on [0, 1] (its argument is affine and >= 1 as y <= g/c <= 1) and
    y = g/(c + e*g) rises strictly with g (dy/dg = c/(c + e*g)^2). So with
    beta > 0 the bracket beta*I_AB - I_AE falls strictly with length, and the
    rate is rep_rate times it. Where the rate is non-positive, rate/t does not
    rise with length either: 1/t is positive and rises as t falls, and the
    bracket is <= 0 and falls.

    Twin rule. A receiver with the same keyed detector, source and t but
    another bounding detector m (a twin) has this rate, with bounding
    detector o, minus D = rep_rate*(phi(y_m) - phi(y_o)) = rep_rate*(-S)*(y_o - y_m),
    where S < 0 is the slope of phi's chord between y_o and y_m, and
    y_o - y_m = g*g_det_k*k/((c_m + e*g)*(c_o + e*g)) with
    k = eps_det_m/g_det_m - eps_det_o/g_det_o: D has the sign of k at every
    g > 0, and is 0 at g = 0. t*D = rep_rate*(-S)*k*g^2/((c_m + e*g)*(c_o + e*g)),
    where each g/(c + e*g) rises with g, and -S does not fall as both y rise
    (phi is concave). So where D > 0, no factor falls as t grows: if
    D(L) > 0, then D(L') >= D(L)*t(L)/t(L') at every L' <= L.
    """
    check_number("t", t, "in [0, 1]")
    return _dr_combine(_constants(source, keyed, bounding), _arm(source, keyed, t), None)


def _dr_error_scale(source: GmcsSource, keyed: HomodyneSpec) -> float:
    """rep_rate*(1 + v + log2(v)) of the keyed detector, whose 2**-41 multiple
    bounds the DR rate's rounding error at every g in [0, 1], up to 2**-1074
    per rounding that underflows (|rate| <= rep_rate*log2(v)); finite, as
    v <= 1e270.

    With u = 2**-53, a normal computed g is off by a relative rho < 1,510u
    (t as in bb84._error_scale, and the product), a subnormal one by at most
    2**-1063. In gmcs_dr_rate_dual's terms,
    g*dI_AB/dg = [p*g/(a + p*g) - e*g/(a + e*g)]/(2 ln 2) is in [0, 0.73), and
    -g*dI_AE/dg = (v - 1)*y*c/((c + e*g)*(v - (v - 1)*y))/(2 ln 2) <= 0.73*(v - 1),
    so rho moves the rate by under 0.73*v*rho*rep_rate < 1,100u*v*rep_rate.
    Both |dI/dg| are at most 0.73*(v - 1) < 2**897, so a subnormal g's error
    moves them by under 2**-165. Every sum in the rate adds non-negative
    terms, so the roundings leave its two arguments within a relative 7u and
    11u (n*g_det_k carries 2u); with the logs and the combine they move the
    rate by under (14u + 4u*log2(v))*rep_rate, a log2 being off by an ulp of
    its result. In all the error is below 1,100u*scale < 2**-41*scale.
    """
    return keyed.rep_rate * (1.0 + source.v + math.log2(source.v))


def _constants(source: GmcsSource, keyed: HomodyneSpec, bounding: HomodyneSpec) -> tuple[float, ...]:
    """(rep_rate, beta, a = 1 + eps_det, p = v - 1 + e, e = eps_pre, eps_det_b/g_det_b*g_det_k, v, 1/v + e):
    what a DR or RR combine reads from the source and the detectors, each a parenthesised subexpression of its
    formula, so no rounding moves; all the keyed detector's but the bounding one's noise (DR's n, RR's eps_b)."""
    e, v = source.eps_pre, source.v
    return (keyed.rep_rate, source.beta, 1.0 + keyed.eps_det, v - 1.0 + e, e,
            bounding.eps_det / bounding.g_det * keyed.g_det, v, 1.0 / v + e)


def _dr_combine(constants, g, _) -> float:
    """The DR rate from the scenario's _constants and the keyed arm's g (gmcs_dr_rate_dual)."""
    rep_rate, beta, a, p, e, n, v, _ = constants
    eg = e * g
    return rep_rate * (beta * (0.5 * math.log2((a + p * g) / (a + eg)))
                       - 0.5 * math.log2((v * ((1.0 - g) + n + eg) + g) / (1.0 + n + eg)))


def gmcs_rr_rate_dual(keyed: HomodyneSpec, bounding: HomodyneSpec, source: GmcsSource, t: float) -> float:
    """Reverse-reconciliation rate in bits/s with the keyed arm making the key.

    Arguments as for gmcs_dr_rate_dual. Requires identical detection
    efficiencies on the two arms; otherwise the bounding arm's
    eavesdropper bound does not transfer to the keyed arm.

    The transmittance form. Both arms share g = t*g_det in [0, 1]. With
    a_k = 1 + eps_det of the keyed arm, a_b that of the bounding arm,
    e = eps_pre, p = v - 1 + e and s = 1/v - 1 + e: g*(v + chi_k) = a_k + p*g,
    g*(1 + chi_k) = a_k + e*g and
    g^2*(v + chi_b)*(1/v + chi_b) = (a_b + p*g)*(a_b + s*g), so
    I_AB = (1/2)*log2[(a_k + p*g)/(a_k + e*g)] and
    I_BE = (1/2)*[log2(a_b + p*g) + log2(a_b + s*g)], where a_b + s*g is
    computed as (1 - g) + eps_det_b + (1/v + e)*g, a sum of non-negative
    terms. Both are defined on all of [0, 1]; at g = 0 the rate is
    -rep_rate*log2(a_b).

    The normalizer rule, with N = t: rate/t does not rise with length,
    whatever its sign, and a positive rate falls: the rate is positive on a
    prefix of lengths and changes sign at most once. In natural-log units
    F(g) = 2*ln(2)*rate/rep_rate is
    beta*[ln(1 + x_p) - ln(1 + x_e)] - 2*ln(a_b) - ln(1 + y_p) - ln(1 + y_s),
    with x_p = p*g/a_k, x_e = e*g/a_k, y_p = p*g/a_b and y_s = s*g/a_b. Let
    c(x) = ln(1 + x) - x/(1 + x), which is >= 0 for x > -1 and rises for
    x >= 0. As g*d ln(1 + x)/dg = x/(1 + x) for each of these x,
    K = g*F' - F = c(y_p) - beta*c(x_p) + beta*c(x_e) + c(y_s) + 2*ln(a_b).
    Here c(y_p) >= c(x_p) - ln(a_b): if a_k >= a_b, then y_p >= x_p >= 0 and
    c rises; if not, c(x_p) - c(y_p) <= ln(x_p/y_p) = ln(a_b/a_k) <= ln(a_b),
    as c'(x) = x/(1 + x)^2 <= 1/x. Then c(x_p) >= beta*c(x_p) and
    c(x_e) >= 0; a_b + s*g >= 1 - g + g/v > 0 as g <= 1, so 1 + y_s > 0 and
    c(y_s) >= 0. So K >= ln(a_b) >= 0, and (F/g)' = K/g^2 >= 0 on (0, 1]:
    F/g, a positive multiple of rate/t, does not rise as g falls, that is
    with length. Where F > 0, g*F' = K + F > 0, so the rate falls with
    length. The error bound is _rr_error_scale's.
    """
    check_number("t", t, "in [0, 1]")
    if keyed.g_det != bounding.g_det:
        raise MismatchedEfficiencyError(
            f"detector efficiencies differ: {keyed.g_det} vs {bounding.g_det}"
        )
    return _rr_combine(_constants(source, keyed, bounding), _arm(source, keyed, t), None)


def _rr_error_scale(source: GmcsSource, keyed: HomodyneSpec, bounding: HomodyneSpec) -> float:
    """rep_rate*(2 + v + log2(v) + log2(1 + eps_det) + log2(1 + eps_pre)), with
    the keyed detector's rep_rate and the bounding detector's eps_det, whose
    2**-41 multiple bounds the RR rate's rounding error at every g in [0, 1],
    up to 2**-1074 per rounding that underflows. Finite, as v <= 1e270 and
    the log2 of a float is at most 1,024.

    With u = 2**-53, g is off as in _dr_error_scale. In gmcs_rr_rate_dual's
    terms, F moves by at most |g*F'| per unit of |ln g|, and |g*F'| <= 2 + v
    on [0, 1]: each x/(1 + x) with x >= 0 is in [0, 1), and where s < 0,
    |y_s|/(1 + y_s) <= (1 - 1/v)*g/(1 - g + g/v) <= v - 1. So a normal g's
    error moves the rate by at most rep_rate*0.73*(2 + v)*rho
    < 1,100u*(2 + v)*rep_rate. |F'| <= 2*p + e + max(e + 1, v) < 2**899
    (eps_pre <= 1e30), so a subnormal g's error moves F by under 2**-164.
    Every sum adds non-negative terms, so each argument of a log is off by a
    relative under 7u (a_b from n*g_det carries 3u); each log2 adds an ulp
    of its result, and the combine 2u of its terms: under
    11u + 8u*Lambda in all, with
    Lambda = log2(v) + log2(1 + eps_det) + log2(1 + eps_pre) >= |I_AB|, |I_BE|, as
    1/v <= a_b + s*g <= a_b + e and 1 <= a_b + p*g <= v*(a_b + e), and
    a_b + e <= (1 + eps_det)*(1 + eps_pre). In all the error is below
    1,100u*(2 + v) + 11u + 8u*Lambda, under 1,100u*scale < 2**-41*scale.
    """
    return keyed.rep_rate * (2.0 + source.v + math.log2(source.v) + math.log2(1.0 + bounding.eps_det)
                             + math.log2(1.0 + source.eps_pre))


def _rr_combine(constants, g, _) -> float:
    """The RR rate from the scenario's _constants and the shared g (gmcs_rr_rate_dual)."""
    rep_rate, beta, a, p, e, eps_b, _, s = constants
    pg = p * g
    info = 0.5 * (math.log2(1.0 + eps_b + pg) + math.log2((1.0 - g) + eps_b + s * g))
    return rep_rate * (beta * (0.5 * math.log2((a + pg) / (a + e * g))) - info)
