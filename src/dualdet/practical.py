"""Scheduling limits for the slow detector arm.

A slow detector with response window t_det spanning k signal periods
cannot tell which of the k pulses it fired on when more than one was
routed to it. That caps the routing probability p from above; the need
to accumulate parameter-estimation statistics in reasonable time bounds
it from below.
"""

from __future__ import annotations

import math
import warnings

from .core import DomainError, check_number

#: Error rate of a detection assigned to a random pulse within the window:
#: half the assignments hit the right pulse, the rest err half the time.
MESSED_DETECTION_ERROR = 0.25

#: Above this value of k*p the first-order expressions degrade.
KP_VALIDITY_LIMIT = 0.1

#: Domains of a routing probability, and of a QBER budget: below saturation.
_P_RULE, _QBER_BUDGET_RULE = "in [0, 1]", f"in (0, {MESSED_DETECTION_ERROR})"


def _check_k(k: int) -> None:
    if type(k) is not int or k < 1:  # a bool is an int too
        raise DomainError(f"k must be a positive integer, got {k}")


def choice_probabilities(p: float, k: int) -> tuple[float, float, float]:
    """Probabilities that a response window holds 0, 1, or >1 routed pulses.

    Exact binomial values: P0 = (1-p)^k, P1 = k*p*(1-p)^(k-1), and
    PM = 1 - P0 - P1. The three sum to 1.0 exactly as floats.
    """
    check_number("p", p, _P_RULE)
    _check_k(k)
    p0 = (1.0 - p) ** k
    p1 = k * p * (1.0 - p) ** (k - 1)
    singles = p0 + p1
    return p0, p1, 1.0 - singles


def multi_pulse_qber(p: float, k: int) -> float:
    """First-order QBER added by ambiguous multi-pulse windows: (k-1)*p/4.

    Derived from P_err/[4*(P_err + P_sig)] with P_sig and P_err the
    single- and double-selection detection probabilities; the detection
    efficiency factors cancel. Valid for k*p well below 1; warns outside
    that regime and when the result reaches the 0.25 saturation level.
    """
    check_number("p", p, _P_RULE)
    _check_k(k)
    if k * p > KP_VALIDITY_LIMIT:
        warnings.warn(
            f"k*p = {k * p:.3g} exceeds {KP_VALIDITY_LIMIT}; first-order QBER "
            "estimate is unreliable",
            stacklevel=2,
        )
    qber = (k - 1) * p / 4.0
    if qber >= MESSED_DETECTION_ERROR:
        warnings.warn(
            f"estimated QBER {qber:.3g} is at or above the 0.25 saturation "
            "level; outside model validity",
            stacklevel=2,
        )
    return qber


def max_slow_probability(k: int, qber_budget: float) -> float:
    """Largest routing probability keeping the multi-pulse QBER in budget.

    Inverts (k-1)*p/4 <= qber_budget. For k = 1 a window never holds a
    second pulse, so there is no constraint and infinity is returned.
    """
    _check_k(k)
    check_number("qber_budget", qber_budget, _QBER_BUDGET_RULE)
    if k == 1:
        return math.inf
    return 4.0 * qber_budget / (k - 1)


def accumulation_time(
    p: float, rep_rate: float, mu: float, overall_eta: float, target_counts: float
) -> float:
    """Seconds until the slow arm has collected target_counts detections.

    overall_eta covers everything between source and click: channel,
    receiver optics, switch loss, and the slow detector's efficiency.
    """
    for name, value, rule in (("target_counts", target_counts, ">= 0"), ("p", p, _P_RULE),
                              ("rep_rate", rep_rate, ">= 0"), ("mu", mu, ">= 0"),
                              ("overall_eta", overall_eta, ">= 0")):
        check_number(name, value, rule)
    if target_counts == 0.0:
        return 0.0
    rate = p * rep_rate * mu * overall_eta
    if rate == 0.0:
        raise ZeroDivisionError("slow-arm count rate is zero; time diverges")
    return target_counts / rate
