import math

import pytest
from hypothesis import given, strategies as st

from dualdet.core import DomainError
from dualdet.practical import (
    accumulation_time,
    choice_probabilities,
    max_slow_probability,
    multi_pulse_qber,
)


def test_choice_probabilities_reference_point():
    p0, p1, pm = choice_probabilities(4e-4, 100)
    assert p0 == pytest.approx(0.9607817508172766, rel=1e-12)
    assert p1 == pytest.approx(0.03844664869216793, rel=1e-12)
    assert pm == pytest.approx(7.716004905555032e-4, rel=1e-10)


def test_choice_probabilities_edges():
    assert choice_probabilities(0.0, 50) == (1.0, 0.0, 0.0)
    p0, p1, pm = choice_probabilities(0.3, 1)
    assert (p0, p1) == (0.7, 0.3)
    assert pm == pytest.approx(0.0, abs=1e-16)


def test_choice_probabilities_validation():
    with pytest.raises(DomainError):
        choice_probabilities(-0.1, 10)
    with pytest.raises(DomainError):
        choice_probabilities(0.1, 0)
    with pytest.raises(DomainError):
        choice_probabilities(0.1, 2.5)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=500))
def test_choice_probabilities_sum_to_one_exactly(p, k):
    p0, p1, pm = choice_probabilities(p, k)
    assert p0 + p1 + pm == 1.0


def test_multi_pulse_window_probability_bound():
    # P_M stays within the second-order estimate's guard band for small k*p.
    for p in (1e-5, 1e-4, 1e-3):
        for k in (2, 10, 100):
            if k * p >= 0.1:
                continue
            _, _, pm = choice_probabilities(p, k)
            assert pm <= 0.5 * k * (k - 1) * p * p * (1.0 + 10.0 * k * p)


def test_multi_pulse_qber_values():
    assert multi_pulse_qber(4e-4, 100) == 9.9e-3
    assert multi_pulse_qber(1e-3, 100) == pytest.approx(2.475e-2, rel=1e-12)
    assert multi_pulse_qber(0.05, 1) == 0.0


def test_multi_pulse_qber_matches_windowed_ratio():
    # First-order formula vs the ratio of messed to useful detections.
    for p, k in [(1e-4, 100), (4e-4, 100), (1e-3, 20), (0.02, 2)]:
        assert p * k < 0.05
        _, p1, pm = choice_probabilities(p, k)
        ratio = pm / (2.0 * (pm + p1))
        assert multi_pulse_qber(p, k) == pytest.approx(ratio, rel=0.05)


def test_multi_pulse_qber_warns_outside_validity():
    with pytest.warns(UserWarning):
        multi_pulse_qber(0.01, 100)
    with pytest.warns(UserWarning):
        multi_pulse_qber(0.9, 1000)


def test_max_slow_probability():
    assert max_slow_probability(100, 0.01) == pytest.approx(4.040404040404040e-4, rel=1e-12)
    assert max_slow_probability(2, 0.01) == pytest.approx(0.04, rel=1e-12)
    assert max_slow_probability(100, 1e-9) == pytest.approx(0.0, abs=1e-10)
    # One pulse per window can never be ambiguous.
    assert max_slow_probability(1, 0.01) == math.inf
    with pytest.raises(DomainError):
        max_slow_probability(100, 0.3)
    with pytest.raises(DomainError):
        max_slow_probability(0, 0.01)


def test_max_slow_probability_consistent_with_qber():
    for k in (2, 10, 100, 1000):
        p_max = max_slow_probability(k, 0.01)
        assert multi_pulse_qber(p_max, k) == pytest.approx(0.01, rel=1e-12)


def test_accumulation_time_reference_point():
    # 21 dB channel, 0.16 receiver optics, 3 dB switch, 0.5 detector.
    overall = 10 ** -2.1 * 0.16 * 10 ** -0.3 * 0.5
    seconds = accumulation_time(4e-4, 1e9, 1.0, overall, 1e6)
    assert seconds == pytest.approx(7849.64509846744, rel=1e-12)
    assert 1.6 < seconds / 3600.0 < 2.6


def test_accumulation_time_scaling():
    base = accumulation_time(4e-4, 1e9, 1.0, 1e-3, 1e6)
    assert accumulation_time(8e-4, 1e9, 1.0, 1e-3, 1e6) == pytest.approx(base / 2.0, rel=1e-12)
    assert accumulation_time(4e-4, 2e9, 1.0, 1e-3, 1e6) == pytest.approx(base / 2.0, rel=1e-12)
    assert accumulation_time(4e-4, 1e9, 2.0, 1e-3, 1e6) == pytest.approx(base / 2.0, rel=1e-12)
    assert accumulation_time(4e-4, 1e9, 1.0, 2e-3, 1e6) == pytest.approx(base / 2.0, rel=1e-12)


def test_accumulation_time_edges():
    assert accumulation_time(4e-4, 1e9, 1.0, 1e-3, 0.0) == 0.0
    with pytest.raises(ZeroDivisionError):
        accumulation_time(0.0, 1e9, 1.0, 1e-3, 1e6)
    with pytest.raises(DomainError):
        accumulation_time(4e-4, 1e9, -1.0, 1e-3, 1e6)
    # A routing probability is at most 1, as for choice_probabilities.
    with pytest.raises(DomainError, match=r"^p must be in \[0, 1\], got 2.0$"):
        accumulation_time(2.0, 1e6, 1.0, 1e-3, 1e6)


def test_accumulation_time_past_the_float_range_is_refused():
    # 1e308 counts at 1e-4 counts/s would take 1e312 s, which is not a float.
    with pytest.raises(OverflowError, match=r"^accumulation time 1e\+308/0\.0001 s overflows the float range$"):
        accumulation_time(1e-10, 1e9, 1.0, 1e-3, 1e308)
    assert accumulation_time(1e-10, 1e9, 1.0, 1e-3, 1e300) == pytest.approx(1e304, rel=1e-12)


ACCUMULATION_ARGS = dict(p=4e-4, rep_rate=1e9, mu=1.0, overall_eta=1e-3, target_counts=1e6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize("name", list(ACCUMULATION_ARGS))
def test_accumulation_time_refuses_non_finite(name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be a finite number, got {bad!r}$"):
        accumulation_time(**{**ACCUMULATION_ARGS, name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, True])
@pytest.mark.parametrize(
    "call, args, name",
    [
        (choice_probabilities, dict(p=0.01, k=5), "p"),
        (multi_pulse_qber, dict(p=0.01, k=5), "p"),
        (max_slow_probability, dict(k=5, qber_budget=0.01), "qber_budget"),
    ],
)
def test_scheduling_refuses_non_finite(call, args, name, bad):
    with pytest.raises(DomainError, match=f"^{name} must be a finite number, got {bad!r}$"):
        call(**{**args, name: bad})


@pytest.mark.parametrize("call", [choice_probabilities, multi_pulse_qber])
def test_window_length_refuses_bool(call):
    with pytest.raises(DomainError, match="^k must be a positive integer, got True$"):
        call(0.01, True)
