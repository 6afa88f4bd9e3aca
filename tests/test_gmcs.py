import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from dualdet.core import DomainError, GmcsSource, HomodyneSpec, channel_transmittance, db_to_transmittance
from dualdet.gmcs import (
    MismatchedEfficiencyError,
    gmcs_dr_rate_dual,
    gmcs_rr_rate_dual,
    info_ae,
    info_be,
    mutual_info_ab,
    noise_budget,
)

FAST = HomodyneSpec(rep_rate=82e6, g_det=0.8, eps_det=0.43)
QUIET = HomodyneSpec(rep_rate=1e6, g_det=0.8, eps_det=0.01)
SOURCE = GmcsSource(v=40.0, beta=1.0, eps_pre=0.05)
SOURCE_REALISTIC = GmcsSource(v=20.0, beta=0.8, eps_pre=0.05)


def t_at(length_km):
    return channel_transmittance(0.21, length_km)


def dr_single(source, det, t):
    """Single-detector rate: the detector on both arms, no switch."""
    return gmcs_dr_rate_dual(det, det, source, t)


def rr_single(source, det, t):
    return gmcs_rr_rate_dual(det, det, source, t)


def chi_of(source, det, t):
    """Equivalent input noise chi = chi_vac + eps of one arm without a switch."""
    _, chi_vac, eps = noise_budget(source, det, t)
    return chi_vac + eps


def mp_half_log2(x):
    return float(mpmath.log(x, 2) / 2)


def test_noise_budget_at_zero_length():
    g, chi_vac, _ = noise_budget(SOURCE, FAST, t_at(0.0))
    # chi = (1-0.8)/0.8 + 0.05 + 0.43/0.8 = 0.25 + 0.05 + 0.5375
    assert g == pytest.approx(0.8, rel=1e-15)
    assert chi_vac == pytest.approx(0.25, rel=1e-12)
    assert chi_of(SOURCE, FAST, t_at(0.0)) == pytest.approx(0.8375, rel=1e-12)
    assert chi_of(SOURCE, QUIET, t_at(0.0)) == pytest.approx(0.3125, rel=1e-12)


def test_noise_budget_lossless_noiseless():
    source = GmcsSource(v=10.0, beta=1.0, eps_pre=0.0)
    det = HomodyneSpec(rep_rate=1e6, g_det=1.0, eps_det=0.0)
    _, chi_vac, _ = noise_budget(source, det, 1.0)
    assert chi_of(source, det, 1.0) == 0.0
    assert chi_vac == 0.0


def test_noise_budget_switch_inclusion():
    with_switch = noise_budget(SOURCE, FAST, t_at(10.0) * db_to_transmittance(3.0))
    without = noise_budget(SOURCE, FAST, t_at(10.0))
    assert with_switch[0] == pytest.approx(without[0] * 10 ** -0.3, rel=1e-12)
    assert with_switch[1] > without[1]


def test_chi_vac_decreasing_in_transmittance():
    budgets = [noise_budget(SOURCE, FAST, t_at(length)) for length in (0.0, 5.0, 20.0, 50.0)]
    chi_vacs = [b[1] for b in budgets]
    assert all(b > a for a, b in zip(chi_vacs, chi_vacs[1:]))


def test_mutual_info_ab_values():
    assert mutual_info_ab(1.0, 0.3) == 0.0
    assert mutual_info_ab(40.0, 0.8375) == pytest.approx(
        mp_half_log2(mpmath.mpf("40.8375") / mpmath.mpf("1.8375")), rel=1e-12
    )
    assert mutual_info_ab(40.0, 0.8375) == pytest.approx(2.237039197300849, rel=1e-12)
    assert mutual_info_ab(40.0, 0.3125) == pytest.approx(2.470418963765928, rel=1e-12)
    with pytest.raises(DomainError):
        mutual_info_ab(0.99, 0.3)


def test_mutual_info_ab_monotonicity():
    vs = [2.0, 10.0, 40.0, 100.0]
    rates = [mutual_info_ab(v, 0.5) for v in vs]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    chis = [0.0, 0.2, 0.8, 2.0, 10.0]
    noisy = [mutual_info_ab(40.0, chi) for chi in chis]
    assert all(b < a for a, b in zip(noisy, noisy[1:]))


def test_info_ae_values():
    assert info_ae(1.0, 0.5) == 0.0
    assert info_ae(40.0, 0.8375) == pytest.approx(
        mp_half_log2((40 + 1 / mpmath.mpf("0.8375")) / (1 + 1 / mpmath.mpf("0.8375"))), rel=1e-12
    )
    assert info_ae(40.0, 0.8375) == pytest.approx(2.1153901034145837, rel=1e-12)
    # chi -> 0 is the lossless noiseless edge where Eve learns nothing.
    assert info_ae(40.0, 0.0) == 0.0
    # chi -> infinity saturates at (1/2)*log2(v).
    assert info_ae(40.0, 1e12) == pytest.approx(0.5 * math.log2(40.0), rel=1e-9)


def test_info_be_values():
    assert info_be(40.0, 0.8375, 0.8) == pytest.approx(
        mp_half_log2(mpmath.mpf("0.64") * mpmath.mpf("40.8375") * (1 / mpmath.mpf(40) + mpmath.mpf("0.8375"))),
        rel=1e-12,
    )
    assert info_be(40.0, 0.8375, 0.8) == pytest.approx(2.2472814083333916, rel=1e-12)
    assert info_be(40.0, 0.3125, 0.8) == pytest.approx(1.5611292839059991, rel=1e-12)


@pytest.mark.parametrize(
    "call, args",
    [
        (mutual_info_ab, (math.nan, 1.0)),
        (mutual_info_ab, (math.inf, 1.0)),
        (mutual_info_ab, (40.0, math.nan)),
        (mutual_info_ab, (40.0, math.inf)),
        (info_ae, (math.nan, 1.0)),
        (info_ae, (40.0, math.nan)),
        (info_be, (math.nan, 1.0, 0.5)),
        (info_be, (40.0, math.inf, 0.5)),
    ],
)
def test_informations_refuse_non_finite(call, args):
    with pytest.raises(DomainError, match=r"^(v must be >= 1|chi must be >= 0), got (nan|inf)$"):
        call(*args)


@pytest.mark.parametrize("v", [1.0, 2.0, 40.0, 49.0, 1e6])
def test_info_be_lossless_noiseless_is_exactly_zero(v):
    assert info_be(v, 0.0, 1.0) == 0.0


def test_dr_rate_single():
    # The quiet detector alone is profitable at zero distance.
    assert dr_single(SOURCE, QUIET, t_at(0.0)) > 0.0
    # The noisy one loses money within a few km.
    assert dr_single(SOURCE, FAST, t_at(0.0)) > 0.0
    assert dr_single(SOURCE, FAST, t_at(3.0)) < 0.0


def test_dr_rate_breakeven():
    chi = chi_of(SOURCE, FAST, t_at(0.0))
    beta_breakeven = info_ae(SOURCE.v, chi) / mutual_info_ab(SOURCE.v, chi)
    source = GmcsSource(v=40.0, beta=beta_breakeven, eps_pre=0.05)
    assert dr_single(source, FAST, t_at(0.0)) == pytest.approx(0.0, abs=1e-6)


def test_dr_dual_degenerates_to_single():
    # One detector on both arms: R = rep_rate * (beta*I_AB(chi) - I_AE(chi)).
    for length in (0.0, 2.0, 4.0):
        t = t_at(length)
        chi = chi_of(SOURCE, FAST, t)
        assert gmcs_dr_rate_dual(FAST, FAST, SOURCE, t) == pytest.approx(
            FAST.rep_rate * (SOURCE.beta * mutual_info_ab(SOURCE.v, chi) - info_ae(SOURCE.v, chi)),
            rel=1e-12,
        )


def test_dr_dual_beats_quiet_single_at_short_range():
    t = t_at(1.0)
    dual = gmcs_dr_rate_dual(FAST, QUIET, SOURCE, t)
    assert dual > 10.0 * dr_single(SOURCE, QUIET, t)


def test_rr_rate_single():
    # beta*I_BA = 2.2370 falls just short of I_BE = 2.2473 for the noisy
    # detector, so reverse reconciliation never pays with it alone.
    for length in (0.0, 5.0, 20.0, 60.0, 200.0):
        assert rr_single(SOURCE, FAST, t_at(length)) < 0.0
    assert rr_single(SOURCE, QUIET, t_at(0.0)) > 0.0
    expected = 1e6 * (2.470418963765928 - 1.5611292839059991)
    assert rr_single(SOURCE, QUIET, t_at(0.0)) == pytest.approx(expected, rel=1e-9)


def test_rr_ideal_channel():
    source = GmcsSource(v=16.0, beta=1.0, eps_pre=0.0)
    det = HomodyneSpec(rep_rate=1e6, g_det=1.0, eps_det=0.0)
    ideal = 1.0
    assert rr_single(source, det, ideal) == pytest.approx(
        1e6 * 0.5 * math.log2(16.0), rel=1e-12
    )


def test_rr_dual_positive_at_zero_length():
    assert gmcs_rr_rate_dual(FAST, QUIET, SOURCE, t_at(0.0)) > 0.0


def test_rr_dual_degenerates_to_single():
    # One detector on both arms: R = rep_rate * (beta*I_AB(chi) - I_BE(chi, g)).
    for length in (0.0, 5.0, 10.0):
        t = t_at(length)
        g, chi_vac, eps = noise_budget(SOURCE, FAST, t)
        chi = chi_vac + eps
        assert gmcs_rr_rate_dual(FAST, FAST, SOURCE, t) == pytest.approx(
            FAST.rep_rate * (SOURCE.beta * mutual_info_ab(SOURCE.v, chi) - info_be(SOURCE.v, chi, g)),
            rel=1e-12,
        )


def test_rr_dual_rejects_mismatched_efficiency():
    other = HomodyneSpec(rep_rate=1e6, g_det=0.75, eps_det=0.01)
    with pytest.raises(MismatchedEfficiencyError):
        gmcs_rr_rate_dual(FAST, other, SOURCE, t_at(5.0))


@pytest.mark.parametrize("source", [SOURCE, SOURCE_REALISTIC])
def test_quieter_bound_never_hurts(source):
    # Replacing the quiet arm's noise with the noisy arm's value can only
    # lower the dual rate.
    for length in (0.0, 3.0, 8.0, 15.0):
        t = t_at(length)
        assert gmcs_dr_rate_dual(FAST, QUIET, source, t) >= gmcs_dr_rate_dual(FAST, FAST, source, t)
        assert gmcs_rr_rate_dual(FAST, QUIET, source, t) >= gmcs_rr_rate_dual(FAST, FAST, source, t)


def test_realistic_rr_dual_positive_at_short_range_only():
    t = t_at(1.0)
    assert gmcs_rr_rate_dual(FAST, QUIET, SOURCE_REALISTIC, t) > 0.0
    assert gmcs_rr_rate_dual(FAST, QUIET, SOURCE_REALISTIC, t_at(12.0)) < 0.0
    for length in (0.0, 2.0, 10.0, 40.0):
        assert rr_single(SOURCE_REALISTIC, FAST, t_at(length)) < 0.0


#: Detectors and sources with every field from its whole domain, v past its rule too.
ANY_HOMODYNE = st.builds(HomodyneSpec, rep_rate=st.floats(0.0, 1e15, exclude_min=True),
                         g_det=st.floats(0.0, 1.0, exclude_min=True), eps_det=st.floats(0.0, allow_infinity=False))
ANY_V = st.one_of(st.floats(1.0, 1e270, exclude_min=True), st.floats(min_value=1e270, allow_infinity=False))


@settings(max_examples=400, deadline=None)
@given(v=ANY_V, beta=st.floats(0.0, 1.0, exclude_min=True), eps_pre=st.floats(0.0, allow_infinity=False),
       keyed=ANY_HOMODYNE, other=ANY_HOMODYNE, arms=st.sampled_from(("dual", "single", "equal_g_det")),
       t=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 5e-324))))
# A subnormal chi at 0 km: 1/chi overflows in info_ae, which gave nan.
@example(v=40.0, beta=1.0, eps_pre=0.0, keyed=HomodyneSpec(1e6, 1.0, 5e-324), other=QUIET, arms="single", t=1.0)
@example(v=1e270, beta=1.0, eps_pre=1e300, keyed=FAST, other=QUIET, arms="single", t=1.0)
def test_accepted_source_gives_finite_rate_or_refusal(v, beta, eps_pre, keyed, other, arms, t):
    try:
        source = GmcsSource(v=v, beta=beta, eps_pre=eps_pre)
    except DomainError as exc:
        assert str(exc) == f"v must be in (1, 1e270], got {v}"
        return
    bounding = {"dual": other, "single": keyed, "equal_g_det": HomodyneSpec(other.rep_rate, keyed.g_det, other.eps_det)}[arms]
    for kernel in (gmcs_dr_rate_dual, gmcs_rr_rate_dual):
        try:
            rate = kernel(keyed, bounding, source, t)
        except DomainError:
            continue
        assert math.isfinite(rate), kernel
