import math
import re

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from dualdet import gmcs
from dualdet.core import DomainError, GmcsSource, HomodyneSpec, channel_transmittance
from dualdet.gmcs import MismatchedEfficiencyError, gmcs_dr_rate_dual, gmcs_rr_rate_dual

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


def mp_chi_informations(kernel, keyed, bounding, source, t):
    """(I_AB, I_AE) for DR or (I_AB, I_BE) for RR in bits, in the input-referred
    spelling at 50 digits: each arm's input noise is
    chi = (1 - g)/g + eps_pre + eps_det/(t*g_det), with g = t*g_det of the
    keyed arm, so both are defined wherever g > 0."""
    with mpmath.workdps(50):
        t, v = mpmath.mpf(t), mpmath.mpf(source.v)
        g = t * keyed.g_det
        chi_k, chi_b = ((1 - g) / g + source.eps_pre + det.eps_det / (t * det.g_det) for det in (keyed, bounding))
        mutual = mpmath.log((v + chi_k) / (1 + chi_k), 2) / 2
        if kernel is gmcs_dr_rate_dual:
            return mutual, mpmath.log((v * chi_b + 1) / (chi_b + 1), 2) / 2
        return mutual, mpmath.log(g * (v + chi_b) * g * (1 / v + chi_b), 2) / 2


def mp_chi_rate(kernel, keyed, bounding, source, t):
    """The kernel's rate, rep_rate*(beta*I_AB - I_AE or I_BE), from mp_chi_informations."""
    mutual, info = mp_chi_informations(kernel, keyed, bounding, source, t)
    with mpmath.workdps(50):
        return float(keyed.rep_rate * (source.beta * mutual - info))


def mp_half_log2(x):
    return float(mpmath.log(x, 2) / 2)


@pytest.mark.parametrize("kernel, det, chi, mutual, info", [
    # chi = (1 - 0.8)/0.8 + 0.05 + eps_det/0.8: 0.25 + 0.05 + 0.5375 for FAST, 0.25 + 0.05 + 0.0125 for QUIET.
    (gmcs_dr_rate_dual, FAST, "0.8375", 2.237039197300849, 2.1153901034145837),
    (gmcs_dr_rate_dual, QUIET, "0.3125", 2.470418963765928, 1.6812850396923541),
    (gmcs_rr_rate_dual, FAST, "0.8375", 2.237039197300849, 2.2472814083333916),
    (gmcs_rr_rate_dual, QUIET, "0.3125", 2.470418963765928, 1.5611292839059991),
], ids=["dr-fast", "dr-quiet", "rr-fast", "rr-quiet"])
def test_zero_length_values(kernel, det, chi, mutual, info):
    # The single-detector rates at 0 km, rep_rate*(I_AB - I_AE or I_BE) with beta = 1.
    assert kernel(det, det, SOURCE, 1.0) == pytest.approx(det.rep_rate * (mutual - info), rel=1e-12)
    assert mp_half_log2((40 + mpmath.mpf(chi)) / (1 + mpmath.mpf(chi))) == pytest.approx(mutual, rel=1e-12)
    assert [float(x) for x in mp_chi_informations(kernel, det, det, SOURCE, 1.0)] == pytest.approx(
        [mutual, info], rel=1e-12)


@pytest.mark.parametrize("kernel", [gmcs_dr_rate_dual, gmcs_rr_rate_dual])
@pytest.mark.parametrize("length", [0.0, 5.0, 50.0])
def test_each_information_matches_the_chi_spelling(kernel, length):
    # The rate is rep_rate*(beta*I_AB - info), so two betas give I_AB and
    # I_AE (DR) or I_BE (RR) of the kernel apart: each is the 50-digit one.
    t = t_at(length)
    full, half = (kernel(FAST, QUIET, GmcsSource(v=40.0, beta=beta, eps_pre=0.05), t) for beta in (1.0, 0.5))
    mutual = (full - half) / (0.5 * FAST.rep_rate)
    assert [mutual, mutual - full / FAST.rep_rate] == pytest.approx(
        [float(x) for x in mp_chi_informations(kernel, FAST, QUIET, SOURCE, t)], rel=1e-12)


@pytest.mark.parametrize("kernel", [gmcs_dr_rate_dual, gmcs_rr_rate_dual])
@pytest.mark.parametrize("v", [math.nextafter(1.0, 2.0), 2.0, 40.0, 49.0, 1e6, 1e270])
def test_lossless_noiseless_eve_learns_nothing(kernel, v):
    # At g = 1 with no excess noise chi = 0: I_AE = I_BE = 0, and the rate is
    # all of I_AB = (1/2)*log2(v).
    det = HomodyneSpec(rep_rate=1e6, g_det=1.0, eps_det=0.0)
    source = GmcsSource(v=v, beta=0.9, eps_pre=0.0)
    assert kernel(det, det, source, 1.0) == pytest.approx(1e6 * 0.9 * 0.5 * math.log2(v), rel=1e-15)


@pytest.mark.parametrize("length", [7680.0, 7760.0])
def test_rr_rate_keeps_its_bits_where_g_squared_is_subnormal(length):
    # The preset 6 dual's quiet arm: past about 7,300 km g*g is subnormal, and
    # from about 7,700 km it underflows. The input-referred I_BE multiplies by
    # g twice; the transmittance form never forms g*g, so the rate is the
    # 50-digit one.
    t = t_at(length)
    assert (t * QUIET.g_det) ** 2 < 2.0 ** -1022
    assert gmcs_rr_rate_dual(FAST, QUIET, SOURCE, t) == pytest.approx(
        mp_chi_rate(gmcs_rr_rate_dual, FAST, QUIET, SOURCE, t), rel=1e-13)


@pytest.mark.parametrize("kernel, keyed, bounding", [
    (gmcs_dr_rate_dual, HomodyneSpec(1e6, 1.0, 0.0), HomodyneSpec(1e6, 1.0, 0.0)),
    (gmcs_rr_rate_dual, HomodyneSpec(1e6, 1.0, 0.0), HomodyneSpec(1e6, 1.0, 0.0)),
    (gmcs_rr_rate_dual, HomodyneSpec(1e6, 1.0, 5.0), HomodyneSpec(1e6, 1.0, 5.0)),
])
def test_kernels_refuse_t_above_1(kernel, keyed, bounding):
    # A t above 1 would make g exceed 1 and the vacuum noise negative: the kernels refuse it first.
    with pytest.raises(DomainError) as info:
        kernel(keyed, bounding, GmcsSource(v=2.0, beta=0.9), 1.5)
    assert str(info.value) == "t must be in [0, 1], got 1.5"


@pytest.mark.parametrize("kernel, limit", [
    # DR: I_AB -> 0 and I_AE -> (1/2)*log2(v) as g -> 0.
    (gmcs_dr_rate_dual, -FAST.rep_rate * 0.5 * math.log2(SOURCE.v)),
    # RR: I_AB -> 0 and I_BE -> log2(1 + eps_det) of the bounding arm.
    (gmcs_rr_rate_dual, -FAST.rep_rate * math.log2(1.0 + QUIET.eps_det)),
])
@pytest.mark.parametrize("t", [0.0, 5e-324, t_at(15000.0)])
def test_rates_reach_their_limits_as_the_transmittance_vanishes(kernel, limit, t):
    assert kernel(FAST, QUIET, SOURCE, t) == pytest.approx(limit, rel=1e-12)


def test_dr_rate_single():
    # The quiet detector alone is profitable at zero distance.
    assert dr_single(SOURCE, QUIET, t_at(0.0)) > 0.0
    # The noisy one loses money within a few km.
    assert dr_single(SOURCE, FAST, t_at(0.0)) > 0.0
    assert dr_single(SOURCE, FAST, t_at(3.0)) < 0.0


def test_dr_rate_breakeven():
    mutual, info = mp_chi_informations(gmcs_dr_rate_dual, FAST, FAST, SOURCE, t_at(0.0))
    beta_breakeven = float(info / mutual)
    source = GmcsSource(v=40.0, beta=beta_breakeven, eps_pre=0.05)
    assert dr_single(source, FAST, t_at(0.0)) == pytest.approx(0.0, abs=1e-6)


def test_dr_dual_degenerates_to_single():
    # One detector on both arms: R = rep_rate * (beta*I_AB(chi) - I_AE(chi)).
    for length in (0.0, 2.0, 4.0):
        t = t_at(length)
        assert gmcs_dr_rate_dual(FAST, FAST, SOURCE, t) == pytest.approx(
            mp_chi_rate(gmcs_dr_rate_dual, FAST, FAST, SOURCE, t), rel=1e-12)


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
        assert gmcs_rr_rate_dual(FAST, FAST, SOURCE, t) == pytest.approx(
            mp_chi_rate(gmcs_rr_rate_dual, FAST, FAST, SOURCE, t), rel=1e-12)


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


#: Every field from the whole float range, past its rule too.
ANY_FLOAT = st.one_of(st.floats(0.0, 1e30), st.floats(min_value=0.0, allow_infinity=False))
ANY_V = st.one_of(st.floats(1.0, 1e270, exclude_min=True), st.floats(min_value=1e270, allow_infinity=False))
RULE_MESSAGE = (r"^(v must be in \(1, 1e270\]|eps_pre must be in \[0, 1e30\]|eps_det must be in \[0, 1e30\]"
                r"|eps_det/g_det must be at most 1e36), got ")


@settings(max_examples=400, deadline=None)
@given(v=ANY_V, beta=st.floats(0.0, 1.0, exclude_min=True), eps_pre=ANY_FLOAT,
       g_dets=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2),
       eps_dets=st.lists(ANY_FLOAT, min_size=2, max_size=2), equal_g_det=st.booleans(),
       t=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 5e-324))))
# A subnormal input noise chi at 0 km.
@example(v=40.0, beta=1.0, eps_pre=0.0, g_dets=[1.0, 0.8], eps_dets=[5e-324, 0.01], equal_g_det=False, t=1.0)
# Each field at the end of its domain, at g = 1, at a subnormal g and at g = 0.
@example(v=1e270, beta=1.0, eps_pre=1e30, g_dets=[1.0, 1e-6], eps_dets=[1e30, 1e30], equal_g_det=False, t=1.0)
@example(v=1e270, beta=1.0, eps_pre=0.0, g_dets=[1.0, 1.0], eps_dets=[0.0, 0.0], equal_g_det=True, t=1.0)
@example(v=1e270, beta=1.0, eps_pre=1e30, g_dets=[1.0, 1e-6], eps_dets=[1e30, 1e30], equal_g_det=False, t=5e-324)
@example(v=1e270, beta=1.0, eps_pre=1e30, g_dets=[1.0, 1e-6], eps_dets=[1e30, 1e30], equal_g_det=False, t=0.0)
def test_accepted_file_gives_finite_rate(v, beta, eps_pre, g_dets, eps_dets, equal_g_det, t):
    # Whatever the rules accept gives a finite DR and RR rate in every mode, at every t in [0, 1].
    if equal_g_det:
        g_dets = [g_dets[0], g_dets[0]]
    try:
        source = GmcsSource(v=v, beta=beta, eps_pre=eps_pre)
        fast, slow = (HomodyneSpec(1e6, g_det, eps_det) for g_det, eps_det in zip(g_dets, eps_dets))
    except DomainError as exc:
        assert re.match(RULE_MESSAGE, str(exc)), exc
        return
    modes = [(fast, fast), (slow, slow), (fast, slow)]
    for kernel in (gmcs_dr_rate_dual, gmcs_rr_rate_dual):
        for keyed, bounding in modes if kernel is gmcs_dr_rate_dual or equal_g_det else modes[:2]:
            assert math.isfinite(kernel(keyed, bounding, source, t)), kernel


#: Excess noises from their whole domain or the receivers' working range.
EXCESS = st.one_of(st.floats(0.0, 1e30), st.floats(0.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(v=st.one_of(st.floats(1.0, 1e270, exclude_min=True), st.floats(1.5, 100.0)),
       beta=st.floats(0.0, 1.0, exclude_min=True), eps_pre=EXCESS, g_det=st.floats(1e-6, 1.0),
       eps_dets=st.lists(EXCESS, min_size=2, max_size=2), same=st.booleans(),
       t=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats(1e-160, 1e-140), st.sampled_from((1.0, 5e-324))))
def test_kernels_agree_with_the_chi_spelling(v, beta, eps_pre, g_det, eps_dets, same, t):
    # At every t in (0, 1], each kernel is within 2**-41*scale of the 50-digit
    # input-referred rate (each kernel's error-scale docstring).
    source = GmcsSource(v=v, beta=beta, eps_pre=eps_pre)
    keyed, other = (HomodyneSpec(1e6, g_det, eps_det) for eps_det in eps_dets)
    bounding = keyed if same else other
    for kernel, scale in ((gmcs_dr_rate_dual, gmcs._dr_error_scale(source, keyed)),
                          (gmcs_rr_rate_dual, gmcs._rr_error_scale(source, keyed, bounding))):
        reference = mp_chi_rate(kernel, keyed, bounding, source, t)
        assert abs(kernel(keyed, bounding, source, t) - reference) <= 2.0 ** -41 * scale, kernel
