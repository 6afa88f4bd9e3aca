import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from dualdet.core import DomainError, SpdSpec, binary_entropy, channel_transmittance
from dualdet.decoy import (
    DecoyConfig,
    decoy_rate_dual,
    decoy_single_photon_qber,
    optimal_mu,
    _mu_root,
    _signal,
)

FAST = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=1.3e-5, e_det=0.018)
SLOW = SpdSpec(rep_rate=2.5e6, eta_d=0.5, y0=3e-7, e_det=0.018)
CFG = DecoyConfig(mu=0.73, basis_factor=0.5, f_ec=1.22)


def t_at(length_km, alpha=0.21):
    """Transmittance of the fiber and the 0.16 receiver optics."""
    return channel_transmittance(alpha, length_km) * 0.16


def single(spd, t):
    """Single-detector rate: the detector on both arms, no switch."""
    return decoy_rate_dual(spd, spd, CFG, t)


def single_by_terms(spd, t):
    """Single-detector rate assembled from the gain and QBER terms."""
    q_mu, e_mu, _, q_1 = _signal(0.73, spd, t)
    e_1 = decoy_single_photon_qber(0.73, spd, t)
    return 0.5 * spd.rep_rate * (
        q_1 - 1.22 * q_mu * binary_entropy(e_mu) - q_1 * binary_entropy(e_1)
    )


def test_signal_gain_at_50km():
    # eta = 10^-1.05 * 0.16 * 0.059; Q_mu = y0 + 1 - exp(-eta*mu)
    eta = 10 ** -1.05 * 0.16 * 0.059
    expected = 1.3e-5 + 1.0 - math.exp(-eta * 0.73)
    got = _signal(0.73, FAST, t_at(50.0))[0]
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(6.269902772660929e-4, rel=1e-12)


def test_signal_gain_limits():
    # Vanishing intensity leaves only dark counts.
    assert _signal(1e-15, FAST, t_at(0.0))[0] == pytest.approx(FAST.y0, abs=1e-12)
    # Bright source saturates at y0 + 1.
    bright = SpdSpec(rep_rate=1e9, eta_d=1.0, y0=1e-5, e_det=0.01)
    saturating = 1.0
    assert _signal(1e3, bright, saturating)[0] == pytest.approx(1.0 + 1e-5, rel=1e-12)


def test_signal_qber_at_50km():
    assert _signal(0.73, FAST, t_at(50.0))[1] == pytest.approx(
        2.799377538567475e-2, rel=1e-12
    )


def test_signal_qber_limits():
    clean = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=0.0, e_det=0.018)
    assert _signal(0.73, clean, t_at(20.0))[1] == pytest.approx(0.018, rel=1e-12)
    far = t_at(2000.0, alpha=10.0)
    assert _signal(0.73, FAST, far)[1] == pytest.approx(0.5, abs=1e-6)


def test_single_photon_gain():
    assert _signal(0.73, FAST, t_at(50.0))[3] == pytest.approx(
        3.0055162396113995e-4, rel=1e-12
    )
    # Poisson weight of exactly one photon at mu = 1 through a perfect system.
    perfect = SpdSpec(rep_rate=1e9, eta_d=1.0, y0=0.0, e_det=0.0)
    ideal = 1.0
    assert _signal(1.0, perfect, ideal)[3] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_single_photon_qber():
    assert decoy_single_photon_qber(0.73, FAST, t_at(50.0)) == pytest.approx(
        2.5334308945793e-2, rel=1e-12
    )


def test_single_photon_qber_mu_independent():
    for length in (0.0, 50.0, 120.0):
        t = t_at(length)
        values = [decoy_single_photon_qber(mu, FAST, t) for mu in (0.1, 0.5, 0.9)]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)


def test_rate_single_at_50km():
    got = single(FAST, t_at(50.0))
    assert got == pytest.approx(54204.244674566915, rel=1e-12)
    assert got > 0.0


def test_rate_single_matches_term_assembly():
    t = t_at(75.0)
    assert single(FAST, t) == pytest.approx(single_by_terms(FAST, t), rel=1e-12)


def test_no_bounding_detector_never_lowers_rate():
    # No bounding detector charges no privacy amplification.
    for length in (0.0, 40.0, 80.0, 120.0):
        t = t_at(length)
        assert decoy_rate_dual(FAST, None, CFG, t) >= decoy_rate_dual(FAST, SLOW, CFG, t)


def test_single_photon_gain_below_signal_gain():
    for length in range(0, 251, 10):
        t = t_at(float(length))
        for spd in (FAST, SLOW):
            q_mu, _, _, q_1 = _signal(0.73, spd, t)
            assert q_1 <= q_mu + 1e-18


def test_slow_single_outlives_dual_advantage():
    # Past the crossover the quiet detector alone still makes key while the
    # dual configuration has gone negative.
    assert single(SLOW, t_at(90.0)) > 0.0
    assert decoy_rate_dual(FAST, SLOW, CFG, t_at(90.0)) < 0.0


def test_rate_dual_degenerates_to_single():
    for length in (0.0, 50.0, 100.0):
        t = t_at(length)
        assert decoy_rate_dual(FAST, FAST, CFG, t) == pytest.approx(
            single_by_terms(FAST, t), rel=1e-12
        )


def test_rate_dual_uses_slow_error_bound():
    t = t_at(60.0)
    dual = decoy_rate_dual(FAST, SLOW, CFG, t)
    q_1 = _signal(0.73, FAST, t)[3]
    expected_gain = 0.5 * 1e9 * q_1 * (
        binary_entropy(decoy_single_photon_qber(0.73, FAST, t))
        - binary_entropy(decoy_single_photon_qber(0.73, SLOW, t))
    )
    assert dual - single(FAST, t) == pytest.approx(expected_gain, rel=1e-9)


def test_optimal_mu_against_brentq():
    for e_det, f_ec in [(0.018, 1.22), (0.018, 1.0), (0.033, 1.16), (0.05, 1.1)]:
        h = binary_entropy(e_det)
        rhs = f_ec * h / (1.0 - h)
        reference = brentq(lambda m: (1.0 - m) * math.exp(-m) - rhs, 0.0, 1.0, xtol=1e-14)
        assert optimal_mu(e_det, f_ec) == pytest.approx(reference, abs=1e-9)


def test_optimal_mu_examples():
    mu_star = optimal_mu(0.018, 1.22)
    assert 0.60 < mu_star < 0.70
    assert mu_star == pytest.approx(0.65045752, abs=1e-6)
    assert optimal_mu(0.018, 1.0) == pytest.approx(0.69918355, abs=1e-6)
    # Residual of the defining equation.
    h = binary_entropy(0.018)
    rhs = 1.22 * h / (1.0 - h)
    assert abs((1.0 - mu_star) * math.exp(-mu_star) - rhs) < 1e-10


def test_optimal_mu_tends_to_one_for_clean_systems():
    assert optimal_mu(1e-6, 1.0) > 0.99


def test_optimal_mu_no_root():
    # Large misalignment pushes the right-hand side to 1 or beyond.
    with pytest.raises(DomainError):
        optimal_mu(0.25, 1.22)
    with pytest.raises(DomainError):
        optimal_mu(0.6, 1.22)
    # Just below 0.5, H2(e_det) rounds to 1 and the right-hand side is infinite.
    with pytest.raises(DomainError, match="no root"):
        optimal_mu(math.nextafter(0.5, 0.0), 1.22)


def bisection_mu(rhs):
    """optimal_mu's root as it was found before the closed form: [0, 1] halved
    to a width of at most 1e-14, so within 3.6e-15 of the root."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) * math.exp(-mid) - rhs > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_rng = random.Random(19)
#: Right-hand sides across (0, 1): uniform, down to the least subnormal, and up to the largest float below 1.
RHS_GRID = (
    [_rng.random() for _ in range(2000)]
    + [10.0 ** _rng.uniform(-323, 0) for _ in range(2000)]
    + [1.0 - 10.0 ** _rng.uniform(-16, 0) for _ in range(2000)]
    + [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-16, 0.5, 1 - 2**-52, math.nextafter(1.0, 0.0)]
)


def test_mu_root_matches_bisection():
    for rhs in RHS_GRID:
        mu = _mu_root(rhs)
        assert 0.0 < mu <= 1.0, rhs
        assert abs(mu - bisection_mu(rhs)) <= 4e-15, rhs


def test_optimal_mu_matches_bisection():
    # e_det from its whole domain, uniform or log-uniform down to 1e-300, and f_ec
    # from [1, 10]: the same root within 4e-15, or both without one.
    rng = random.Random(20)
    for i in range(4000):
        e_det = rng.uniform(0.0, 0.5) if i % 2 else 0.5 * 10.0 ** -rng.uniform(0, 300)
        e_det = min(max(e_det, 5e-324), math.nextafter(0.5, 0.0))
        f_ec = rng.uniform(1.0, 10.0)
        h = binary_entropy(e_det)
        rhs = f_ec * h / (1.0 - h) if h < 1.0 else math.inf
        if not 0.0 < rhs < 1.0:
            with pytest.raises(DomainError, match="^no root: "):
                optimal_mu(e_det, f_ec)
            continue
        assert abs(optimal_mu(e_det, f_ec) - bisection_mu(rhs)) <= 4e-15, (e_det, f_ec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True])
@pytest.mark.parametrize("name", ["e_det", "f_ec"])
def test_optimal_mu_refuses_non_finite(name, bad):
    args = {"e_det": 0.018, "f_ec": 1.22, name: bad}
    with pytest.raises(DomainError, match=f"^{name} must be a finite number, got {bad!r}$"):
        optimal_mu(**args)


def test_config_fields():
    # No privacy amplification is decoy_rate_dual(keyed, None, ...), not a config flag.
    assert [f.name for f in dataclasses.fields(DecoyConfig)] == ["mu", "basis_factor", "f_ec"]


def test_config_validation():
    with pytest.raises(DomainError):
        DecoyConfig(mu=0.0, basis_factor=0.5, f_ec=1.22)
    with pytest.raises(DomainError):
        DecoyConfig(mu=0.73, basis_factor=0.3, f_ec=1.22)


#: Detectors with every field from its whole domain.
SPDS = st.floats(0.0, 1.0).flatmap(lambda eta_d: st.builds(
    SpdSpec, rep_rate=st.floats(0.0, 1e15, exclude_min=True), eta_d=st.just(eta_d),
    y0=st.floats(0.0, 1.0, exclude_min=eta_d == 0.0, exclude_max=True), e_det=st.floats(0.0, 0.5),
))
HOT = SpdSpec(rep_rate=1e9, eta_d=0.5, y0=0.9, e_det=0.01)


@settings(max_examples=400, deadline=None)
@given(mu=st.one_of(st.floats(0.0, 700.0, exclude_min=True), st.floats(min_value=700.0, allow_infinity=False)),
       basis_factor=st.sampled_from((0.5, 1.0)), f_ec=st.floats(1.0, 10.0), keyed=SPDS, other=SPDS,
       arms=st.sampled_from(("dual", "single", "no_pa")),
       t=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 5e-324))))
# (y0 + eta)*mu overflows and Q_1 would be inf*0 = nan.
@example(mu=1.7e308, basis_factor=0.5, f_ec=1.22, keyed=HOT, other=HOT, arms="single", t=1.0)
@example(mu=700.0, basis_factor=1.0, f_ec=1.22, keyed=HOT, other=HOT, arms="dual", t=1.0)
def test_accepted_config_gives_finite_rate_or_refusal(mu, basis_factor, f_ec, keyed, other, arms, t):
    try:
        cfg = DecoyConfig(mu=mu, basis_factor=basis_factor, f_ec=f_ec)
    except DomainError as exc:
        assert str(exc) == f"mu must be in (0, 700], got {mu}"
        return
    bounding = {"dual": other, "single": keyed, "no_pa": None}[arms]
    try:
        rate = decoy_rate_dual(keyed, bounding, cfg, t)
    except (DomainError, ZeroDivisionError):
        return
    assert math.isfinite(rate)
