import dataclasses

import pytest

from dualdet.bb84 import Bb84Config, _arm, bb84_rate_dual
from dualdet.core import DomainError, SpdSpec, binary_entropy, channel_transmittance, db_to_transmittance

# GHz up-conversion SPD and TES combination.
FAST = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=1.3e-5, e_det=0.018)
SLOW = SpdSpec(rep_rate=2.5e6, eta_d=0.5, y0=3e-7, e_det=0.018)
# 10 GHz low-jitter SPD with heavy adjacent-pulse cross-talk.
FAST_HIGH_EDET = SpdSpec(rep_rate=10e9, eta_d=0.0027, y0=3.2e-9, e_det=0.097)
CFG = Bb84Config(basis_factor=0.5, f_ec=1.22)


def t_at(length_km, alpha=0.21):
    """Transmittance of the fiber and the 0.16 receiver optics."""
    return channel_transmittance(alpha, length_km) * 0.16


def single(spd, t, cfg=CFG):
    """Single-detector rate: the detector on both arms, no switch."""
    return bb84_rate_dual(spd, spd, cfg, t)


def test_gain_examples():
    assert _arm(None, SLOW, t_at(0.0))[0] == pytest.approx(0.0800003, rel=1e-12)
    assert _arm(None, FAST, t_at(100.0))[0] == pytest.approx(8.798458535797217e-05, rel=1e-12)


def test_gain_dark_count_floor():
    # With the channel closed off only dark counts remain.
    far = t_at(1000.0, alpha=10.0)
    assert _arm(None, FAST, far)[0] == pytest.approx(FAST.y0, rel=1e-6)


def test_qber_examples():
    assert _arm(None, FAST, t_at(100.0))[1] == pytest.approx(0.08921702028265847, rel=1e-12)
    # No dark counts: the error rate is the misalignment error exactly.
    clean = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=0.0, e_det=0.018)
    assert _arm(None, clean, t_at(37.0))[1] == pytest.approx(0.018, rel=1e-12)
    # Dark counts dominate at extreme loss.
    far = t_at(2000.0, alpha=10.0)
    assert _arm(None, FAST, far)[1] == pytest.approx(0.5, abs=1e-6)


def test_qber_zero_gain():
    # A clean detector with no light reaching it never clicks.
    clean = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=0.0, e_det=0.018)
    with pytest.raises(ZeroDivisionError, match="^gain is zero; QBER undefined$"):
        _arm(None, clean, 0.0)


def test_rate_single_examples():
    assert single(SLOW, t_at(124.0)) == pytest.approx(174.9880823425902, rel=1e-12)
    # Rates go negative once entropy costs exceed one bit per detection.
    assert single(FAST, t_at(124.0)) == pytest.approx(-10142.86054662752, rel=1e-12)


def test_rate_single_error_free_limit():
    clean = SpdSpec(rep_rate=1e9, eta_d=0.2, y0=0.0, e_det=0.0)
    t = t_at(25.0)
    expected = 0.5 * clean.rep_rate * _arm(None, clean, t)[0]
    assert single(clean, t) == pytest.approx(expected, rel=1e-12)


def test_high_edet_detector_never_secure():
    # 1 - 2.22*H2(0.097) is already negative, so no distance helps.
    for length in (0.0, 50.0, 150.0, 250.0):
        assert single(FAST_HIGH_EDET, t_at(length)) < 0.0


def test_rate_dual_examples():
    assert bb84_rate_dual(FAST, SLOW, CFG, t_at(0.0)) == pytest.approx(3339814.4003277803, rel=1e-12)
    dual_124 = bb84_rate_dual(FAST, SLOW, CFG, t_at(124.0))
    assert dual_124 == pytest.approx(196.3538406635559, rel=1e-12)
    assert dual_124 > single(FAST, t_at(124.0))
    assert dual_124 > single(SLOW, t_at(124.0))


def test_rate_dual_rescues_high_edet_fast_detector():
    t = t_at(100.0)
    assert single(FAST_HIGH_EDET, t) < 0.0
    assert bb84_rate_dual(FAST_HIGH_EDET, SLOW, CFG, t) > 0.0


def test_dual_degenerates_to_single():
    # One detector on both arms gives the single-detector formula
    # R = basis_factor * rep_rate * Q * (1 - (f_ec + 1) * H2(e)).
    for length in (0.0, 60.0, 140.0):
        t = t_at(length)
        dual = bb84_rate_dual(FAST, FAST, CFG, t)
        gain, err, _ = _arm(None, FAST, t)
        expected = 0.5 * FAST.rep_rate * gain * (1.0 - 2.22 * binary_entropy(err))
        assert dual == pytest.approx(expected, rel=1e-12)


def test_switch_loss_reduces_dual_rate():
    t = t_at(50.0)
    lossy = bb84_rate_dual(FAST, SLOW, CFG, t * db_to_transmittance(3.0))
    assert lossy < bb84_rate_dual(FAST, SLOW, CFG, t)


def test_qber_nondecreasing_with_length():
    grid = [0.0, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0]
    for spd in (FAST, SLOW, FAST_HIGH_EDET):
        qbers = [_arm(None, spd, t_at(length))[1] for length in grid]
        assert all(b >= a - 1e-15 for a, b in zip(qbers, qbers[1:]))


def test_quiet_bound_never_hurts():
    # Whenever the slow arm sees fewer errors, the dual rate beats the
    # all-fast rate at the fast detector's repetition rate.
    for length in (0.0, 40.0, 80.0, 120.0, 160.0):
        t = t_at(length)
        if _arm(None, SLOW, t)[1] <= _arm(None, FAST, t)[1] <= 0.5:
            assert bb84_rate_dual(FAST, SLOW, CFG, t) >= single(FAST, t)


def test_rates_positive_at_zero_length_below_edet_threshold():
    # 1 - (f_ec + 1)*H2(e_det) > 0 holds for e_det = 0.018 at f_ec = 1.22.
    for spd in (FAST, SLOW):
        assert single(spd, t_at(0.0)) > 0.0


def test_config_validation():
    with pytest.raises(DomainError):
        Bb84Config(basis_factor=0.7, f_ec=1.22)
    with pytest.raises(DomainError):
        Bb84Config(basis_factor=0.5, f_ec=0.9)
    efficient = dataclasses.replace(CFG, basis_factor=1.0)
    t = t_at(30.0)
    assert single(FAST, t, efficient) == pytest.approx(
        2.0 * single(FAST, t), rel=1e-12
    )
