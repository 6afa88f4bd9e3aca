"""The per-arm BB84 and decoy kernels give the same bits as the term-by-term formulas.

The reference functions below compute every gain and QBER through its own
helper, as the kernels once did. Each kernel and public helper must return
the same float (compared by float.hex()), or raise the same exception type
with the same message, for numbers drawn from each field's whole domain.
"""

import math

from hypothesis import given, settings, strategies as st

from dualdet.bb84 import Bb84Config, bb84_gain, bb84_qber, bb84_rate_dual
from dualdet.core import E0, DomainError, SpdSpec, binary_entropy
from dualdet.decoy import (
    DecoyConfig, decoy_rate_dual, decoy_signal_gain, decoy_signal_qber, decoy_single_photon_gain,
    decoy_single_photon_qber,
)


def ref_bb84_gain(spd, t):
    return spd.y0 + t * spd.eta_d


def ref_bb84_qber(spd, t):
    gain = ref_bb84_gain(spd, t)
    if gain == 0.0:
        raise ZeroDivisionError("gain is zero; QBER undefined")
    return (E0 * spd.y0 + spd.e_det * (t * spd.eta_d)) / gain


def ref_bb84_rate_dual(keyed, bounding, cfg, t):
    gain = ref_bb84_gain(keyed, t)
    h_keyed = binary_entropy(ref_bb84_qber(keyed, t))
    h_bounding = binary_entropy(ref_bb84_qber(bounding, t))
    return cfg.basis_factor * keyed.rep_rate * gain * (1.0 - cfg.f_ec * h_keyed - h_bounding)


def ref_decoy_signal_gain(mu, spd, t):
    eta = t * spd.eta_d
    return spd.y0 + 1.0 - math.exp(-eta * mu)


def ref_decoy_signal_qber(mu, spd, t):
    eta = t * spd.eta_d
    gain = ref_decoy_signal_gain(mu, spd, t)
    if gain == 0.0:
        raise ZeroDivisionError("signal gain is zero; QBER undefined")
    return (E0 * spd.y0 + spd.e_det * (1.0 - math.exp(-eta * mu))) / gain


def ref_decoy_single_photon_gain(mu, spd, t):
    return ref_bb84_gain(spd, t) * mu * math.exp(-mu)


def ref_decoy_single_photon_qber(mu, spd, t):
    return ref_bb84_qber(spd, t)


def ref_decoy_rate_dual(keyed, bounding, cfg, t):
    q_mu = ref_decoy_signal_gain(cfg.mu, keyed, t)
    e_mu = ref_decoy_signal_qber(cfg.mu, keyed, t)
    q_1 = ref_decoy_single_photon_gain(cfg.mu, keyed, t)
    per_pulse = q_1 - cfg.f_ec * q_mu * binary_entropy(e_mu)
    if bounding is not None:
        per_pulse -= q_1 * binary_entropy(ref_decoy_single_photon_qber(cfg.mu, bounding, t))
    return cfg.basis_factor * keyed.rep_rate * per_pulse


def outcome(fn, *args):
    """float.hex() of the result, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)


def positive(**kwargs):
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, **kwargs)


#: An SpdSpec from its whole domain: a detector with eta_d = 0 draws y0 > 0.
spds = st.floats(0.0, 1.0).flatmap(lambda eta_d: st.builds(
    SpdSpec, rep_rate=positive(), eta_d=st.just(eta_d),
    y0=st.floats(0.0, 1.0, exclude_min=eta_d == 0.0, exclude_max=True), e_det=st.floats(0.0, 0.5),
))
#: Transmittances in [0, 1], with the ends and subnormals drawn on purpose.
transmittances = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 5e-324, 1e-310, 2.0 ** -1060)))
mus = positive()
f_ecs = st.floats(min_value=1.0, allow_infinity=False)
basis_factors = st.sampled_from((0.5, 1.0))

HELPERS = [
    (lambda mu, spd, t: bb84_gain(spd, t), lambda mu, spd, t: ref_bb84_gain(spd, t)),
    (lambda mu, spd, t: bb84_qber(spd, t), lambda mu, spd, t: ref_bb84_qber(spd, t)),
    (decoy_signal_gain, ref_decoy_signal_gain),
    (decoy_signal_qber, ref_decoy_signal_qber),
    (decoy_single_photon_gain, ref_decoy_single_photon_gain),
    (decoy_single_photon_qber, ref_decoy_single_photon_qber),
]


@settings(max_examples=400, deadline=None)
@given(mu=mus, spd=spds, t=transmittances)
def test_helpers_match_reference(mu, spd, t):
    for helper, reference in HELPERS:
        assert outcome(helper, mu, spd, t) == outcome(reference, mu, spd, t), helper


@settings(max_examples=400, deadline=None)
@given(keyed=spds, other=spds, same=st.booleans(), t=transmittances,
       cfg=st.builds(Bb84Config, basis_factor=basis_factors, f_ec=f_ecs))
def test_bb84_rate_dual_matches_reference(keyed, other, same, t, cfg):
    # (keyed, keyed) is a single-detector receiver: its arm is computed once.
    bounding = keyed if same else other
    assert outcome(bb84_rate_dual, keyed, bounding, cfg, t) == outcome(ref_bb84_rate_dual, keyed, bounding, cfg, t)


@settings(max_examples=400, deadline=None)
@given(keyed=spds, other=spds, arms=st.sampled_from(("dual", "single", "no_pa")), t=transmittances,
       cfg=st.builds(DecoyConfig, mu=mus, basis_factor=basis_factors, f_ec=f_ecs))
def test_decoy_rate_dual_matches_reference(keyed, other, arms, t, cfg):
    bounding = {"dual": other, "single": keyed, "no_pa": None}[arms]
    assert outcome(decoy_rate_dual, keyed, bounding, cfg, t) == outcome(ref_decoy_rate_dual, keyed, bounding, cfg, t)


def test_zero_gain_messages_are_kept():
    # No light reaches a clean detector: both QBERs are undefined.
    clean = SpdSpec(rep_rate=1e9, eta_d=0.5, y0=0.0, e_det=0.01)
    cfg = DecoyConfig(mu=0.5, basis_factor=0.5, f_ec=1.22)
    assert outcome(bb84_rate_dual, clean, clean, Bb84Config(0.5, 1.22), 0.0) == (
        ZeroDivisionError, "gain is zero; QBER undefined")
    assert outcome(decoy_rate_dual, clean, None, cfg, 0.0) == (
        ZeroDivisionError, "signal gain is zero; QBER undefined")
