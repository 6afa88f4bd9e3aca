"""The kernels, composed of per-arm terms and one combine, give the same bits
as the whole-formula kernels they replaced.

The reference functions below compute every gain and QBER through its own
helper, as the BB84 and decoy kernels once did, and each GMCS rate from its
two noise budgets in one function. Each kernel and public helper must return
the same float (compared by float.hex()), or raise the same exception type
with the same message, for numbers drawn from each field's whole domain.
"""

import math

from hypothesis import given, settings, strategies as st

from dualdet.bb84 import Bb84Config, bb84_gain, bb84_qber, bb84_rate_dual
from dualdet.core import E0, DomainError, GmcsSource, HomodyneSpec, SpdSpec, binary_entropy
from dualdet.decoy import (
    DecoyConfig, decoy_rate_dual, decoy_signal_gain, decoy_signal_qber, decoy_single_photon_gain,
    decoy_single_photon_qber,
)
from dualdet.gmcs import (
    MismatchedEfficiencyError, gmcs_dr_rate_dual, gmcs_rr_rate_dual, info_ae, info_be, mutual_info_ab, noise_budget,
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


def ref_gmcs_dr_rate_dual(keyed, bounding, source, t):
    _, chi_vac, eps_keyed = noise_budget(source, keyed, t)
    eps_bounding = eps_keyed if bounding is keyed else noise_budget(source, bounding, t)[2]
    return keyed.rep_rate * (
        source.beta * mutual_info_ab(source.v, chi_vac + eps_keyed)
        - info_ae(source.v, chi_vac + eps_bounding)
    )


def ref_gmcs_rr_rate_dual(keyed, bounding, source, t):
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
#: The helpers take mu from the whole float range; a DecoyConfig's mu is in (0, 700].
mus = positive()
config_mus = st.floats(0.0, 700.0, exclude_min=True)
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
       cfg=st.builds(DecoyConfig, mu=config_mus, basis_factor=basis_factors, f_ec=f_ecs))
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
    assert outcome(decoy_signal_qber, 0.5, clean, 0.0) == (ZeroDivisionError, "signal gain is zero; QBER undefined")


non_negative = st.floats(min_value=0.0, allow_infinity=False)
#: Each field from its whole domain, where most draws leave the model's domain,
#: or from the receivers' working range, where most rates are finite.
homodynes = st.one_of(
    st.builds(HomodyneSpec, rep_rate=positive(), g_det=st.floats(0.0, 1.0, exclude_min=True), eps_det=non_negative),
    st.builds(HomodyneSpec, rep_rate=st.floats(1e5, 1e9), g_det=st.floats(0.05, 1.0), eps_det=st.floats(0.0, 1.0)),
)
sources = st.one_of(
    st.builds(GmcsSource, v=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
              beta=st.floats(0.0, 1.0, exclude_min=True), eps_pre=non_negative),
    st.builds(GmcsSource, v=st.floats(1.5, 100.0), beta=st.floats(0.5, 1.0), eps_pre=st.floats(0.0, 0.2)),
)


@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, arms=st.sampled_from(("dual", "single", "equal_g_det")),
       t=st.one_of(transmittances, st.floats(1e-3, 1.0)), source=sources)
def test_gmcs_rate_dual_matches_reference(keyed, other, arms, t, source):
    # "equal_g_det" gives reverse reconciliation a bounding arm it accepts.
    bounding = {"dual": other, "single": keyed,
                "equal_g_det": HomodyneSpec(other.rep_rate, keyed.g_det, other.eps_det)}[arms]
    for kernel, reference in ((gmcs_dr_rate_dual, ref_gmcs_dr_rate_dual), (gmcs_rr_rate_dual, ref_gmcs_rr_rate_dual)):
        assert outcome(kernel, keyed, bounding, source, t) == outcome(reference, keyed, bounding, source, t), kernel


def test_mismatched_efficiency_message_is_kept():
    source = GmcsSource(v=40.0, beta=1.0, eps_pre=0.05)
    fast, slow = HomodyneSpec(82e6, 0.8, 0.43), HomodyneSpec(1e6, 0.3, 0.01)
    assert outcome(gmcs_rr_rate_dual, fast, slow, source, 0.5) == (
        MismatchedEfficiencyError, "detector efficiencies differ: 0.8 vs 0.3")
