"""The kernels, composed of per-arm terms and one combine, give the same bits
as the whole-formula kernels they replaced.

The reference functions below compute every gain and QBER through its own
helper, as the BB84 and decoy kernels once did, and each GMCS rate in the
transmittance form in one function. Each kernel, each gain and QBER slot of
the BB84 and decoy arms, and decoy_single_photon_qber must return the same
float (compared by float.hex()), or raise the same exception type with the
same message, for numbers drawn from each field's whole domain.
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from dualdet import bb84, decoy, gmcs
from dualdet.bb84 import Bb84Config, bb84_rate_dual
from dualdet.core import E0, DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec, binary_entropy
from dualdet.decoy import DecoyConfig, decoy_rate_dual, decoy_single_photon_qber
from dualdet.gmcs import MismatchedEfficiencyError, gmcs_dr_rate_dual, gmcs_rr_rate_dual
from dualdet.scenario import _PROTOCOLS, Scenario, evaluate


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
    g = t * keyed.g_det
    n = bounding.eps_det / bounding.g_det * keyed.g_det
    v, e, a = source.v, source.eps_pre, 1.0 + keyed.eps_det
    mutual = 0.5 * math.log2((a + (v - 1.0 + e) * g) / (a + e * g))
    info = 0.5 * math.log2((v * ((1.0 - g) + n + e * g) + g) / (1.0 + n + e * g))
    return keyed.rep_rate * (source.beta * mutual - info)


def ref_gmcs_rr_rate_dual(keyed, bounding, source, t):
    if keyed.g_det != bounding.g_det:
        raise MismatchedEfficiencyError(
            f"detector efficiencies differ: {keyed.g_det} vs {bounding.g_det}"
        )
    g = t * keyed.g_det
    eps_b = bounding.eps_det / bounding.g_det * keyed.g_det
    v, e, a = source.v, source.eps_pre, 1.0 + keyed.eps_det
    mutual = 0.5 * math.log2((a + (v - 1.0 + e) * g) / (a + e * g))
    info = 0.5 * (math.log2(1.0 + eps_b + (v - 1.0 + e) * g) + math.log2((1.0 - g) + eps_b + (1.0 / v + e) * g))
    return keyed.rep_rate * (source.beta * mutual - info)


def outcome(fn, *args):
    """float.hex() of the result, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)


def positive(**kwargs):
    return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, **kwargs)


#: Repetition rates from their whole domain.
rep_rates = st.floats(0.0, 1e15, exclude_min=True)
#: An SpdSpec from its whole domain: a detector with eta_d = 0 draws y0 > 0.
spds = st.floats(0.0, 1.0).flatmap(lambda eta_d: st.builds(
    SpdSpec, rep_rate=rep_rates, eta_d=st.just(eta_d),
    y0=st.floats(0.0, 1.0, exclude_min=eta_d == 0.0, exclude_max=True), e_det=st.floats(0.0, 0.5),
))
#: Transmittances in [0, 1], with the ends and subnormals drawn on purpose.
transmittances = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, 5e-324, 1e-310, 2.0 ** -1060)))
#: The arms take mu from the whole float range; a DecoyConfig's mu is in (0, 700].
mus = positive()
config_mus = st.floats(0.0, 700.0, exclude_min=True)
f_ecs = st.floats(1.0, 10.0)
basis_factors = st.sampled_from((0.5, 1.0))

#: Each arm, as a function of (mu, spd, t), with {slot: its reference}: slot 0 is the
#: gain and slot 1 the QBER, whose reference refuses where the arm does.
ARM_SLOTS = [
    (lambda mu, spd, t: bb84._arm(None, spd, t),
     {0: lambda mu, spd, t: ref_bb84_gain(spd, t), 1: lambda mu, spd, t: ref_bb84_qber(spd, t)}),
    (decoy._signal, {0: ref_decoy_signal_gain, 1: ref_decoy_signal_qber, 3: ref_decoy_single_photon_gain}),
]


@settings(max_examples=400, deadline=None)
@given(mu=mus, spd=spds, t=transmittances)
def test_arm_slots_match_reference(mu, spd, t):
    # An arm raises at zero gain, where the gain references return 0.0 and
    # the QBER reference raises the same error.
    for arm, references in ARM_SLOTS:
        try:
            terms = arm(mu, spd, t)
        except ZeroDivisionError as exc:
            assert outcome(references[1], mu, spd, t) == (ZeroDivisionError, str(exc)), arm
            assert outcome(references[0], mu, spd, t) == (0.0).hex(), arm
            continue
        for slot, reference in references.items():
            assert terms[slot].hex() == outcome(reference, mu, spd, t), (arm, slot)
    assert outcome(decoy_single_photon_qber, mu, spd, t) == outcome(ref_decoy_single_photon_qber, mu, spd, t)


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
    with pytest.raises(ZeroDivisionError, match="^signal gain is zero; QBER undefined$"):
        decoy._signal(0.5, clean, 0.0)


#: Excess noises from their whole domain.
excess = st.floats(0.0, 1e30)


def homodyne_specs(rep_rate, eps_det, least_g_det):
    """HomodyneSpecs with g_det drawn from [least_g_det, 1], kept where eps_det/g_det is within its bound."""
    return eps_det.flatmap(lambda eps: st.builds(
        HomodyneSpec, rep_rate=rep_rate, eps_det=st.just(eps),
        g_det=st.floats(max(least_g_det, eps / 1e36), 1.0, exclude_min=True).filter(lambda g: eps / g <= 1e36),
    ))


#: Each field from its whole domain, where most draws are far from any
#: receiver, or from the receivers' working range.
homodynes = st.one_of(
    homodyne_specs(rep_rates, excess, 0.0),
    homodyne_specs(st.floats(1e5, 1e9), st.floats(0.0, 1.0), 0.05),
)
sources = st.one_of(
    st.builds(GmcsSource, v=st.floats(1.0, 1e270, exclude_min=True),
              beta=st.floats(0.0, 1.0, exclude_min=True), eps_pre=excess),
    st.builds(GmcsSource, v=st.floats(1.5, 100.0), beta=st.floats(0.5, 1.0), eps_pre=st.floats(0.0, 0.2)),
)


def _rr_bounding(keyed, other, same):
    """keyed (a single receiver), or other with keyed's g_det, as reverse
    reconciliation requires; its eps_det is cut to keep eps_det/g_det in bounds."""
    return keyed if same else HomodyneSpec(other.rep_rate, keyed.g_det, min(other.eps_det, 1e35 * keyed.g_det))


@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, arms=st.sampled_from(("dual", "single", "equal_g_det")),
       t=st.one_of(transmittances, st.floats(1e-3, 1.0)), source=sources)
def test_gmcs_rate_dual_matches_reference(keyed, other, arms, t, source):
    # "equal_g_det" gives reverse reconciliation a bounding arm it accepts.
    bounding = {"dual": other, "single": keyed, "equal_g_det": _rr_bounding(keyed, other, False)}[arms]
    for kernel, reference in ((gmcs_dr_rate_dual, ref_gmcs_dr_rate_dual), (gmcs_rr_rate_dual, ref_gmcs_rr_rate_dual)):
        assert outcome(kernel, keyed, bounding, source, t) == outcome(reference, keyed, bounding, source, t), kernel


def test_dr_dual_bounding_noise_keeps_its_rounding():
    # The bounding detector's eps_det/g_det times the keyed g_det is one of the
    # scenario's constants, rounded as when the bounding arm returned
    # n = eps_det/g_det and the combine multiplied it by the keyed g_det. On
    # these detectors each other order of that product rounds differently, and
    # so does the rate it gives.
    source = GmcsSource(v=40.0, beta=1.0, eps_pre=0.05)
    keyed, bounding = HomodyneSpec(82e6, 0.8, 0.43), HomodyneSpec(1e6, 0.7, 0.11)
    arm_n = bounding.eps_det / bounding.g_det
    product = arm_n * keyed.g_det
    constants = gmcs._constants(source, keyed, bounding)
    assert constants[5].hex() == product.hex()
    scenario = Scenario("gmcs_dr", "dual", LinkSpec(alpha=0.21), source, fast=keyed, slow=bounding)
    rate = gmcs_dr_rate_dual(keyed, bounding, source, 1.0)
    assert rate.hex() == evaluate(scenario, 0.0).hex() == ref_gmcs_dr_rate_dual(keyed, bounding, source, 1.0).hex()
    for other in (bounding.eps_det * (keyed.g_det / bounding.g_det), bounding.eps_det * keyed.g_det / bounding.g_det):
        assert other != product
        assert gmcs._dr_combine((*constants[:5], other, *constants[6:]), keyed.g_det, None) != rate


def test_mismatched_efficiency_message_is_kept():
    source = GmcsSource(v=40.0, beta=1.0, eps_pre=0.05)
    fast, slow = HomodyneSpec(82e6, 0.8, 0.43), HomodyneSpec(1e6, 0.3, 0.01)
    assert outcome(gmcs_rr_rate_dual, fast, slow, source, 0.5) == (
        MismatchedEfficiencyError, "detector efficiencies differ: 0.8 vs 0.3")


def _rate_or_none(kernel, *args):
    try:
        return kernel(*args)
    except (ArithmeticError, DomainError):
        return None


#: Decoy intensities below 1, where most keys are made, or from the config's whole domain (0, 700].
spd_mus = st.one_of(st.floats(0.0, 1.0, exclude_min=True), config_mus)


@settings(max_examples=400, deadline=None)
@given(keyed=spds, other=spds, same=st.booleans(), t=transmittances, mu=spd_mus,
       cfg=st.builds(Bb84Config, basis_factor=basis_factors, f_ec=f_ecs))
def test_spd_error_scale_is_finite_and_bounds_the_rate(keyed, other, same, t, mu, cfg):
    # Every accepted detector and config has a finite error scale, and the
    # scale bounds |rate|, for BB84 and for decoy at every mu.
    bounding = keyed if same else other
    scale = bb84._error_scale(cfg, keyed)
    assert math.isfinite(scale)
    decoy_cfg = DecoyConfig(mu=mu, basis_factor=cfg.basis_factor, f_ec=cfg.f_ec)
    for rate in (_rate_or_none(bb84_rate_dual, keyed, bounding, cfg, t),
                 _rate_or_none(decoy_rate_dual, keyed, bounding, decoy_cfg, t),
                 _rate_or_none(decoy_rate_dual, keyed, None, decoy_cfg, t)):
        assert rate is None or abs(rate) <= scale


@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, same=st.booleans(), t=st.one_of(transmittances, st.floats(1e-3, 1.0)),
       source=sources)
def test_dr_error_scale_bounds_the_rate(keyed, other, same, t, source):
    # Every accepted source (v <= 1e270) has a finite scale, and it bounds |rate|.
    scale = gmcs._dr_error_scale(source, keyed)
    rate = gmcs_dr_rate_dual(keyed, keyed if same else other, source, t)
    assert math.isfinite(scale)
    assert abs(rate) <= scale


@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, same=st.booleans(), t=st.one_of(transmittances, st.floats(1e-3, 1.0)),
       source=sources)
def test_rr_error_scale_bounds_the_rate(keyed, other, same, t, source):
    # Every accepted source and pair of detectors has a finite scale, and it bounds |rate|.
    bounding = _rr_bounding(keyed, other, same)
    scale = gmcs._rr_error_scale(source, keyed, bounding)
    rate = gmcs_rr_rate_dual(keyed, bounding, source, t)
    assert math.isfinite(scale)
    assert abs(rate) <= scale


def mp_h2(e):
    return -e * mpmath.log(e, 2) - (1 - e) * mpmath.log(1 - e, 2) if 0 < e < 1 else mpmath.mpf(0)


def mp_spd_rate(keyed, bounding, cfg, t):
    """The BB84 rate (a Bb84Config) or the decoy rate (a DecoyConfig; no
    bounding detector for no PA) in 50-digit arithmetic from the same float inputs."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)

        def arm(det):  # gain and H2(QBER)
            eta = t * det.eta_d
            gain = det.y0 + eta
            return gain, mp_h2((mpmath.mpf(det.y0) / 2 + det.e_det * eta) / gain)

        gain, h_keyed = arm(keyed)
        h_bounding = 0 if bounding is None else arm(bounding)[1]
        if isinstance(cfg, Bb84Config):
            per_pulse = gain * (1 - cfg.f_ec * h_keyed - h_bounding)
        else:
            mu = mpmath.mpf(cfg.mu)
            s = -mpmath.expm1(-mu * t * keyed.eta_d)
            q_mu = keyed.y0 + s
            e_mu = (mpmath.mpf(keyed.y0) / 2 + keyed.e_det * s) / q_mu
            per_pulse = gain * mu * mpmath.exp(-mu) * (1 - h_bounding) - cfg.f_ec * q_mu * mp_h2(e_mu)
        return cfg.basis_factor * keyed.rep_rate * per_pulse


@settings(max_examples=400, deadline=None)
@given(keyed=spds, other=spds, arms=st.sampled_from(("dual", "single", "no_pa")),
       t=st.one_of(transmittances, st.floats(0.0, 1e-100)), mu=config_mus,
       cfg=st.builds(Bb84Config, basis_factor=basis_factors, f_ec=f_ecs))
# The ends of the decoy intensity and of the QBER at t = 1, at a gain near 2**-1000, and where y0 + 1.0 rounds y0.
@example(keyed=SpdSpec(1e15, 1.0, 0.0, 0.5), other=SpdSpec(1e15, 1.0, 0.0, 0.0), arms="dual", t=1.0, mu=700.0,
         cfg=Bb84Config(1.0, 10.0))
@example(keyed=SpdSpec(1e9, 1.0, 0.0, 0.01), other=SpdSpec(1e9, 0.5, 1e-6, 0.0), arms="dual", t=2.0 ** -999,
         mu=700.0, cfg=Bb84Config(0.5, 1.0))
@example(keyed=SpdSpec(1e9, 0.1, 1e-12, 0.0), other=SpdSpec(1e9, 0.1, 1e-12, 0.0), arms="no_pa", t=1e-13,
         mu=5e-324, cfg=Bb84Config(0.5, 1.22))
def test_spd_error_scale_bounds_the_rounding(keyed, other, arms, t, mu, cfg):
    # BB84 and decoy (dual, single, no PA) against the real rate from the
    # same float inputs, within 2**-41*scale + 2**-1000 wherever each arm's
    # gain is at least 2**-1000 (scenario._proof_length) and a rate is given.
    bounding = {"dual": other, "single": keyed, "no_pa": None}[arms]
    if min(det.y0 + t * det.eta_d for det in (keyed, bounding or keyed)) < 2.0 ** -1000:
        return
    bound = 2.0 ** -41 * bb84._error_scale(cfg, keyed) + 2.0 ** -1000
    decoy_cfg = DecoyConfig(mu=mu, basis_factor=cfg.basis_factor, f_ec=cfg.f_ec)
    kernels = [(decoy_rate_dual, decoy_cfg)] + ([(bb84_rate_dual, cfg)] if bounding is not None else [])
    for kernel, config in kernels:
        rate = _rate_or_none(kernel, keyed, bounding, config, t)
        assert rate is None or abs(rate - mp_spd_rate(keyed, bounding, config, t)) <= bound, kernel


def mp_rate(protocol, keyed, bounding, source, t):
    """The GMCS rate in 50-digit arithmetic from the same float inputs (t may be an mpf)."""
    with mpmath.workdps(50):
        g = mpmath.mpf(t) * keyed.g_det
        v, e = mpmath.mpf(source.v), mpmath.mpf(source.eps_pre)
        a = 1 + mpmath.mpf(keyed.eps_det)
        mutual = mpmath.log((a + (v - 1 + e) * g) / (a + e * g), 2) / 2
        if protocol == "gmcs_dr":
            n = mpmath.mpf(bounding.eps_det) / bounding.g_det * keyed.g_det
            info = mpmath.log((v * (1 - g + n + e * g) + g) / (1 + n + e * g), 2) / 2
        else:
            # a_b + s*g as a sum of non-negative terms: 1/v - 1 would lose 1/v to 50 digits.
            eps_b = mpmath.mpf(bounding.eps_det)
            info = (mpmath.log(1 + eps_b + (v - 1 + e) * g, 2) + mpmath.log(1 - g + eps_b + (1 / v + e) * g, 2)) / 2
        return keyed.rep_rate * (source.beta * mutual - info)


#: protocol -> (its kernel, the bounding detector it takes for other, its error scale).
GMCS = {
    "gmcs_dr": (gmcs_dr_rate_dual, lambda keyed, other, same: keyed if same else other,
                lambda source, keyed, bounding: gmcs._dr_error_scale(source, keyed)),
    "gmcs_rr": (gmcs_rr_rate_dual, _rr_bounding, gmcs._rr_error_scale),
}


@pytest.mark.parametrize("protocol", GMCS)
@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, same=st.booleans(),
       t=st.one_of(transmittances, st.floats(1e-3, 1.0), st.floats(0.0, 1e-100)), source=sources)
# Every field at the end of its domain.
@example(keyed=HomodyneSpec(1e6, 1.0, 1e30), other=HomodyneSpec(1e6, 1e-6, 1e30), same=False, t=0.5,
         source=GmcsSource(v=1e270, beta=1.0, eps_pre=1e30))
@example(keyed=HomodyneSpec(1e6, 1.0, 0.0), other=HomodyneSpec(1e6, 1.0, 1e30), same=False, t=1e-100,
         source=GmcsSource(v=1e270, beta=0.5, eps_pre=1e-300))
# The transmittance at 0 and at the least subnormal, and the largest v at g = 1, where a_b + s*g = 1/v.
@example(keyed=HomodyneSpec(1e6, 1.0, 0.43), other=HomodyneSpec(1e6, 1.0, 0.01), same=False, t=0.0,
         source=GmcsSource(v=40.0, beta=1.0, eps_pre=0.05))
@example(keyed=HomodyneSpec(1e6, 0.8, 0.43), other=HomodyneSpec(1e6, 0.8, 0.01), same=False, t=5e-324,
         source=GmcsSource(v=40.0, beta=1.0, eps_pre=0.05))
@example(keyed=HomodyneSpec(1e6, 1.0, 0.0), other=HomodyneSpec(1e6, 1.0, 0.0), same=True, t=1.0,
         source=GmcsSource(v=1e270, beta=1.0))
def test_error_scale_bounds_the_rounding(protocol, keyed, other, same, t, source):
    kernel, pick_bounding, error_scale = GMCS[protocol]
    bounding = pick_bounding(keyed, other, same)
    rate = kernel(keyed, bounding, source, t)
    bound = 2.0 ** -41 * error_scale(source, keyed, bounding) + 2.0 ** -1000
    assert abs(rate - mp_rate(protocol, keyed, bounding, source, t)) <= bound


@pytest.mark.parametrize("protocol", GMCS)
@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, mode=st.sampled_from(("single_fast", "dual")), source=sources,
       link=st.builds(LinkSpec, alpha=st.floats(0.0, 1.0), g_bob=st.floats(0.0, 1.0, exclude_min=True),
                      switch_loss=st.floats(0.0, 10.0)),
       length=st.one_of(st.floats(0.0, 1e-12), st.floats(0.0, 2000.0), st.floats(0.0, 1e5)))
# Real t is below 1 by 9e-18 and rounds to 1: at g = 1 and v = 1e270,
# a_b + s*g is 1/v, 1e-270, where the real one is 9e-18.
@example(keyed=HomodyneSpec(1e6, 1.0, 0.0), other=HomodyneSpec(1e6, 1.0, 0.0), mode="single_fast",
         source=GmcsSource(v=1e270, beta=1.0), link=LinkSpec(alpha=0.2), length=2e-16)
# t is subnormal, and past 1e5 km it underflows to 0.
@example(keyed=HomodyneSpec(82e6, 0.8, 0.43), other=HomodyneSpec(1e6, 0.8, 0.01), mode="dual",
         source=GmcsSource(v=40.0, beta=1.0, eps_pre=0.05), link=LinkSpec(alpha=0.21), length=14900.0)
@example(keyed=HomodyneSpec(82e6, 0.8, 0.43), other=HomodyneSpec(1e6, 0.8, 0.01), mode="dual",
         source=GmcsSource(v=40.0, beta=1.0, eps_pre=0.05), link=LinkSpec(alpha=0.21), length=1e5)
def test_error_scale_bounds_the_rounding_at_a_length(protocol, keyed, other, mode, source, link, length):
    # evaluate's rate against the real one at the real t = 10**(-alpha*L/10)*factor,
    # so the rounding of t counts too.
    scenario = Scenario(protocol, mode, link, source, fast=keyed, slow=GMCS[protocol][1](keyed, other, False))
    with mpmath.workdps(50):
        loss_db = mpmath.mpf(link.alpha) * length + (link.switch_loss if mode == "dual" else 0)
        t = mpmath.mpf(10) ** (-loss_db / 10) * link.g_bob
        bounding = keyed if mode == "single_fast" else scenario.slow
        reference = mp_rate(protocol, keyed, bounding, source, t)
    assert abs(evaluate(scenario, length) - reference) <= 2.0 ** -41 * scenario._error_scale + 2.0 ** -1000


def _monotone_within(near, far, r, err):
    """The monotone rule for the computed rates near and far of one receiver,
    at t and at r*t, each within err of its real value: the real rate is at
    most near at r*t if near > 0 and at most near*r if not (a non-positive
    rate/t does not rise as t falls), and the real rate at t is at least far
    if far > 0 and at least far/r if not, multiplied through by r."""
    upper = near if near > 0.0 else near * r
    return far <= upper + 2.0 * err and (near if far > 2.0 * err else r * near) >= far - 2.0 * err


#: A fall of t across a block: t(L_j)/t(L_i), from 1 down to the smallest float.
falls = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from((1.0, 0.5, 1e-300, 5e-324)))


@settings(max_examples=400, deadline=None)
@given(keyed=spds, other=spds, same=st.booleans(), t=st.floats(0.0, 1.0, exclude_min=True), r=falls,
       mu=spd_mus, cfg=st.builds(Bb84Config, basis_factor=basis_factors, f_ec=f_ecs))
def test_spd_rates_keep_the_monotone_rule_in_both_signs(keyed, other, same, t, r, mu, cfg):
    # BB84, and decoy at every mu (dual, single, no PA): where the rate is
    # positive it does not rise as t falls, and where it is not, rate/t does
    # not rise, within the error bound; only where each arm's gain is at
    # least 2**-1000 (scenario._proof_length).
    bounding = keyed if same else other
    far_t = t * r
    if min(det.y0 + far_t * det.eta_d for det in (keyed, bounding)) < 2.0 ** -1000:
        return
    err = 2.0 ** -41 * bb84._error_scale(cfg, keyed) + 2.0 ** -1000
    decoy_cfg = DecoyConfig(mu=mu, basis_factor=cfg.basis_factor, f_ec=cfg.f_ec)
    for kernel, args in ((bb84_rate_dual, (keyed, bounding, cfg)), (decoy_rate_dual, (keyed, bounding, decoy_cfg)),
                         (decoy_rate_dual, (keyed, None, decoy_cfg))):
        near, far = _rate_or_none(kernel, *args, t), _rate_or_none(kernel, *args, far_t)
        assert near is None or far is None or _monotone_within(near, far, far_t / t, err), kernel


@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, same=st.booleans(), t=st.one_of(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(1e-3, 1.0)), r=falls, source=sources)
def test_dr_rate_keeps_the_monotone_rule_in_both_signs(keyed, other, same, t, r, source):
    bounding = keyed if same else other
    far_t = t * r
    err = 2.0 ** -41 * gmcs._dr_error_scale(source, keyed) + 2.0 ** -1000
    near, far = gmcs_dr_rate_dual(keyed, bounding, source, t), gmcs_dr_rate_dual(keyed, bounding, source, far_t)
    assert _monotone_within(near, far, far_t / t, err)


@settings(max_examples=400, deadline=None)
@given(keyed=homodynes, other=homodynes, same=st.booleans(), t=st.one_of(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(1e-3, 1.0)), r=falls, source=sources)
def test_rr_rate_keeps_the_monotone_rule_in_both_signs(keyed, other, same, t, r, source):
    # With equal g_det and either arm the noisier, at every g in [0, 1].
    bounding = _rr_bounding(keyed, other, same)
    far_t = t * r
    err = 2.0 ** -41 * gmcs._rr_error_scale(source, keyed, bounding) + 2.0 ** -1000
    near, far = gmcs_rr_rate_dual(keyed, bounding, source, t), gmcs_rr_rate_dual(keyed, bounding, source, far_t)
    assert _monotone_within(near, far, far_t / t, err)


def _normalized(protocol, keyed, rate, t):
    """rate/N(t), N the protocol's normalizer (the ninth column of scenario._PROTOCOLS)."""
    c, d = _PROTOCOLS[protocol][8](keyed)
    return rate / (c + d * t)


def _does_not_rise(protocol, keyed, rate, t, r, tol):
    """rate(r*t)/N(r*t) <= rate(t)/N(t) in 50 digits, within tol(r*t), a
    bound on their rounding there. The pair of values if not."""
    with mpmath.workdps(50):
        near_t = mpmath.mpf(t)
        far_t = near_t * r
        near, far = (_normalized(protocol, keyed, rate(at), at) for at in (near_t, far_t))
        return far <= near + tol(far_t) or (near, far)


@settings(max_examples=300, deadline=None)
@given(keyed=spds, other=spds, arms=st.sampled_from(("dual", "single", "no_pa")),
       t=st.floats(0.0, 1.0, exclude_min=True), r=falls, mu=spd_mus,
       cfg=st.builds(Bb84Config, basis_factor=basis_factors, f_ec=f_ecs))
# A negative rate (the keyed QBER near 0.3), and a positive one at a gain near 2**-1000.
@example(keyed=SpdSpec(1e9, 0.1, 1e-3, 0.3), other=SpdSpec(1e6, 0.5, 1e-6, 0.01), arms="dual", t=1e-3, r=0.5,
         mu=0.5, cfg=Bb84Config(0.5, 1.22))
@example(keyed=SpdSpec(1e9, 1.0, 0.0, 0.01), other=SpdSpec(1e9, 1.0, 0.0, 0.0), arms="dual", t=2.0 ** -990,
         r=2.0 ** -9, mu=0.5, cfg=Bb84Config(1.0, 1.0))
def test_spd_rates_over_their_normalizer_do_not_rise(keyed, other, arms, t, r, mu, cfg):
    # The normalizer rule, rates of either sign: BB84's rate over its keyed
    # gain y0 + eta_d*t, and decoy's over t (dual, single, no PA, at every
    # mu), do not rise from t to r*t, a longer length. In 50 digits BB84's
    # rate/N is its bracket, off by 1e-50 of the error scale; decoy's rate/t
    # has terms up to the scale times 1 + mu + y0/t (mu*t*eta_d bounds
    # 1 - exp(-mu*t*eta_d)).
    bounding = {"dual": other, "single": keyed, "no_pa": None}[arms]
    scale = mpmath.mpf(bb84._error_scale(cfg, keyed)) * 1e-40  # an mpf: a subnormal scale keeps its size
    decoy_cfg = DecoyConfig(mu=mu, basis_factor=cfg.basis_factor, f_ec=cfg.f_ec)
    kernels = [("decoy_bb84", decoy_cfg, lambda at: scale * (1 + mu + keyed.y0 / at))]
    if bounding is not None:
        kernels.append(("bb84_single_photon", cfg, lambda at: scale))
    for protocol, config, tol in kernels:
        rate = lambda at: mp_spd_rate(keyed, bounding, config, at)  # noqa: E731
        assert _does_not_rise(protocol, keyed, rate, t, r, tol) is True, protocol


@pytest.mark.parametrize("protocol", GMCS)
@settings(max_examples=300, deadline=None)
@given(keyed=homodynes, other=homodynes, same=st.booleans(), t=st.one_of(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(1e-3, 1.0)), r=falls, source=sources)
# The preset 6 detectors: the rates are negative past about 6 km (t = 0.75).
@example(keyed=HomodyneSpec(82e6, 0.8, 0.43), other=HomodyneSpec(1e6, 0.8, 0.01), same=False, t=0.75, r=0.1,
         source=GmcsSource(v=40.0, beta=1.0, eps_pre=0.05))
def test_gmcs_rates_over_their_normalizer_do_not_rise(protocol, keyed, other, same, t, r, source):
    # The normalizer rule, rates of either sign: the DR rate (over 1) falls,
    # and the RR rate over t does not rise, from t to r*t. In 50 digits each
    # rate is off by 1e-50 of the error scale, so rate/N by that over N.
    kernel, pick_bounding, error_scale = GMCS[protocol]
    bounding = pick_bounding(keyed, other, same)
    scale = mpmath.mpf(error_scale(source, keyed, bounding)) * 1e-40  # an mpf: a subnormal scale keeps its size
    rate = lambda at: mp_rate(protocol, keyed, bounding, source, at)  # noqa: E731
    tol = lambda at: scale * _normalized(protocol, keyed, 1, at)  # noqa: E731
    assert _does_not_rise(protocol, keyed, rate, t, r, tol) is True
