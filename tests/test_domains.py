"""Every bounded input, at both ends of its rule.

For each field of the spec and config classes and each checked argument of
the rate kernels, decoy and practical, a value just inside an end is accepted and one just
outside is refused with exactly "<name> must be <rule>, got <value>". For
the classes, non-finite values and bools are refused first, before any range.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from dualdet.bb84 import Bb84Config, bb84_rate_dual
from dualdet.core import DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec, _bounds, check_fields, check_number
from dualdet.decoy import DecoyConfig, decoy_rate_dual, optimal_mu
from dualdet.gmcs import gmcs_dr_rate_dual, gmcs_rr_rate_dual
from dualdet.practical import accumulation_time, choice_probabilities, max_slow_probability, multi_pulse_qber


def closed_low(x):
    return x, math.nextafter(x, -math.inf)


def open_low(x):
    return math.nextafter(x, math.inf), x


def closed_high(x):
    return x, math.nextafter(x, math.inf)


def open_high(x):
    return math.nextafter(x, -math.inf), x


#: class -> (valid keyword arguments, {field: (rule, its ends as (inside, outside) pairs)}).
CLASSES = {
    SpdSpec: (
        dict(rep_rate=1e9, eta_d=0.1, y0=1e-6, e_det=0.01),
        {
            "rep_rate": ("in (0, 1e15]", [open_low(0.0), closed_high(1e15)]),
            "eta_d": ("in [0, 1]", [closed_low(0.0), closed_high(1.0)]),
            "y0": ("in [0, 1)", [closed_low(0.0), open_high(1.0)]),
            "e_det": ("in [0, 0.5]", [closed_low(0.0), closed_high(0.5)]),
        },
    ),
    HomodyneSpec: (
        dict(rep_rate=1e7, g_det=0.6, eps_det=0.1),
        {
            "rep_rate": ("in (0, 1e15]", [open_low(0.0), closed_high(1e15)]),
            "g_det": ("in (0, 1]", [open_low(0.0), closed_high(1.0)]),
            "eps_det": ("in [0, 1e30]", [closed_low(0.0), closed_high(1e30)]),
        },
    ),
    LinkSpec: (
        dict(alpha=0.2, length=0.0, g_bob=0.5, switch_loss=1.0),
        {
            "alpha": (">= 0 dB/km", [closed_low(0.0)]),
            "length": (">= 0 km", [closed_low(0.0)]),
            "g_bob": ("in (0, 1]", [open_low(0.0), closed_high(1.0)]),
            "switch_loss": (">= 0 dB", [closed_low(0.0)]),
        },
    ),
    GmcsSource: (
        dict(v=20.0, beta=0.9, eps_pre=0.01),
        {
            "v": ("in (1, 1e270]", [open_low(1.0), closed_high(1e270)]),
            "beta": ("in (0, 1]", [open_low(0.0), closed_high(1.0)]),
            "eps_pre": ("in [0, 1e30]", [closed_low(0.0), closed_high(1e30)]),
        },
    ),
    Bb84Config: (dict(basis_factor=0.5, f_ec=1.22), {"f_ec": ("in [1, 10]", [closed_low(1.0), closed_high(10.0)])}),
    DecoyConfig: (
        dict(mu=0.5, basis_factor=0.5, f_ec=1.22),
        {"mu": ("in (0, 700]", [open_low(0.0), closed_high(700.0)]), "f_ec": ("in [1, 10]", [closed_low(1.0), closed_high(10.0)])},
    ),
}

ACCUMULATION = dict(p=0.01, rep_rate=1e6, mu=1.0, overall_eta=1e-3, target_counts=0.0)

_SPDS = dict(keyed=SpdSpec(1e9, 0.1, 1e-6, 0.01), bounding=SpdSpec(1e6, 0.5, 1e-7, 0.01))
_HOMODYNES = dict(keyed=HomodyneSpec(1e7, 0.6, 0.1), bounding=HomodyneSpec(1e6, 0.6, 0.01))
#: The rate kernels, each with valid keyword arguments but t.
KERNELS = [
    (bb84_rate_dual, dict(_SPDS, cfg=Bb84Config(0.5, 1.22))),
    (decoy_rate_dual, dict(_SPDS, cfg=DecoyConfig(0.5, 0.5, 1.22))),
    (gmcs_dr_rate_dual, dict(_HOMODYNES, source=GmcsSource(20.0, 0.9, 0.01))),
    (gmcs_rr_rate_dual, dict(_HOMODYNES, source=GmcsSource(20.0, 0.9, 0.01))),
]

#: (function, valid keyword arguments, argument, rule, its ends as (inside, outside) pairs).
ARGUMENTS = [
    # Within about 1e-8 of e_det = 0.5, H2 rounds to 1 (test_decoy covers that edge).
    (optimal_mu, dict(e_det=0.018, f_ec=1.22), "e_det", "in (0, 0.5)", [open_low(0.0), (0.49, 0.5)]),
    (optimal_mu, dict(e_det=0.018, f_ec=1.22), "f_ec", "in [1, 10]", [closed_low(1.0), closed_high(10.0)]),
    (choice_probabilities, dict(p=0.01, k=5), "p", "in [0, 1]", [closed_low(0.0), closed_high(1.0)]),
    (multi_pulse_qber, dict(p=0.01, k=5), "p", "in [0, 1]", [closed_low(0.0), closed_high(1.0)]),
    (max_slow_probability, dict(k=5, qber_budget=0.01), "qber_budget", "in (0, 0.25)",
     [open_low(0.0), open_high(0.25)]),
    (accumulation_time, ACCUMULATION, "p", "in [0, 1]", [closed_low(0.0), closed_high(1.0)]),
    *((accumulation_time, ACCUMULATION, name, ">= 0", [closed_low(0.0)]) for name in ACCUMULATION if name != "p"),
    *((kernel, {**kwargs, "t": 0.5}, "t", "in [0, 1]", [closed_low(0.0), closed_high(1.0)])
      for kernel, kwargs in KERNELS),
]

CASES = [
    pytest.param(cls, kwargs, name, rule, inside, outside, id=f"{cls.__name__}.{name}={outside!r}")
    for cls, (kwargs, rules) in CLASSES.items()
    for name, (rule, ends) in rules.items()
    for inside, outside in ends
] + [
    pytest.param(fn, kwargs, name, rule, inside, outside, id=f"{fn.__name__}.{name}={outside!r}")
    for fn, kwargs, name, rule, ends in ARGUMENTS
    for inside, outside in ends
]


@pytest.mark.filterwarnings("ignore::UserWarning")  # multi_pulse_qber at p = 1 is outside first order
@pytest.mark.parametrize("call, kwargs, name, rule, inside, outside", CASES)
def test_rule_both_ends(call, kwargs, name, rule, inside, outside):
    try:
        call(**{**kwargs, name: inside})
    except DomainError as exc:  # optimal_mu at e_det = 0.49 has no root: a later check
        assert not str(exc).startswith(f"{name} must be"), exc
    with pytest.raises(DomainError) as exc:
        call(**{**kwargs, name: outside})
    assert str(exc.value) == f"{name} must be {rule}, got {outside}"


@pytest.mark.parametrize("t, message", [
    (-0.5, "t must be in [0, 1], got -0.5"),
    (math.nan, "t must be a finite number, got nan"),
])
@pytest.mark.parametrize("kernel, kwargs", KERNELS, ids=[kernel.__name__ for kernel, _ in KERNELS])
def test_kernels_refuse_t_outside_0_1(kernel, kwargs, t, message):
    # t is checked before anything else: the kernels' monotone rules assume t <= 1.
    with pytest.raises(DomainError) as exc:
        kernel(**kwargs, t=t)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize(
    "cls, name", [(cls, name) for cls, (kwargs, _) in CLASSES.items() for name in kwargs]
)
def test_fields_refuse_non_finite(cls, name, bad):
    kwargs = CLASSES[cls][0]
    with pytest.raises(DomainError) as exc:
        cls(**{**kwargs, name: bad})
    assert str(exc.value) == f"{name} must be a finite number, got {bad!r}"


@pytest.mark.parametrize("cls", list(CLASSES))
def test_non_finite_reported_before_range(cls):
    kwargs, rules = CLASSES[cls]
    first = next(iter(rules))
    last = list(kwargs)[-1]
    bad = {**kwargs, first: rules[first][1][0][1], last: math.nan}
    if cls is Bb84Config:  # its first field is a set, not a range
        bad["basis_factor"] = 0.7
    with pytest.raises(DomainError, match=f"^{last} must be a finite number, got nan$"):
        cls(**bad)


@pytest.mark.parametrize("eta_d, y0", [(0.0, 0.0), (0.0, 5e-324), (5e-324, 0.0)])
def test_spd_must_be_able_to_click(eta_d, y0):
    # Each field's own rule admits 0, but a detector with neither efficiency
    # nor dark counts never clicks, so no QBER is defined at any length.
    kwargs = dict(CLASSES[SpdSpec][0], eta_d=eta_d, y0=y0)
    if eta_d or y0:
        SpdSpec(**kwargs)
        return
    with pytest.raises(DomainError, match="^eta_d and y0 must not both be 0: the detector would never click$"):
        SpdSpec(**kwargs)


@pytest.mark.parametrize("g_det, eps_det", [(1e-6, 1e30), (1e-300, 1e-264), (5e-324, 0.0),
                                            (math.nextafter(1e-6, 0.0), 1e30), (5e-324, 1e-287), (1e-300, 1e30)])
def test_homodyne_excess_noise_over_efficiency_is_bounded(g_det, eps_det):
    # Each field's own rule admits these, but the GMCS rates read eps_det/g_det:
    # up to 1e36 every product in them stays finite (v <= 1e270).
    kwargs = dict(CLASSES[HomodyneSpec][0], g_det=g_det, eps_det=eps_det)
    if eps_det / g_det <= 1e36:
        HomodyneSpec(**kwargs)
        return
    with pytest.raises(DomainError) as exc:
        HomodyneSpec(**kwargs)
    assert str(exc.value) == f"eps_det/g_det must be at most 1e36, got {eps_det / g_det}"


#: The rules each class passed to check_fields before the classes declared them.
REF_RULES = {
    SpdSpec: dict(rep_rate="in (0, 1e15]", eta_d="in [0, 1]", y0="in [0, 1)", e_det="in [0, 0.5]"),
    HomodyneSpec: dict(rep_rate="in (0, 1e15]", g_det="in (0, 1]", eps_det="in [0, 1e30]"),
    LinkSpec: dict(alpha=">= 0 dB/km", length=">= 0 km", g_bob="in (0, 1]", switch_loss=">= 0 dB"),
    GmcsSource: dict(v="in (1, 1e270]", beta="in (0, 1]", eps_pre="in [0, 1e30]"),
    Bb84Config: {},
    DecoyConfig: dict(mu="in (0, 700]"),
}


def ref_check_fields(spec, **rules):
    """check_fields as it was: every field finite, then the rules in the order given."""
    for name in spec.__dataclass_fields__:
        value = getattr(spec, name)
        if value.__class__ is not float or value - value:
            check_number(name, value)
    for name, rule in rules.items():
        low, high = _bounds(rule)
        if not low < getattr(spec, name) < high:
            check_number(name, getattr(spec, name), rule)


def rule_ends(rule):
    """Each number a rule names, the floats on both sides of it, and it as an int."""
    ends = [float(x) for x in re.findall(r"\d[\d.e]*", rule or "")]
    return [p for x in ends for p in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf), int(x))]


SPECIAL_VALUES = [0, 1, -1, 10**400, -10**400, True, False, None, "0.5", math.nan, math.inf, -math.inf, -0.0, 5e-324]


def field_values(rule):
    return st.one_of(st.sampled_from(rule_ends(rule) + SPECIAL_VALUES), st.floats(), st.integers())


def outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # any refusal: its type and message are compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cls", list(REF_RULES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_fields_matches_reference(cls, data):
    # Any mix of valid and invalid fields: the same refusal, message and all, or both accept.
    valid, rules = CLASSES[cls][0], REF_RULES[cls]
    spec = object.__new__(cls)  # no __post_init__: check_fields alone is compared
    for name, value in valid.items():
        drawn = data.draw(st.one_of(st.just(value), field_values(rules.get(name))), label=name)
        object.__setattr__(spec, name, drawn)
    assert outcome(check_fields, spec) == outcome(ref_check_fields, spec, **rules)
