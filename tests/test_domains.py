"""Every bounded input, at both ends of its rule.

For each field of the spec and config classes and each checked argument of
decoy and practical, a value just inside an end is accepted and one just
outside is refused with exactly "<name> must be <rule>, got <value>". For
the classes, non-finite values and bools are refused first, before any range.
"""

import math

import pytest

from dualdet.bb84 import Bb84Config
from dualdet.core import DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec
from dualdet.decoy import DecoyConfig, optimal_mu
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
            "eps_det": (">= 0", [closed_low(0.0)]),
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
            "eps_pre": (">= 0", [closed_low(0.0)]),
        },
    ),
    Bb84Config: (dict(basis_factor=0.5, f_ec=1.22), {"f_ec": ("in [1, 10]", [closed_low(1.0), closed_high(10.0)])}),
    DecoyConfig: (
        dict(mu=0.5, basis_factor=0.5, f_ec=1.22),
        {"mu": ("in (0, 700]", [open_low(0.0), closed_high(700.0)]), "f_ec": ("in [1, 10]", [closed_low(1.0), closed_high(10.0)])},
    ),
}

ACCUMULATION = dict(p=0.01, rep_rate=1e6, mu=1.0, overall_eta=1e-3, target_counts=0.0)

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
