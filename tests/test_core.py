import math

import pytest
from hypothesis import given, strategies as st

from dualdet.core import (
    DomainError,
    GmcsSource,
    HomodyneSpec,
    LinkSpec,
    SpdSpec,
    binary_entropy,
    channel_transmittance,
    db_to_transmittance,
)

# High-precision reference for H2(0.018), frozen from a 50-digit evaluation
# of -x*log2(x) - (1-x)*log2(1-x).
H2_0018 = 0.13005884617909683


def test_binary_entropy_examples():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.018) == pytest.approx(H2_0018, rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-1e-9)
    with pytest.raises(DomainError):
        binary_entropy(1.0 + 1e-9)
    with pytest.raises(DomainError):
        binary_entropy(math.nan)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_binary_entropy_concave(x1, x2, t):
    mix = t * x1 + (1.0 - t) * x2
    lhs = binary_entropy(min(mix, 1.0))
    rhs = t * binary_entropy(x1) + (1.0 - t) * binary_entropy(x2)
    assert lhs >= rhs - 1e-12


def test_channel_transmittance_examples():
    assert channel_transmittance(0.21, 0.0) == 1.0
    assert channel_transmittance(0.21, 100.0) == pytest.approx(7.943282347242814e-3, rel=1e-12)
    assert channel_transmittance(0.21, 50.0) == pytest.approx(8.912509381337455e-2, rel=1e-12)
    with pytest.raises(DomainError):
        channel_transmittance(-0.1, 10.0)
    with pytest.raises(DomainError):
        channel_transmittance(0.21, -1.0)
    with pytest.raises(DomainError):
        channel_transmittance(math.nan, 10.0)
    with pytest.raises(DomainError):
        channel_transmittance(0.21, math.nan)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=300.0),
    st.floats(min_value=0.0, max_value=300.0),
)
def test_channel_transmittance_multiplicative(alpha, l1, l2):
    combined = channel_transmittance(alpha, l1 + l2)
    split = channel_transmittance(alpha, l1) * channel_transmittance(alpha, l2)
    assert math.isclose(combined, split, rel_tol=1e-12)


def test_db_to_transmittance():
    assert db_to_transmittance(0.0) == 1.0
    assert db_to_transmittance(10.0) == pytest.approx(0.1, rel=1e-15)
    assert db_to_transmittance(3.0) == pytest.approx(0.5011872336272722, rel=1e-12)
    with pytest.raises(DomainError):
        db_to_transmittance(-0.5)
    with pytest.raises(DomainError):
        db_to_transmittance(math.nan)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rep_rate=0.0, eta_d=0.5, y0=1e-6, e_det=0.01),
        dict(rep_rate=1e9, eta_d=1.5, y0=1e-6, e_det=0.01),
        dict(rep_rate=1e9, eta_d=0.5, y0=1.0, e_det=0.01),
        dict(rep_rate=1e9, eta_d=0.5, y0=1e-6, e_det=0.6),
    ],
)
def test_spd_spec_validation(kwargs):
    with pytest.raises(DomainError):
        SpdSpec(**kwargs)


def test_homodyne_spec_validation():
    HomodyneSpec(rep_rate=1e6, g_det=0.8, eps_det=0.01)
    with pytest.raises(DomainError):
        HomodyneSpec(rep_rate=1e6, g_det=0.0, eps_det=0.01)
    with pytest.raises(DomainError):
        HomodyneSpec(rep_rate=1e6, g_det=0.8, eps_det=-0.1)


def test_link_spec():
    link = LinkSpec(alpha=0.21, length=100.0, g_bob=0.16, switch_loss=3.0)
    assert channel_transmittance(link.alpha, link.length) == pytest.approx(7.943282347242814e-3, rel=1e-12)
    assert db_to_transmittance(link.switch_loss) == pytest.approx(0.5011872336272722, rel=1e-12)
    with pytest.raises(DomainError):
        LinkSpec(alpha=0.21, length=10.0, g_bob=0.0)


def test_gmcs_source_validation():
    GmcsSource(v=40.0, beta=1.0, eps_pre=0.05)
    with pytest.raises(DomainError):
        GmcsSource(v=1.0, beta=1.0)
    with pytest.raises(DomainError):
        GmcsSource(v=40.0, beta=0.0)
