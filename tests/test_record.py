"""The parameter types are core.Record subclasses: each keeps what
@dataclass(frozen=True) gave it, checked against a real frozen dataclass
with the same fields and values."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from dualdet import presets, scenario as scenario_module
from dualdet.bb84 import Bb84Config
from dualdet.core import ConfigError, DomainError, GmcsSource, HomodyneSpec, LinkSpec, Record, SpdSpec
from dualdet.decoy import DecoyConfig
from dualdet.presets import FigurePreset, figure_preset
from dualdet.scenario import Scenario
from dualdet.sweep import RateCurve

M = dataclasses.MISSING
PRESET = figure_preset(8)

#: class -> (its fields and their defaults, in annotation order; an instance)
RECORDS = {
    SpdSpec: ([("rep_rate", M), ("eta_d", M), ("y0", M), ("e_det", M)], presets.TES_SPD),
    HomodyneSpec: ([("rep_rate", M), ("g_det", M), ("eps_det", M)], presets.FAST_HOMODYNE),
    LinkSpec: ([("alpha", M), ("length", 0.0), ("g_bob", 1.0), ("switch_loss", 0.0)],
               PRESET.scenarios["dual"].link),
    GmcsSource: ([("v", M), ("beta", M), ("eps_pre", 0.0)], presets.GMCS_SOURCE_REALISTIC),
    Bb84Config: ([("basis_factor", M), ("f_ec", M)], presets.BB84_CONFIG),
    DecoyConfig: ([("mu", M), ("basis_factor", M), ("f_ec", M)], presets.DECOY_CONFIG),
    Scenario: ([("protocol", M), ("mode", M), ("link", M), ("config", M), ("fast", None), ("slow", None)],
               PRESET.scenarios["dual"]),
    RateCurve: ([("lengths", M), ("raw", M)], RateCurve((0.0, 0.5, 1.0), (2.5, 0.0, -1.0))),
    FigurePreset: ([("fig_id", M), ("description", M), ("scenarios", M), ("l_min", M), ("l_max", M), ("step", M)],
                   PRESET),
}
#: class -> a field and another valid value for it
DIFFERENT = {
    SpdSpec: ("e_det", 0.02), HomodyneSpec: ("eps_det", 0.5), LinkSpec: ("switch_loss", 0.0),
    GmcsSource: ("beta", 0.9), Bb84Config: ("basis_factor", 1.0), DecoyConfig: ("mu", 0.5),
    Scenario: ("mode", "single_fast"), RateCurve: ("raw", (2.5, 0.0, -2.0)), FigurePreset: ("fig_id", 9),
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=[cls.__name__ for cls in RECORDS])


def names(cls):
    return [name for name, _ in RECORDS[cls][0]]


def values(record):
    return [getattr(record, name) for name in names(type(record))]


def twin(record):
    """record's fields and values in a frozen dataclass of the same name."""
    made = dataclasses.make_dataclass(type(record).__name__, names(type(record)), frozen=True)
    return made(*values(record))


def outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as exc:  # FigurePreset holds a dict, so neither kind is hashable
        return type(exc), str(exc)


@CLASSES
def test_repr_and_hash_are_the_dataclass_ones(cls):
    record = RECORDS[cls][1]
    assert isinstance(record, Record)
    assert repr(record) == repr(twin(record))
    assert outcome(hash, record) == outcome(hash, twin(record))


@CLASSES
def test_equal_fields_are_equal_records(cls):
    record = RECORDS[cls][1]
    copies = (cls(*values(record)), dataclasses.replace(record), copy.deepcopy(record),
              pickle.loads(pickle.dumps(record)))
    for other in copies:
        assert other is not record and other == record and not other != record
        assert outcome(hash, other) == outcome(hash, record)
    assert record != twin(record) and twin(record) != record and record != object()  # another class
    name, value = DIFFERENT[cls]
    assert getattr(record, name) != value and record != dataclasses.replace(record, **{name: value})


@CLASSES
def test_fields_are_the_annotations_in_order(cls):
    record = RECORDS[cls][1]
    expected = RECORDS[cls][0]
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    for of in (cls, record):
        assert [(f.name, f.default) for f in dataclasses.fields(of)] == expected
    assert cls.__match_args__ == tuple(names(cls))
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, inspect.Parameter.empty if p.default is p.empty else p.default) for p in parameters] == [
        (name, inspect.Parameter.empty if default is M else default) for name, default in expected]
    assert dataclasses.asdict(record) == dataclasses.asdict(twin(record))


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    record = RECORDS[cls][1]
    before = values(record)
    for name in (*names(cls), "unknown_name"):
        with pytest.raises(AttributeError, match=f"{name!r}"):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError, match=f"{name!r}"):
            delattr(record, name)
    assert values(record) == before and not hasattr(record, "unknown_name")


def test_records_match_by_position():
    match RECORDS[LinkSpec][1]:
        case LinkSpec(alpha, length, g_bob, switch_loss):
            assert (alpha, length, g_bob, switch_loss) == (0.21, 0.0, 0.16, 3.0)
        case _:
            pytest.fail("LinkSpec did not match by position")


def test_construction_runs_the_checks():
    # check_fields where the class has RULES, then __post_init__; replace() builds through __init__ too.
    with pytest.raises(DomainError, match="alpha must be >= 0 dB/km"):
        LinkSpec(-1.0)
    with pytest.raises(DomainError, match="eta_d and y0 must not both be 0"):
        dataclasses.replace(presets.TES_SPD, eta_d=0.0, y0=0.0)
    with pytest.raises(DomainError, match="basis_factor must be 0.5 or 1.0"):
        Bb84Config(0.25, 1.22)
    with pytest.raises(ConfigError, match="unknown mode 'triple'"):
        dataclasses.replace(RECORDS[Scenario][1], mode="triple")
    with pytest.raises(DomainError, match="strictly increasing"):
        RateCurve((1.0, 0.0), (1.0, 1.0))
    with pytest.raises(TypeError, match=r"LinkSpec.__init__\(\) missing 1 required positional argument: 'alpha'"):
        LinkSpec()


def test_scenario_keeps_its_plan_and_proof_constants(count_calls):
    calls = {name: count_calls(getattr(scenario_module, name)) for name in ("_proof_length", "_normalizer")}
    dual = dataclasses.replace(RECORDS[Scenario][1])  # built after the counters are in place
    assert len(dual._plan) == 10 and dual._error_scale > 0.0
    first = dual._proof_length, dual._normalizer
    assert (dual._proof_length, dual._normalizer) == first
    assert {name: len(made) for name, made in calls.items()} == {"_proof_length": 1, "_normalizer": 1}
    assert dataclasses.replace(dual) == dual  # the kept values are not fields
    assert isinstance(Scenario.__dict__["_proof_length"], scenario_module._Kept)
