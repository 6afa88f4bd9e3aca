import copy
import dataclasses
import importlib.util
import itertools
import json
import math
import operator
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dualdet import bb84, gmcs
from dualdet.bb84 import Bb84Config, bb84_rate_dual
from dualdet.core import (
    DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec, channel_transmittance, db_to_transmittance,
)
from dualdet.decoy import DecoyConfig, decoy_rate_dual, optimal_mu
from dualdet.gmcs import gmcs_dr_rate_dual, gmcs_rr_rate_dual
from dualdet.presets import FIGURE_IDS, figure_preset
from dualdet.scenario import (
    _ARMS, _PROTOCOLS, MODES, PROTOCOLS, ConfigError, Scenario, _no_arm, _normalizer, _proof_length, _twins,
    evaluate, load_scenario, scenario_from_dict,
)
from dualdet.sweep import length_grid

ROOT = Path(__file__).resolve().parents[1]

BB84_DUAL = {
    "protocol": "bb84_single_photon",
    "mode": "dual",
    "link": {"alpha_db_per_km": 0.21, "length_km": 0, "g_bob": 0.16, "switch_loss_db": 0},
    "detectors": [
        {"spd": {"rep_rate_hz": 1e9, "eta_d": 0.059, "y0": 1.3e-5, "e_det": 0.018}},
        {"spd": {"rep_rate_hz": 2.5e6, "eta_d": 0.5, "y0": 3e-7, "e_det": 0.018}},
    ],
    "config": {"basis_factor": 0.5, "f_ec": 1.22},
}

GMCS_RR_DUAL = {
    "protocol": "gmcs_rr",
    "mode": "dual",
    "link": {"alpha_db_per_km": 0.21, "length_km": 0, "g_bob": 1.0, "switch_loss_db": 0},
    "detectors": [
        {"homodyne": {"rep_rate_hz": 82e6, "g_det": 0.8, "eps_det": 0.43}},
        {"homodyne": {"rep_rate_hz": 1e6, "g_det": 0.8, "eps_det": 0.01}},
    ],
    "config": {"v": 40, "beta": 1.0, "eps_pre": 0.05},
}


def test_round_trip_through_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BB84_DUAL))
    scenario = load_scenario(path)
    assert scenario.protocol == "bb84_single_photon"
    assert scenario.fast.rep_rate == 1e9
    assert scenario.slow.eta_d == 0.5
    assert scenario.link.g_bob == 0.16


def test_evaluate_dispatches_to_bb84():
    scenario = scenario_from_dict(BB84_DUAL)
    fast = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=1.3e-5, e_det=0.018)
    slow = SpdSpec(rep_rate=2.5e6, eta_d=0.5, y0=3e-7, e_det=0.018)
    t = channel_transmittance(0.21, 80.0) * 0.16
    cfg = Bb84Config(basis_factor=0.5, f_ec=1.22)
    assert evaluate(scenario, 80.0) == bb84_rate_dual(fast, slow, cfg, t)

    single = copy.deepcopy(BB84_DUAL)
    single["mode"] = "single_slow"
    assert evaluate(scenario_from_dict(single), 80.0) == bb84_rate_dual(slow, slow, cfg, t)

    # The switch is applied once, by the scenario, as part of t.
    lossy = copy.deepcopy(BB84_DUAL)
    lossy["link"]["switch_loss_db"] = 3.0
    t_lossy = channel_transmittance(0.21, 80.0) * (0.16 * db_to_transmittance(3.0))
    assert evaluate(scenario_from_dict(lossy), 80.0) == bb84_rate_dual(fast, slow, cfg, t_lossy)


def test_single_modes_ignore_switch_loss():
    lossy = copy.deepcopy(BB84_DUAL)
    lossy["link"]["switch_loss_db"] = 3.0
    lossy["mode"] = "single_fast"
    lossless = copy.deepcopy(lossy)
    lossless["link"]["switch_loss_db"] = 0.0
    assert evaluate(scenario_from_dict(lossy), 50.0) == evaluate(
        scenario_from_dict(lossless), 50.0
    )
    # The dual mode does feel the switch.
    dual_lossy = copy.deepcopy(BB84_DUAL)
    dual_lossy["link"]["switch_loss_db"] = 3.0
    assert evaluate(scenario_from_dict(dual_lossy), 50.0) < evaluate(
        scenario_from_dict(BB84_DUAL), 50.0
    )


def test_evaluate_dispatches_to_gmcs_rr():
    scenario = scenario_from_dict(GMCS_RR_DUAL)
    t = channel_transmittance(0.21, 5.0)
    expected = gmcs_rr_rate_dual(scenario.fast, scenario.slow, scenario.config, t)
    assert evaluate(scenario, 5.0) == expected

    lossy = copy.deepcopy(GMCS_RR_DUAL)
    lossy["link"]["switch_loss_db"] = 3.0
    t_lossy = channel_transmittance(0.21, 5.0) * db_to_transmittance(3.0)
    expected = gmcs_rr_rate_dual(scenario.fast, scenario.slow, scenario.config, t_lossy)
    assert evaluate(scenario_from_dict(lossy), 5.0) == expected

    # g_bob is the receiver optics in front of both arms, for GMCS as for BB84.
    lossy["link"]["g_bob"] = 0.5
    t_optics = channel_transmittance(0.21, 5.0) * (0.5 * db_to_transmittance(3.0))
    expected = gmcs_rr_rate_dual(scenario.fast, scenario.slow, scenario.config, t_optics)
    assert evaluate(scenario_from_dict(lossy), 5.0) == expected


def test_decoy_no_pa_mode():
    decoy = {
        "protocol": "decoy_bb84",
        "mode": "dual_no_pa",
        "link": {"alpha_db_per_km": 0.21, "g_bob": 0.16},
        "detectors": BB84_DUAL["detectors"],
        "config": {"mu": 0.73, "basis_factor": 0.5, "f_ec": 1.22},
    }
    no_pa = scenario_from_dict(decoy)
    with_pa = scenario_from_dict({**decoy, "mode": "dual"})
    assert evaluate(no_pa, 60.0) > evaluate(with_pa, 60.0)


DECOY_NO_PA = {
    "protocol": "decoy_bb84",
    "mode": "dual_no_pa",
    "link": {"alpha_db_per_km": 0.21, "g_bob": 0.16, "switch_loss_db": 1.5},
    "detectors": BB84_DUAL["detectors"],
    "config": {"mu": 0.73, "basis_factor": 0.5, "f_ec": 1.22},
}


@pytest.mark.parametrize("length", [0.0, 60.0, 130.0])
def test_decoy_no_pa_is_the_kernel_without_a_bounding_detector(length):
    # dual_no_pa keys with the fast detector behind the switch and charges
    # no privacy amplification, bit for bit.
    scenario = scenario_from_dict(DECOY_NO_PA)
    t = channel_transmittance(0.21, length) * (0.16 * db_to_transmittance(1.5))
    assert evaluate(scenario, length) == decoy_rate_dual(scenario.fast, None, scenario.config, t)


def test_decoy_no_pa_needs_only_the_fast_detector():
    both = scenario_from_dict(DECOY_NO_PA)
    fast_only = scenario_from_dict({**DECOY_NO_PA, "detectors": DECOY_NO_PA["detectors"][:1]})
    assert fast_only.slow is None
    for length in (0.0, 60.0, 130.0):
        assert evaluate(fast_only, length) == evaluate(both, length)


@pytest.mark.parametrize("mode", ["single_fast", "single_slow", "dual", "dual_no_pa"])
def test_drop_pa_key_rejected(mode):
    # dual_no_pa is the one spelling of "no privacy amplification".
    bad = {**DECOY_NO_PA, "mode": mode, "config": {**DECOY_NO_PA["config"], "drop_pa": True}}
    with pytest.raises(ConfigError) as info:
        scenario_from_dict(bad)
    assert str(info.value) == "unknown keys in config: ['drop_pa']"


def test_unknown_top_level_key_rejected():
    bad = copy.deepcopy(BB84_DUAL)
    bad["comment"] = "not allowed"
    with pytest.raises(ConfigError, match="unknown keys"):
        scenario_from_dict(bad)


def test_unknown_nested_keys_rejected():
    bad = copy.deepcopy(BB84_DUAL)
    bad["link"]["color"] = "blue"
    with pytest.raises(ConfigError, match="link"):
        scenario_from_dict(bad)
    bad = copy.deepcopy(BB84_DUAL)
    bad["detectors"][0]["spd"]["gain"] = 2
    with pytest.raises(ConfigError, match="detectors"):
        scenario_from_dict(bad)
    bad = copy.deepcopy(BB84_DUAL)
    bad["config"]["mu"] = 0.5
    with pytest.raises(ConfigError, match="config"):
        scenario_from_dict(bad)


def test_wrong_detector_kind_rejected():
    bad = copy.deepcopy(BB84_DUAL)
    bad["detectors"][0] = {"homodyne": {"rep_rate_hz": 82e6, "g_det": 0.8, "eps_det": 0.43}}
    with pytest.raises(ConfigError, match="kind"):
        scenario_from_dict(bad)


def test_unknown_protocol_and_mode_rejected():
    with pytest.raises(ConfigError, match="protocol"):
        scenario_from_dict({**copy.deepcopy(BB84_DUAL), "protocol": "b92"})
    with pytest.raises(ConfigError, match="mode"):
        scenario_from_dict({**copy.deepcopy(BB84_DUAL), "mode": "triple"})
    with pytest.raises(ConfigError, match="dual_no_pa"):
        scenario_from_dict({**copy.deepcopy(BB84_DUAL), "mode": "dual_no_pa"})


def test_dual_requires_two_detectors():
    bad = copy.deepcopy(BB84_DUAL)
    bad["detectors"] = bad["detectors"][:1]
    with pytest.raises(ConfigError, match="slow"):
        scenario_from_dict(bad)


def test_single_detector_entry_serves_single_modes():
    single = copy.deepcopy(BB84_DUAL)
    single["mode"] = "single_fast"
    single["detectors"] = single["detectors"][:1]
    assert scenario_from_dict(single).fast is not None

    slow_only = copy.deepcopy(BB84_DUAL)
    slow_only["mode"] = "single_slow"
    slow_only["detectors"] = slow_only["detectors"][1:]
    assert scenario_from_dict(slow_only).slow is not None


def test_rr_dual_efficiency_mismatch_rejected():
    bad = copy.deepcopy(GMCS_RR_DUAL)
    bad["detectors"][1]["homodyne"]["g_det"] = 0.75
    with pytest.raises(ConfigError, match="efficienc"):
        scenario_from_dict(bad)


def test_out_of_range_parameter_reported_as_config_error():
    bad = copy.deepcopy(BB84_DUAL)
    bad["detectors"][0]["spd"]["eta_d"] = 1.5
    with pytest.raises(ConfigError, match="eta_d"):
        scenario_from_dict(bad)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(path)


def test_scenario_constructor_validates():
    fast = SpdSpec(rep_rate=1e9, eta_d=0.059, y0=1.3e-5, e_det=0.018)
    link = LinkSpec(alpha=0.21, length=0.0, g_bob=0.16)
    with pytest.raises(ConfigError):
        Scenario(protocol="bb84_single_photon", mode="dual", link=link,
                 config=Bb84Config(basis_factor=0.5, f_ec=1.22), fast=fast, slow=None)


@pytest.mark.parametrize("link", [None, {"alpha": 0.21}, 0.21], ids=["None", "dict", "float"])
def test_scenario_refuses_a_link_that_is_not_a_link_spec(link):
    with pytest.raises(ConfigError, match=f"^link kind {type(link).__name__} is not LinkSpec$"):
        dataclasses.replace(figure_preset(1).scenarios["dual"], link=link)


DECOY_DUAL = {
    **BB84_DUAL, "protocol": "decoy_bb84", "config": {"mu": 0.73, "basis_factor": 0.5, "f_ec": 1.22},
}
GMCS_DR_DUAL = {**GMCS_RR_DUAL, "protocol": "gmcs_dr"}
NUMERIC_FIELDS = [
    (BB84_DUAL, ("link", key)) for key in ("alpha_db_per_km", "length_km", "g_bob", "switch_loss_db")
] + [
    (BB84_DUAL, ("detectors", 0, "spd", key)) for key in ("rep_rate_hz", "eta_d", "y0", "e_det")
] + [
    (GMCS_DR_DUAL, ("detectors", 1, "homodyne", key)) for key in ("rep_rate_hz", "g_det", "eps_det")
] + [
    (BB84_DUAL, ("config", key)) for key in ("basis_factor", "f_ec")
] + [
    (DECOY_DUAL, ("config", key)) for key in ("mu", "basis_factor", "f_ec")
] + [
    (GMCS_DR_DUAL, ("config", key)) for key in ("v", "beta", "eps_pre")
]


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), True, 10**400], ids=["NaN", "Infinity", "bool", "int-beyond-float"]
)
@pytest.mark.parametrize(
    "spec, path", NUMERIC_FIELDS,
    ids=[f"{spec['protocol']}-{'.'.join(map(str, path))}" for spec, path in NUMERIC_FIELDS],
)
def test_non_finite_and_bool_numbers_rejected(spec, path, value):
    bad = copy.deepcopy(spec)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match="must be a finite number"):
        scenario_from_dict(json.loads(json.dumps(bad)))


# eta_d and y0 may not both be 0, so a detector with eta_d = 0 draws y0 > 0.
SPDS = st.floats(0.0, 1.0).flatmap(lambda eta_d: st.builds(
    SpdSpec, rep_rate=st.floats(1e3, 1e11), eta_d=st.just(eta_d),
    y0=st.floats(0.0, 0.1, exclude_min=eta_d == 0.0), e_det=st.floats(0.0, 0.5),
))
HOMODYNES = st.builds(
    HomodyneSpec, rep_rate=st.floats(1e3, 1e9), g_det=st.floats(0.01, 1.0), eps_det=st.floats(0.0, 1.0)
)
SIFTING = dict(basis_factor=st.sampled_from((0.5, 1.0)), f_ec=st.floats(1.0, 2.0))
SOURCES = st.builds(
    GmcsSource, v=st.floats(1.01, 100.0), beta=st.floats(0.01, 1.0), eps_pre=st.floats(0.0, 0.2)
)
PROTOCOL_PARTS = {
    "bb84_single_photon": (SPDS, st.builds(Bb84Config, **SIFTING)),
    "decoy_bb84": (SPDS, st.builds(DecoyConfig, mu=st.floats(0.01, 2.0), **SIFTING)),
    "gmcs_dr": (HOMODYNES, SOURCES),
    "gmcs_rr": (HOMODYNES, SOURCES),
}
LINKS = st.builds(
    LinkSpec, alpha=st.floats(0.0, 1.0), length=st.floats(0.0, 300.0),
    g_bob=st.floats(0.01, 1.0), switch_loss=st.floats(0.0, 10.0),
)


def _outcome(scenario, length):
    try:
        return evaluate(scenario, length)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("mode", ["single_fast", "single_slow"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_single_equals_dual_with_one_detector(protocol, mode, data):
    # The single-detector receiver is the dual receiver with equal detectors
    # on both arms and no switch, bit for bit. The dual side gets an equal but
    # distinct copy, so its kernel computes both arms while the single
    # receiver's computes its one arm once.
    detectors, configs = PROTOCOL_PARTS[protocol]
    fast, slow, config = data.draw(detectors), data.draw(detectors), data.draw(configs)
    link, length = data.draw(LINKS), data.draw(st.floats(0.0, 300.0))
    single = Scenario(protocol=protocol, mode=mode, link=link, config=config, fast=fast, slow=slow)
    det = fast if mode == "single_fast" else slow
    dual = Scenario(
        protocol=protocol, mode="dual", link=dataclasses.replace(link, switch_loss=0.0),
        config=config, fast=det, slow=dataclasses.replace(det),
    )
    assert _outcome(single, length) == _outcome(dual, length)


@pytest.mark.parametrize("protocol, module, arm_function", [
    ("bb84_single_photon", bb84, "binary_entropy"),
    ("gmcs_dr", gmcs, "_arm"),
    ("gmcs_rr", gmcs, "_arm"),
], ids=["bb84_single_photon", "gmcs_dr", "gmcs_rr"])
@pytest.mark.parametrize("role, arms", [("fast", 1), ("slow", 1), ("dual", 2)])
def test_each_detector_arm_is_computed_once(count_calls, protocol, module, arm_function, role, arms):
    # A single-detector kernel gets one detector on both arms and computes it once.
    calls = count_calls(getattr(module, arm_function))
    fig_id = next(f.fig_id for f in FIGURES if f.scenarios["dual"].protocol == protocol)
    evaluate(figure_preset(fig_id).scenarios[role], 10.0)
    assert len(calls) == arms


FIGURES = [figure_preset(i) for i in FIGURE_IDS]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clamped_rate_never_rises_with_switch_loss(protocol, data):
    # Only the clamped rate is monotone: a negative raw rate moves toward 0
    # as the switch loss lowers the gain.
    preset = data.draw(st.sampled_from([f for f in FIGURES if f.scenarios["dual"].protocol == protocol]))
    length = data.draw(st.sampled_from(length_grid(preset.l_min, preset.l_max, preset.step)))
    s1, s2 = sorted(data.draw(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2, unique=True)))
    dual = preset.scenarios["dual"]

    def clamped(loss):
        lossy = dataclasses.replace(dual, link=dataclasses.replace(dual.link, switch_loss=loss))
        return max(0.0, evaluate(lossy, length))

    assert clamped(s2) <= clamped(s1) * (1.0 + 1e-12)


#: Every valid protocol and mode on preset parameters: presets 1, 4, 5 and 6
#: are BB84, decoy BB84, GMCS DR and GMCS RR, plus decoy's dual_no_pa.
PRESET_SCENARIOS = {
    f"fig{i}_{role}": scenario for i in (1, 4, 5, 6) for role, scenario in figure_preset(i).scenarios.items()
}
PRESET_SCENARIOS["fig4_dual_no_pa"] = dataclasses.replace(figure_preset(4).scenarios["dual"], mode="dual_no_pa")


@pytest.mark.parametrize("name", PRESET_SCENARIOS)
@settings(max_examples=40, deadline=None)
@given(length=st.floats(0.0, 1e5))
# From about 14,700 km the GMCS transmittance is subnormal, and past about
# 15,400 km it is 0: the rates there are finite too.
@example(length=14700.0)
@example(length=15000.0)
def test_rate_is_finite_or_refused(name, length):
    try:
        rate = evaluate(PRESET_SCENARIOS[name], length)
    except (DomainError, ZeroDivisionError):
        return
    assert isinstance(rate, float) and math.isfinite(rate)


@pytest.mark.parametrize("fig_id, limit", [
    (5, -218_199_051.89),  # DR: -rep_rate*log2(v)/2, rep_rate 82 MHz and v = 40
    (6, -1_177_134.02),  # RR: -rep_rate*log2(1 + eps_det) of the quiet arm, 0.01
])
@pytest.mark.parametrize("length", [7760.0, 15000.0, 1e5])
def test_gmcs_dual_reaches_its_limit_far_out(fig_id, limit, length):
    # At 7,760 km the input-referred RR bound's g*g underflows, and at 15,000 km
    # g is subnormal: there the rate is its g -> 0 limit.
    assert round(evaluate(figure_preset(fig_id).scenarios["dual"], length), 2) == limit


# Every key of every JSON object, per object: (scenario, path to the object,
# the name errors use for it, required keys, optional keys with the value
# the parsed spec takes without them).
SCHEMA = [
    (BB84_DUAL, ("link",), "link", ("alpha_db_per_km",),
     {"length_km": ("link", "length", 0.0), "g_bob": ("link", "g_bob", 1.0),
      "switch_loss_db": ("link", "switch_loss", 0.0)}),
    (BB84_DUAL, ("detectors", 0, "spd"), "detectors[0]", ("rep_rate_hz", "eta_d", "y0", "e_det"), {}),
    (GMCS_DR_DUAL, ("detectors", 0, "homodyne"), "detectors[0]", ("rep_rate_hz", "g_det", "eps_det"), {}),
    (BB84_DUAL, ("config",), "config", ("basis_factor", "f_ec"), {}),
    (DECOY_DUAL, ("config",), "config", ("mu", "basis_factor", "f_ec"), {}),
    (GMCS_DR_DUAL, ("config",), "config", ("v", "beta"), {"eps_pre": ("config", "eps_pre", 0.0)}),
]
REQUIRED_KEYS = [(spec, path, where, key) for spec, path, where, required, _ in SCHEMA for key in required]
OPTIONAL_KEYS = [
    (spec, path, key, default) for spec, path, _, _, optional in SCHEMA for key, default in optional.items()
]


def _without(spec, path, key):
    data = copy.deepcopy(spec)
    target = data
    for step in path:
        target = target[step]
    del target[key]
    return data


@pytest.mark.parametrize(
    "spec, path, where, key", REQUIRED_KEYS,
    ids=[f"{spec['protocol']}-{'.'.join(map(str, path))}-{key}" for spec, path, _, key in REQUIRED_KEYS],
)
def test_schema_required_key_missing(spec, path, where, key):
    with pytest.raises(ConfigError) as info:
        scenario_from_dict(_without(spec, path, key))
    assert str(info.value) == f"missing keys in {where}: [{key!r}]"


@pytest.mark.parametrize(
    "spec, path, key, default", OPTIONAL_KEYS,
    ids=[f"{spec['protocol']}-{'.'.join(map(str, path))}-{key}" for spec, path, key, _ in OPTIONAL_KEYS],
)
def test_schema_optional_key_default(spec, path, key, default):
    owner, field, value = default
    parsed = getattr(scenario_from_dict(_without(spec, path, key)), owner)
    assert getattr(parsed, field) == value
    assert type(getattr(parsed, field)) is type(value)


def test_schema_every_optional_key_absent():
    data = _without(_without(_without(BB84_DUAL, ("link",), "length_km"), ("link",), "g_bob"), ("link",), "switch_loss_db")
    assert scenario_from_dict(data).link == LinkSpec(alpha=0.21)
    assert scenario_from_dict(_without(GMCS_DR_DUAL, ("config",), "eps_pre")).config == GmcsSource(v=40, beta=1.0)


def _set(path, key, value):
    def edit(data):
        for step in path:
            data = data[step]
        data[key] = value
    return edit


def _rr_unequal_g_det(data):
    data.update(protocol="gmcs_rr", mode="dual", config={"v": 20.0, "beta": 0.8}, detectors=[
        {"homodyne": {"rep_rate_hz": 8.2e7, "g_det": 0.8, "eps_det": 0.43}},
        {"homodyne": {"rep_rate_hz": 1e6, "g_det": 0.6, "eps_det": 0.01}},
    ])


class Subclass(dict):
    pass


#: (edit of a copy of BB84_DUAL, the exact ConfigError message): the scan
#: workload's malformed kinds first, then the other refusals of scenario_from_dict.
REFUSALS = {
    "unknown_key": (_set(("link",), "colour", 1.0), "unknown keys in link: ['colour']"),
    "missing_key": (lambda d: d["detectors"][0]["spd"].pop("rep_rate_hz"),
                    "missing keys in detectors[0]: ['rep_rate_hz']"),
    "out_of_range": (_set(("link",), "g_bob", 1.5), "g_bob must be in (0, 1], got 1.5"),
    "rr_unequal_g_det": (_rr_unequal_g_det, "reverse reconciliation with dual detectors requires equal "
                                            "detection efficiencies, got 0.8 and 0.6"),
    "bool": (_set(("link",), "g_bob", True), "g_bob must be a finite number, got True"),
    "nan": (_set(("link",), "alpha_db_per_km", math.nan), "alpha must be a finite number, got nan"),
    "infinity": (_set(("detectors", 0, "spd"), "rep_rate_hz", math.inf), "rep_rate must be a finite number, got inf"),
    "unknown_and_missing": (lambda d: (d["link"].pop("alpha_db_per_km"), d["link"].update(colour=1.0)),
                            "unknown keys in link: ['colour']"),
    "scenario_key": (_set((), "extra", 1), "unknown keys in scenario: ['extra']"),
    "scenario_missing": (lambda d: d.pop("config"), "missing keys in scenario: ['config']"),
    "link_array": (_set((), "link", [1]), "link must be a JSON object"),
    "config_string": (_set((), "config", "x"), "config must be a JSON object"),
    "detector_number": (_set(("detectors", 0), "spd", 3), "detectors[0] must be a JSON object"),
    "no_detectors": (_set((), "detectors", []), "detectors must be an array of 1 or 2 entries (fast first)"),
    "three_detectors": (lambda d: d["detectors"].append(d["detectors"][0]),
                        "detectors must be an array of 1 or 2 entries (fast first)"),
    "detectors_object": (_set((), "detectors", {"spd": {}}),
                         "detectors must be an array of 1 or 2 entries (fast first)"),
    "detector_kind": (lambda d: d["detectors"][0].update(apd=d["detectors"][0].pop("spd")),
                      "detectors[0]: unknown detector kind 'apd'; expected 'spd' or 'homodyne'"),
    "protocol": (_set((), "protocol", "e91"), "unknown protocol 'e91'; expected one of "
                                              "('bb84_single_photon', 'decoy_bb84', 'gmcs_dr', 'gmcs_rr')"),
    "string_field": (_set(("link",), "g_bob", "0.5"), "malformed scenario: must be real number, not str"),
    "null_field": (_set(("link",), "g_bob", None), "malformed scenario: must be real number, not NoneType"),
    "huge_int": (_set(("link",), "g_bob", 10**400), f"g_bob must be a finite number, got {10**400!r}"),
    "subclass_unknown_key": (lambda d: d.update(link=Subclass(d["link"], colour=1.0)),
                             "unknown keys in link: ['colour']"),
    "subclass_missing_key": (lambda d: d.update(config=Subclass(f_ec=1.22)), "missing keys in config: ['basis_factor']"),
    "null_detector_field": (_set(("detectors", 1, "spd"), "e_det", None),
                            "malformed scenario: must be real number, not NoneType"),
    "null_config_field": (_set(("config",), "f_ec", None), "malformed scenario: must be real number, not NoneType"),
    "detector_list": (lambda d: d["detectors"].__setitem__(0, [d["detectors"][0]]),
                      "detectors[0] must be an object with exactly one detector kind"),
    "detector_empty": (_set(("detectors",), 0, {}), "detectors[0] must be an object with exactly one detector kind"),
    "two_kinds": (_set(("detectors", 1), "homodyne", {"rep_rate_hz": 1e6, "g_det": 0.8, "eps_det": 0.01}),
                  "detectors[1] must be an object with exactly one detector kind"),
    "fields_list": (_set(("detectors", 1), "spd", [2.5e6, 0.5, 3e-7, 0.018]), "detectors[1] must be a JSON object"),
    "fields_null": (_set(("detectors", 1), "spd", None), "detectors[1] must be a JSON object"),
    "link_null": (_set((), "link", None), "link must be a JSON object"),
    "other_protocols_kind": (_set(("detectors",), 0, GMCS_RR_DUAL["detectors"][0]),
                             "fast detector kind HomodyneSpec does not match protocol 'bb84_single_photon' "
                             "(expected SpdSpec)"),
    # Named by its type, not its repr: an array nested 1,000 deep has a repr of 2,000 characters.
    "protocol_array": (_set((), "protocol", ["bb84_single_photon"]),
                       f"unknown protocol of type list; expected one of {PROTOCOLS}"),
    "mode_array": (_set((), "mode", ["dual"]), f"unknown mode of type list; expected one of {MODES}"),
    "mode_null": (_set((), "mode", None), f"unknown mode of type NoneType; expected one of {MODES}"),
}


@pytest.mark.parametrize("kind", list(REFUSALS))
def test_scenario_from_dict_refusal_messages(kind):
    edit, message = REFUSALS[kind]
    data = copy.deepcopy(BB84_DUAL)
    edit(data)
    with pytest.raises(ConfigError) as info:
        scenario_from_dict(data)
    assert str(info.value) == message


#: The scan workload's malformed ops 9, 19, ..., 69 at seed 0, one of each kind, with their exact messages.
SCAN_REFUSALS = [
    ("rr_unequal_g_det", "reverse reconciliation with dual detectors requires equal detection efficiencies, "
                         "got 0.8 and 0.6"),
    ("infinity", "rep_rate must be a finite number, got inf"),
    ("nan", "alpha must be a finite number, got nan"),
    ("out_of_range", "g_bob must be in (0, 1], got 1.5"),
    ("unknown_key", "unknown keys in link: ['colour']"),
    ("bool", "g_bob must be a finite number, got True"),
    ("missing_key", "missing keys in detectors[0]: ['rep_rate_hz']"),
]


def test_scan_workload_refusal_messages():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    malformed = [inp for inp in itertools.islice(workloads.scan_inputs(0), 70) if inp.invalid]
    got = []
    for inp in malformed:
        data = json.loads(inp.text)
        if inp.mu_args is not None:
            data["config"]["mu"] = optimal_mu(*inp.mu_args)
        with pytest.raises(ConfigError) as info:
            scenario_from_dict(data)
        got.append((inp.invalid, str(info.value)))
    assert got == SCAN_REFUSALS


def test_dict_subclasses_are_read_like_dicts():
    # A dict subclass (an OrderedDict from object_pairs_hook, say) takes the full key checks.
    data = copy.deepcopy(BB84_DUAL)
    data["link"] = Subclass(data["link"])
    data["detectors"][1] = Subclass(spd=Subclass(data["detectors"][1]["spd"]))
    del data["link"]["g_bob"]
    assert scenario_from_dict(Subclass(data)) == scenario_from_dict(_without(BB84_DUAL, ("link",), "g_bob"))
    assert scenario_from_dict(json.loads(json.dumps(BB84_DUAL), object_pairs_hook=Subclass)) == scenario_from_dict(
        BB84_DUAL)


def _receivers(fig_id, **link):
    """The dual, fast and slow receivers of a preset, all on one link."""
    scenarios = figure_preset(fig_id).scenarios
    return {role: dataclasses.replace(s, link=dataclasses.replace(s.link, **link)) for role, s in scenarios.items()}


@pytest.mark.parametrize("fig_id, switch_loss, fast_e_det, twins", [
    (1, 0.0, None, True),  # equal e_det
    (2, 0.0, None, True),  # the fast detector is the noisier
    (4, 0.0, None, True),
    (5, 0.0, None, True),  # GMCS DR: any excess noises
    (6, 0.0, None, False),  # GMCS RR: no twin rule
    (1, 3.0, None, False),  # the switch: another t
    (1, 0.0, 0.01, False),  # the fast detector is the quieter
])
def test_twins(fig_id, switch_loss, fast_e_det, twins):
    receivers = _receivers(fig_id, switch_loss=switch_loss)
    if fast_e_det is not None:
        fast = dataclasses.replace(receivers["fast"].fast, e_det=fast_e_det)
        receivers = {role: dataclasses.replace(s, fast=fast) for role, s in receivers.items()}
    dual = receivers["dual"]
    assert _twins(dual, receivers["fast"]) is twins
    # The slow receiver keys with the other detector, and dual_no_pa has no bounding arm.
    assert not _twins(dual, receivers["slow"])
    if dual.protocol == "decoy_bb84":
        assert not _twins(dataclasses.replace(dual, mode="dual_no_pa"), receivers["fast"])


def test_proof_length():
    # Dark counts keep every photon-counting preset gain above 2**-1000 at any
    # length, and GMCS DR and RR need no least g, behind a switch too.
    for fig_id in FIGURE_IDS:
        assert all(_proof_length(s) == math.inf for s in figure_preset(fig_id).scenarios.values())
    rr = figure_preset(6).scenarios["dual"]
    assert _proof_length(dataclasses.replace(rr, link=dataclasses.replace(rr.link, switch_loss=3.0))) == math.inf
    clean = SpdSpec(rep_rate=1e9, eta_d=0.5, y0=0.0, e_det=0.01)
    link = LinkSpec(alpha=0.2, g_bob=1.0)
    scenario = Scenario("bb84_single_photon", "single_fast", link, Bb84Config(0.5, 1.22), fast=clean)
    limit = _proof_length(scenario)
    # 10/0.2 * log10(0.5 * 2**1000) km: there t*eta_d is 2**-1000.
    assert limit == pytest.approx(50.0 * (1000 * math.log10(2.0) - math.log10(2.0)))
    assert channel_transmittance(0.2, limit) * 0.5 == pytest.approx(2.0 ** -1000)
    blind = SpdSpec(rep_rate=1e9, eta_d=0.0, y0=1e-320, e_det=0.01)
    assert _proof_length(dataclasses.replace(scenario, fast=blind)) == -math.inf
    flat = dataclasses.replace(scenario, link=LinkSpec(alpha=0.0))
    assert _proof_length(flat) == math.inf


#: Every (protocol, mode) pair a Scenario accepts.
VALID_MODES = [(protocol, mode) for protocol in PROTOCOLS for mode in MODES
               if mode != "dual_no_pa" or protocol == "decoy_bb84"]


def _drawn_scenario(data):
    """A Scenario of a drawn valid protocol and mode, GMCS RR duals with equal g_det."""
    protocol, mode = data.draw(st.sampled_from(VALID_MODES))
    detectors, configs = PROTOCOL_PARTS[protocol]
    fast, slow = data.draw(detectors), data.draw(detectors)
    if protocol == "gmcs_rr":
        slow = dataclasses.replace(slow, g_det=fast.g_det)
    return Scenario(protocol, mode, data.draw(LINKS), data.draw(configs), fast, slow)


#: protocol -> its public kernel, which builds the combine's constants on every call.
KERNELS = {"bb84_single_photon": bb84_rate_dual, "decoy_bb84": decoy_rate_dual,
           "gmcs_dr": gmcs_dr_rate_dual, "gmcs_rr": gmcs_rr_rate_dual}


def _bits_or_refusal(function, *args):
    """function(*args) as float.hex, or the exception it raises as (type, message)."""
    try:
        return function(*args).hex()
    except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
        return type(exc), str(exc)


@pytest.mark.parametrize("protocol, mode", VALID_MODES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_plan_constants_are_the_kernels(protocol, mode, data):
    # evaluate combines with the constants the scenario's plan built once; the
    # public kernel builds them per call. Both give the same bits, or the same
    # refusal, at the t the receiver layout gives: g_bob, and behind the switch
    # its loss, on the fiber transmittance. Lengths reach t = 0, where a gain may be 0.
    detectors, configs = PROTOCOL_PARTS[protocol]
    fast, slow, config, link = data.draw(detectors), data.draw(detectors), data.draw(configs), data.draw(LINKS)
    if protocol == "gmcs_rr":
        slow = dataclasses.replace(slow, g_det=fast.g_det)
    length = data.draw(st.floats(0.0, 5000.0))
    scenario = Scenario(protocol, mode, link, config, fast, slow)
    keyed = slow if mode == "single_slow" else fast
    bounding = {"single_fast": fast, "single_slow": slow, "dual": slow, "dual_no_pa": None}[mode]
    factor = link.g_bob * db_to_transmittance(link.switch_loss) if mode.startswith("dual") else link.g_bob
    t = channel_transmittance(link.alpha, length) * factor
    assert _bits_or_refusal(evaluate, scenario, length) == _bits_or_refusal(KERNELS[protocol], keyed, bounding,
                                                                             config, t)


def _kept_constants(scenario):
    return scenario._proof_length, scenario._normalizer


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kept_proof_constants_are_the_functions(data):
    # A scenario keeps _proof_length(s) and _normalizer(s) from their first
    # read. Keeping them changes neither == nor hash, and a replace() copy,
    # built after the original's were read, computes its own.
    scenario = _drawn_scenario(data)
    fresh = dataclasses.replace(scenario)
    before = hash(scenario)
    assert _kept_constants(scenario) == (_proof_length(scenario), _normalizer(scenario))
    assert _kept_constants(scenario) == (_proof_length(scenario), _normalizer(scenario))  # read again, as kept
    assert hash(scenario) == before == hash(fresh) and scenario == fresh
    assert _kept_constants(copy.copy(scenario)) == _kept_constants(scenario)
    other = _drawn_scenario(data)
    copies = [dataclasses.replace(scenario, link=other.link)]
    if other.protocol == scenario.protocol:  # other's detectors and config fit scenario's protocol
        copies.append(dataclasses.replace(scenario, link=other.link, config=other.config, fast=other.fast,
                                          slow=other.slow))
    for changed in copies:
        assert _kept_constants(changed) == (_proof_length(changed), _normalizer(changed))


def _reference_plan(s):
    """A reference copy of validate_scenario and of the _plan Scenario.__post_init__ builds, as written
    before the (protocol, mode) rows of scenario._ROWS: both slice the protocol's _PROTOCOLS row and the
    mode's _ARMS row on every call. s is any object with a Scenario's fields."""
    if s.protocol not in PROTOCOLS or s.mode not in MODES:
        name, known = ("protocol", PROTOCOLS) if s.protocol not in PROTOCOLS else ("mode", MODES)
        value = getattr(s, name)
        shown = repr(value) if isinstance(value, str) else f"of type {type(value).__name__}"
        raise ConfigError(f"unknown {name} {shown}; expected one of {known}")
    if s.mode == "dual_no_pa" and s.protocol != "decoy_bb84":
        raise ConfigError("mode 'dual_no_pa' only applies to protocol 'decoy_bb84'")
    if not isinstance(s.link, LinkSpec):
        raise ConfigError(f"link kind {type(s.link).__name__} is not LinkSpec")
    config_cls, detector_cls = _PROTOCOLS[s.protocol][:2]
    for label, det in (("fast", s.fast), ("slow", s.slow)):
        if det is not None and not isinstance(det, detector_cls):
            raise ConfigError(
                f"{label} detector kind {type(det).__name__} does not match "
                f"protocol {s.protocol!r} (expected {detector_cls.__name__})"
            )
    if not isinstance(s.config, config_cls):
        raise ConfigError(
            f"config kind {type(s.config).__name__} does not match protocol "
            f"{s.protocol!r} (expected {config_cls.__name__})"
        )
    for arm in _ARMS[s.mode][:2]:
        if arm is not None and getattr(s, arm) is None:
            raise ConfigError(f"mode {s.mode!r} needs a {arm} detector")
    if s.protocol == "gmcs_rr" and s.mode == "dual" and s.fast.g_det != s.slow.g_det:
        raise ConfigError(
            "reverse reconciliation with dual detectors requires equal "
            f"detection efficiencies, got {s.fast.g_det} and {s.slow.g_det}"
        )
    keyed, bounding, switched = _ARMS[s.mode]
    _, _, keyed_arm, bounding_arm, combine, read, _, _, _, constants = _PROTOCOLS[s.protocol]
    factor = s.link.g_bob
    if switched:
        factor *= db_to_transmittance(s.link.switch_loss)
    keyed_det = getattr(s, keyed)
    bounding_det = None if bounding is None else getattr(s, bounding)
    if bounding_det is None:
        bounding_arm = _no_arm
    shared = bounding_det is keyed_det and bounding_arm is keyed_arm
    return (keyed_arm, bounding_arm, combine, keyed_det, bounding_det, s.config, read(s.config),
            s.link.alpha, factor, shared, constants(s.config, keyed_det, bounding_det))


def _subclass(cls):
    """A subclass of the record cls with cls's fields, which a Record subclass declares again."""
    return type(f"Sub{cls.__name__}", (cls,), {"__annotations__": dict(cls.__annotations__)})


#: Every part of a Scenario that validate_scenario reads: each of PROTOCOLS and MODES and values that are
#: neither (unknown, not a string, unhashable), and each link, detector and config as its own type, a
#: subclass of it, or another type. Two homodynes share g_det 0.8 and one has 0.6, so a GMCS RR dual gets
#: equal and unequal g_det; a detector drawn for both arms is one object, which a plan shares.
PROTOCOL_VALUES = [*PROTOCOLS, "e91", 1, None, ["bb84_single_photon"], {"gmcs_rr": 1}]
MODE_VALUES = [*MODES, "triple", 2.0, None, ["dual"]]
LINK_VALUES = [LinkSpec(0.2, 0.0, 0.5, 3.0), _subclass(LinkSpec)(0.21, 0.0, 0.16, 0.0), {"alpha": 0.2}]
DETECTOR_VALUES = [
    None, SpdSpec(1e9, 0.059, 1.3e-5, 0.018), _subclass(SpdSpec)(2.5e6, 0.5, 3e-7, 0.018),
    HomodyneSpec(82e6, 0.8, 0.43), HomodyneSpec(1e6, 0.6, 0.01), _subclass(HomodyneSpec)(1e6, 0.8, 0.01),
]
CONFIG_VALUES = [
    Bb84Config(0.5, 1.22), DecoyConfig(0.73, 0.5, 1.22), GmcsSource(40.0, 0.9, 0.05),
    _subclass(Bb84Config)(1.0, 1.1), _subclass(GmcsSource)(20.0, 1.0, 0.0), None, {"v": 40.0}, 0.5,
]


def _plan_or_refusal(build, fields):
    try:
        return build(fields)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", MODE_VALUES, ids=repr)
@pytest.mark.parametrize("protocol", PROTOCOL_VALUES, ids=repr)
def test_scenario_rows_validate_and_plan_as_the_per_call_tables(protocol, mode):
    # Scenario resolves its (protocol, mode) row once: it refuses with the reference's message, in
    # the reference's order, or builds the reference's plan, the same objects and the same floats.
    for link, config, fast, slow in itertools.product(LINK_VALUES, CONFIG_VALUES, DETECTOR_VALUES, DETECTOR_VALUES):
        fields = dict(protocol=protocol, mode=mode, link=link, config=config, fast=fast, slow=slow)
        got = _plan_or_refusal(lambda f: Scenario(**f)._plan, fields)
        want = _plan_or_refusal(lambda f: _reference_plan(SimpleNamespace(**f)), fields)
        assert got == want, fields
        if not isinstance(want, str):
            assert all(map(operator.is_, got[:6], want[:6])), fields
