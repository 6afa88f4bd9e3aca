import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dualdet.scenario
import dualdet.sweep
from dualdet.bb84 import Bb84Config
from dualdet.core import (
    LENGTH_FORMAT, RATE_FORMAT, DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec, binary_entropy,
    bisect_sign_change,
)
from dualdet.decoy import DecoyConfig
from dualdet.gmcs import noise_budget
from dualdet.presets import FIGURE_IDS, FigurePreset, figure_preset
from dualdet.scenario import MODE_TO_ROLE, MODES, Scenario, evaluate
from dualdet.sweep import (
    CSV_HEADER,
    CURVE_ROLES,
    DISTANCE_TOL,
    GridError,
    RateCurve,
    crossover_distance,
    length_grid,
    max_secure_distance,
    _search_grid,
    save_curves_csv,
    sweep,
    sweep_preset,
    write_curves_csv,
)

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


@pytest.fixture(scope="module")
def fig1():
    return figure_preset(1)


def test_length_grid():
    assert length_grid(0.0, 5.0, 1.0) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert length_grid(0.0, 10.0, 20.0) == [0.0]
    grid = length_grid(0.0, 1.0, 0.25)
    assert len(grid) == 5 and grid[-1] == 1.0
    with pytest.raises(DomainError):
        length_grid(5.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        length_grid(0.0, 5.0, 0.0)
    with pytest.raises(DomainError, match=r"^need 0 <= l_min < l_max, got \[-1.0, 5.0\]$"):
        length_grid(-1.0, 5.0, 1.0)
    with pytest.raises(DomainError, match="^step must be > 0, got -1.0$"):
        length_grid(0.0, 5.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["l_min", "l_max", "step"])
def test_length_grid_refuses_non_finite(name, bad):
    # 10 / inf is 0 steps and 0 * inf is NaN: an infinite step used to give [nan].
    args = {"l_min": 0.0, "l_max": 10.0, "step": 1.0, name: bad}
    with pytest.raises(GridError, match=f"^{name} must be a finite number, got {bad!r}$"):
        length_grid(**args)


def test_search_grid_keeps_zero_under_a_huge_step(fig1):
    # A step beyond 1e9 times the limit leaves length_grid one point, 0; the
    # search grid still holds both 0 and the limit, so the cell is bisected.
    dual = fig1.scenarios["dual"]
    assert max_secure_distance(dual, 200.0, coarse_step=1e12) == max_secure_distance(dual, 200.0, coarse_step=200.0)
    with pytest.raises(GridError, match="^step must be a finite number, got inf$"):
        max_secure_distance(dual, 250.0, coarse_step=math.inf)


def reference_search_grid(l_max, step):
    """The search grid as a list: length_grid from 0, closed by l_max."""
    grid = length_grid(0.0, l_max, step)
    if len(grid) == 1 or l_max - grid[-1] > 1e-9 * step:
        grid.append(l_max)
    grid[-1] = l_max
    return grid


def _grid_or_error(build, l_max, step):
    try:
        return [x.hex() for x in build(l_max, step)]
    except GridError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(l_max=st.one_of(st.floats(0.0, 300.0), st.floats(allow_nan=True), st.sampled_from((0.0, 5e-324, 1e300))),
       cells=st.one_of(st.floats(0.0, 2000.0, exclude_min=True), st.integers(1, 2000).map(float)),
       step=st.one_of(st.none(), st.floats(allow_nan=True)))
def test_search_grid_is_the_checked_length_grid(l_max, cells, step):
    # A step of l_max over a whole or partial number of cells, or any float:
    # the same points as the list from length_grid, or its GridError message.
    if step is None:
        step = l_max / cells
    assert _grid_or_error(_search_grid, l_max, step) == _grid_or_error(reference_search_grid, l_max, step)


@pytest.mark.parametrize("l_max, step", [
    (250.0, 250.0 / 999_999.5),  # a partial last cell
    (250.0, 250.0 / 1_000_000),
    (1_000_000 * 5e-324, 5e-324),  # subnormal points, each an exact multiple of the step
    (1e300, 1e294),
])
def test_search_grid_at_the_finest_steps_is_the_checked_list(l_max, step):
    # Every step that length_grid accepts from 0, up to its 1,000,000 steps,
    # keeps the points strictly increasing, so the search grid checks none
    # of them one by one.
    grid = _search_grid(l_max, step)
    assert list(grid) == reference_search_grid(l_max, step)
    assert len(grid) in (1_000_001, 1_000_002)
    assert grid[-1] == grid[len(grid) - 1] == l_max and grid[-len(grid)] == 0.0
    with pytest.raises(IndexError):
        grid[len(grid)]
    with pytest.raises(GridError, match=r"^step 0\.00024 gives more than 1000000 grid points$"):
        _search_grid(250.0, 0.00024)


def test_every_mode_fills_a_curve_role():
    assert set(MODE_TO_ROLE) == set(MODES)
    assert set(MODE_TO_ROLE.values()) <= set(CURVE_ROLES)
    assert CSV_HEADER == ("length_km", "rate_dual_bps", "rate_fast_bps", "rate_slow_bps")


def test_sweep_points_and_clamping(fig1):
    curve = sweep(fig1.scenarios["fast"], 0.0, 150.0, 10.0)
    assert len(curve.raw) == 16
    for rate, raw in zip(curve.rates, curve.raw):
        assert rate == max(0.0, raw)
    # The fast detector alone dies before 150 km: clamped zero, raw negative.
    assert curve.rates[-1] == 0.0
    assert curve.raw[-1] < 0.0


def test_sweep_single_point():
    preset = figure_preset(1)
    curve = sweep(preset.scenarios["dual"], 0.0, 1.0, 5.0)
    assert len(curve.raw) == 1


def test_rate_curve_shape_checks():
    assert RateCurve((0.0, 1.0), (-2.0, 3.0)).rates == (0.0, 3.0)
    with pytest.raises(DomainError):
        RateCurve((0.0, 1.0), (1.0,))
    with pytest.raises(DomainError):
        RateCurve((1.0, 1.0), (1.0, 2.0))


@pytest.mark.parametrize("lengths", [
    (0.0, math.nan, 2.0),
    (math.nan,),
    (0.0, 1.0, math.inf),
    (-math.inf, 0.0),
], ids=["nan-inside", "nan-only", "inf-last", "minus-inf-first"])
def test_rate_curve_rejects_non_finite_lengths(lengths):
    with pytest.raises(DomainError):
        RateCurve(lengths, (1.0,) * len(lengths))


def test_rates_clamp_to_positive_zero():
    rates = RateCurve((0.0, 1.0, 2.0, 3.0), (-0.0, 0.0, 5e-324, -2.5)).rates
    assert rates == (0.0, 0.0, 5e-324, 0.0)
    assert [math.copysign(1.0, r) for r in rates] == [1.0, 1.0, 1.0, 1.0]


def test_sweep_preset_shares_one_grid(fig1):
    curves = sweep_preset(fig1)
    lengths = curves["dual"].lengths
    assert curves["fast"].lengths is lengths and curves["slow"].lengths is lengths
    assert lengths == tuple(length_grid(0.0, 250.0, 1.0))


def _hex_or_error(rates):
    """float.hex() of each rate of a callable's result, or its exception type and message."""
    try:
        return [r.hex() for r in rates()]
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


#: Every protocol x mode, from the preset receivers: (fig_id, mode).
PROTOCOL_MODES = [
    (fig_id, mode)
    for fig_id in (1, 4, 5, 6)
    for mode in MODES
    if mode != "dual_no_pa" or fig_id == 4
]


@pytest.mark.parametrize("fig_id, mode", PROTOCOL_MODES)
@pytest.mark.parametrize("alpha, switch_loss", [(0.21, 0.0), (0.16, 3.0)])
def test_sweep_is_evaluate_bit_for_bit(fig_id, mode, alpha, switch_loss):
    preset = figure_preset(fig_id)
    dual = preset.scenarios["dual"]
    scenario = dataclasses.replace(dual, mode=mode, link=LinkSpec(alpha, g_bob=dual.link.g_bob, switch_loss=switch_loss))
    grid = length_grid(preset.l_min, preset.l_max, preset.step)
    expected = [evaluate(scenario, length).hex() for length in grid]
    assert _hex_or_error(lambda: sweep(scenario, preset.l_min, preset.l_max, preset.step).raw) == expected


def test_sweep_refuses_as_evaluate_does():
    # Past the GMCS model domain the sweep raises evaluate's first refusal.
    dual = figure_preset(5).scenarios["dual"]
    grid = length_grid(0.0, 20000.0, 1000.0)
    assert _hex_or_error(lambda: sweep(dual, 0.0, 20000.0, 1000.0).raw) == _hex_or_error(
        lambda: [evaluate(dual, length) for length in grid])


def _mixed_attenuation_preset():
    """Preset 4's scenarios over its grid with the fast curve on a 0.16 dB/km fiber."""
    preset = figure_preset(4)
    fast = preset.scenarios["fast"]
    scenarios = {**preset.scenarios, "fast": dataclasses.replace(fast, link=dataclasses.replace(fast.link, alpha=0.16))}
    return dataclasses.replace(preset, scenarios=scenarios)


@pytest.mark.parametrize("fig_id", [*FIGURE_IDS, "mixed"])
def test_sweep_preset_is_evaluate_bit_for_bit(monkeypatch, fig_id):
    preset = _mixed_attenuation_preset() if fig_id == "mixed" else figure_preset(fig_id)
    grid = length_grid(preset.l_min, preset.l_max, preset.step)
    expected = {role: [evaluate(s, length).hex() for length in grid] for role, s in preset.scenarios.items()}
    calls = []
    original = dualdet.scenario.channel_transmittance
    monkeypatch.setattr(dualdet.scenario, "channel_transmittance", lambda *args: calls.append(args) or original(*args))
    curves = sweep_preset(preset)
    assert {role: [r.hex() for r in curve.raw] for role, curve in curves.items()} == expected
    # One fiber transmittance per length for each distinct attenuation (the mixed set has two).
    alphas = {s.link.alpha for s in preset.scenarios.values()}
    assert len(calls) == len(alphas) * len(grid)
    assert len(grid) == (241 if preset.scenarios["dual"].protocol.startswith("gmcs") else 251)


@pytest.mark.parametrize("fig_id, arm_function, columns", [
    (1, binary_entropy, 2), (2, binary_entropy, 2), (3, binary_entropy, 2),
    (4, binary_entropy, 4),  # decoy's keyed and bounding arms, per detector
    (5, noise_budget, 2), (6, noise_budget, 2), (7, noise_budget, 2),
    (8, binary_entropy, 4), (9, binary_entropy, 4),  # the switched dual sees another t
])
def test_sweep_preset_computes_each_arm_once_per_length(count_calls, fig_id, arm_function, columns):
    # Without a switch the dual curve reuses the fast curve's keyed arm and
    # the slow curve's bounding arm (at the parent: 4, 6, 4 and 4 columns).
    calls = count_calls(arm_function)
    preset = figure_preset(fig_id)
    sweep_preset(preset)
    assert len(calls) == columns * len(length_grid(preset.l_min, preset.l_max, preset.step))


def _first_refusal(scenarios, grid):
    """The exception type and message of the first evaluate that fails, scenario by scenario."""
    return _hex_or_error(lambda: [evaluate(s, length) for s in scenarios for length in grid])


@pytest.mark.parametrize("protocol, fast, slow, config, link", [
    # The slow arm's noise budget overflows at 14,655 km, the fast arm's at 14,670 km.
    ("gmcs_dr", HomodyneSpec(82e6, 0.8, 0.43), HomodyneSpec(1e6, 0.3, 0.01), GmcsSource(40.0, 1.0, 0.05),
     LinkSpec(alpha=0.21)),
    # Detectors with no dark counts: their gain is 0 where t underflows (15,315 km and 15,350 km).
    ("bb84_single_photon", SpdSpec(1e9, 0.059, 0.0, 0.018), SpdSpec(2.5e6, 0.5, 0.0, 0.018),
     Bb84Config(0.5, 1.22), LinkSpec(alpha=0.21, g_bob=0.16)),
], ids=["gmcs_dr", "bb84_single_photon"])
def test_shared_arms_refuse_in_evaluate_order(protocol, fast, slow, config, link):
    scenarios = {role: Scenario(protocol=protocol, mode=mode, link=link, config=config, fast=fast, slow=slow)
                 for role, mode in (("dual", "dual"), ("fast", "single_fast"), ("slow", "single_slow"))}
    grid = length_grid(14000.0, 16000.0, 5.0)
    for scenario in scenarios.values():
        expected = _first_refusal([scenario], grid)
        assert expected[0] in (DomainError, ZeroDivisionError)
        assert _hex_or_error(lambda: sweep(scenario, 14000.0, 16000.0, 5.0).raw) == expected
    preset = FigurePreset(0, "past the model's domain", scenarios, 14000.0, 16000.0, 5.0)
    expected = _first_refusal([scenarios[role] for role in CURVE_ROLES], grid)
    assert _hex_or_error(lambda: [r for curve in sweep_preset(preset).values() for r in curve.raw]) == expected


@pytest.mark.parametrize("fig_id", range(1, 10))
def test_preset_clamped_curves_nonincreasing(fig_id):
    preset = figure_preset(fig_id)
    for role, curve in sweep_preset(preset).items():
        rates = curve.rates
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:])), (fig_id, role)


def test_max_secure_distance_none_for_hopeless_detector():
    assert max_secure_distance(figure_preset(2).scenarios["fast"], 250.0) is None


def test_max_secure_distance_brackets_sign_change(fig1):
    dist = max_secure_distance(fig1.scenarios["fast"], 250.0)
    assert dist is not None
    assert evaluate(fig1.scenarios["fast"], dist - 0.05) > 0.0
    assert evaluate(fig1.scenarios["fast"], dist + 0.05) < 0.0


def test_max_secure_distance_still_positive_at_limit(fig1):
    # The slow detector alone is good past 124 km; a short search saturates.
    assert max_secure_distance(fig1.scenarios["slow"], 50.0) == 50.0
    full = max_secure_distance(fig1.scenarios["slow"], 300.0)
    assert full is not None and full > 124.0


@pytest.mark.parametrize("l_max", [124.5, 124.9, 124.99])
def test_crossover_reaches_a_limit_between_grid_points(fig1, l_max):
    # The crossing at 124.08 km lies in the last, partial cell [124, l_max]:
    # the search grid ends at the limit, so the crossover sees that cell.
    dual, envelope = fig1.scenarios["dual"], [fig1.scenarios["fast"], fig1.scenarios["slow"]]
    crossing = crossover_distance(dual, envelope, 250.0)
    assert crossover_distance(dual, envelope, l_max) == pytest.approx(crossing, abs=0.01)


def test_max_secure_distance_evaluates_a_limit_between_grid_points(fig1):
    # The dual rate turns negative at 124.78 km, inside the partial cell
    # [124, 124.9]: the limit is evaluated, not returned unseen.
    dual = fig1.scenarios["dual"]
    assert evaluate(dual, 124.9) < 0.0
    assert max_secure_distance(dual, 124.9) == pytest.approx(max_secure_distance(dual, 250.0), abs=0.01)
    # The slow detector keys past 124.9 km, so there the limit is the answer.
    assert max_secure_distance(fig1.scenarios["slow"], 124.9) == 124.9


def test_max_secure_distance_grid_refinement_invariant(fig1):
    coarse = max_secure_distance(fig1.scenarios["fast"], 250.0, coarse_step=1.0)
    fine = max_secure_distance(fig1.scenarios["fast"], 250.0, coarse_step=0.5)
    assert abs(coarse - fine) <= 0.01


def test_searches_match_golden():
    # The 28 distance searches of the benchmark, rebuilt from the catalogue
    # fields of the committed answers: the "same behaviour" gate for searches.
    entries = json.loads((GOLDEN / "searches.json").read_text(encoding="utf-8"))
    assert len(entries) == 28
    wrong = []
    for entry in entries:
        preset = figure_preset(entry["figure"])
        dual = preset.scenarios["dual"]
        if entry["switch_loss_db"]:
            dual = dataclasses.replace(dual, link=dataclasses.replace(dual.link, switch_loss=entry["switch_loss_db"]))
        l_max = 250.0 if isinstance(dual.fast, SpdSpec) else 60.0
        if entry["kind"] == "crossover":
            answer = crossover_distance(dual, [preset.scenarios["fast"], preset.scenarios["slow"]], l_max)
        else:
            answer = max_secure_distance(dual, l_max)
        # However much of the grid a search scans, it bisects the same
        # bracket with the same function, so the answers match exactly.
        if answer != entry["answer"]:
            wrong.append((entry, answer))
    assert not wrong


def count_evaluations(monkeypatch, evaluate_fn=evaluate) -> list:
    """Route the searches' evaluate through evaluate_fn, recording each length."""
    lengths = []

    def counted(scenario, length):
        lengths.append(length)
        return evaluate_fn(scenario, length)

    monkeypatch.setattr(dualdet.sweep, "evaluate", counted)
    return lengths


@pytest.mark.parametrize("fig_id, switch_loss, l_max, crossover_calls, maxdist_calls", [
    (1, 0.0, 250.0, 69, 19), (5, 0.0, 60.0, 33, 17), (4, 3.0, 250.0, 51, 19), (5, 3.0, 60.0, 27, 2),
], ids=["1-250.0-69-19", "5-60.0-33-17", "4-3dB-250.0-51-19", "5-3dB-60.0-27-2"])
def test_searches_scan_only_up_to_the_answer(monkeypatch, fig_id, switch_loss, l_max, crossover_calls, maxdist_calls):
    # Crossover: 3 scenarios x grid points, + 2 x 9 halvings of the 1 km
    # bracketing cell, as the fast single is proved below the dual there.
    # Preset 1 (crossing in [124, 125]), 17 grid points: the blocks ending
    # at 2, 6, 14, 30, 62 are proved (doubling); 126 fails and 94 is proved,
    # 158 and 126 fail and 110 is proved, 142 and 126 fail and 118 is
    # proved, 134 and 126 fail and 122 is proved, 130 and 126 fail (a short
    # block: no block reaches 126 before the walk does) and 124 is proved,
    # 125 is walked: 3 x 17 + 2 x 9 = 69, where the walk took 3 x (126 + 9)
    # = 405. Preset 5 (crossing in [5, 6]): 2 is proved, 6 fails, 4 is
    # proved, 5 and 6 are walked: 3 x 5 + 2 x 9 = 33, the walk 3 x (7 + 9)
    # = 48. With a 3 dB switch both have no crossing, and every block is
    # proved by a single above the dual, across non-positive rates too.
    # Preset 4 (a single is above the dual everywhere; the dual is negative
    # from 68 km, the fast single from 76 km, the slow from 198 km): 2, 6, 14
    # are proved; then each 16 km block fails and the 8 km one is proved, to
    # 22, 30, ..., 70, its failed ends being the later 8 km ends 30, ..., 78;
    # then 86, 118, 182, 246 (the blocks double, up to what the grid's end
    # leaves) and 250: 3 x 17 = 51, where the walk took 3 x 251 = 753.
    # Preset 5 (the dual is negative from 0 km): 2, 6, 14, 30, then 62 is
    # past the end and the block halves to 46, 54, 58, 60: 3 x 9 = 27, the
    # walk 3 x 61 = 183. Maxdist (BB84, decoy with mu <= 1 and GMCS DR change
    # sign once): l_max, 0, then ceil(log2(cells)) halvings of the grid's
    # index range (8 of 250 cells, 6 of 60) to the last positive point, + 9
    # halvings of its 1 km cell; with no positive point, l_max and 0 only.
    preset = figure_preset(fig_id)
    dual, envelope = preset.scenarios["dual"], [preset.scenarios["fast"], preset.scenarios["slow"]]
    dual = dataclasses.replace(dual, link=dataclasses.replace(dual.link, switch_loss=switch_loss))
    lengths = count_evaluations(monkeypatch)
    crossover_distance(dual, envelope, l_max)
    assert len(lengths) == crossover_calls
    lengths.clear()
    max_secure_distance(dual, l_max)
    assert len(lengths) == maxdist_calls


def backward_scan(rate, l_max, coarse_step):
    """Reference maximum distance: walk the search grid backward from l_max
    to the last positive point and bisect the cell after it."""
    grid = _search_grid(l_max, coarse_step)
    last = next((i for i in reversed(range(len(grid))) if rate(grid[i]) > 0.0), None)
    if last is None:
        return None
    if last == len(grid) - 1:
        return l_max
    return bisect_sign_change(rate, grid[last], grid[last + 1], tol=DISTANCE_TOL / 5)


def _hex_or_refusal(search, *args):
    try:
        answer = search(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)
    return None if answer is None else answer.hex()


def specs(protocol, keyed):
    """(detector, config, link) strategies drawing every number from a range
    where keys are made (keyed) or from its whole domain."""
    def floats(keyed_range, domain, **kwargs):
        return st.floats(*(keyed_range if keyed else domain), **kwargs)

    # eta_d and y0 may not both be 0, so a detector with eta_d = 0 draws y0 > 0.
    spd = floats((0.01, 1.0), (0.0, 1.0)).flatmap(lambda eta_d: st.builds(
        SpdSpec, rep_rate=st.floats(1e3, 1e11), eta_d=st.just(eta_d),
        y0=floats((1e-7, 1e-4), (0.0, 0.1), exclude_min=eta_d == 0.0), e_det=floats((0.0, 0.05), (0.0, 0.5)),
    ))
    sifting = dict(basis_factor=st.sampled_from((0.5, 1.0)), f_ec=floats((1.0, 1.3), (1.0, 2.0)))
    parts = {
        "bb84_single_photon": (spd, st.builds(Bb84Config, **sifting)),
        "decoy_bb84": (spd, st.builds(DecoyConfig, mu=st.floats(0.01, 1.0), **sifting)),
        "gmcs_dr": (
            st.builds(HomodyneSpec, rep_rate=st.floats(1e3, 1e9), g_det=floats((0.8, 1.0), (0.01, 1.0)),
                      eps_det=floats((0.0, 0.05), (0.0, 1.0))),
            st.builds(GmcsSource, v=st.floats(1.01, 100.0), beta=floats((0.9, 1.0), (0.01, 1.0)),
                      eps_pre=floats((0.0, 0.02), (0.0, 0.2))),
        ),
    }
    link = st.builds(
        LinkSpec, alpha=floats((0.15, 0.3), (0.0, 1.0)), g_bob=floats((0.8, 1.0), (0.01, 1.0)),
        switch_loss=st.sampled_from((0.0, 3.0)),
    )
    return (*parts[protocol], link)


#: The protocols whose rate changes sign at most once, with the modes they take.
ONE_SIGN_CHANGE = {
    "bb84_single_photon": ("single_fast", "single_slow", "dual"),
    "decoy_bb84": MODES,
    "gmcs_dr": ("single_fast", "single_slow", "dual"),
}


class Replay:
    """Stands in for st.data() in an explicit example: returns the given
    draws in order, from the first again after the last. A test
    parametrized by protocol runs the example for that protocol only."""

    def __init__(self, protocol, *draws):
        self.protocol, self.draws, self.count = protocol, draws, 0

    def draw(self, strategy):
        self.count += 1
        return self.draws[(self.count - 1) % len(self.draws)]


@pytest.mark.parametrize("protocol", ONE_SIGN_CHANGE)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
# The dual rate is 0.0 at 83 km, where H2 of the slow QBER rounds to 1, and
# 2.98e-23 at 84 km, both within the error bound of 0: halving alone would
# bisect the cell [82, 83] and the scan bisects [84, 85].
@example(data=Replay(
    "bb84_single_photon", False, "dual", LinkSpec(alpha=0.99609375, g_bob=0.125), Bb84Config(0.5, 1.0),
    SpdSpec(1000.0, 1.0, 0.0, 0.0), SpdSpec(1000.0, 1.0, 0.0625, 0.0), 134.0, 1.0,
))
def test_max_distance_search_matches_backward_scan(protocol, data):
    # Where the rate changes sign once, halving the grid's index range finds
    # the scan's last positive point, so the answer is the same float; where
    # a rate it reads is within its error bound of 0, it scans as well.
    assume(getattr(data, "protocol", protocol) == protocol)
    detectors, configs, links = specs(protocol, data.draw(st.booleans()))
    scenario = Scenario(
        protocol=protocol, mode=data.draw(st.sampled_from(ONE_SIGN_CHANGE[protocol])), link=data.draw(links),
        config=data.draw(configs), fast=data.draw(detectors), slow=data.draw(detectors),
    )
    assert scenario._error_scale is not None
    l_max = data.draw(st.one_of(st.floats(0.5, 30.0), st.floats(0.5, 300.0)))
    step = data.draw(st.floats(0.1, 20.0))
    expected = _hex_or_refusal(backward_scan, lambda length: evaluate(scenario, length), l_max, step)
    assert _hex_or_refusal(max_secure_distance, scenario, l_max, step) == expected


@pytest.mark.parametrize("fig_id, config", [
    (4, DecoyConfig(mu=1.5, basis_factor=0.5, f_ec=1.22)),
    (6, None),
    (7, None),
], ids=["decoy_mu_above_1", "gmcs_rr_v40", "gmcs_rr_v20"])
def test_unproved_rates_keep_the_backward_scan(monkeypatch, fig_id, config):
    # Decoy with mu > 1 and GMCS RR have no proof of one sign change: the
    # search walks the grid as the reference scan does, point for point.
    dual = figure_preset(fig_id).scenarios["dual"]
    if config is not None:
        dual = dataclasses.replace(dual, config=config)
    assert dual._error_scale is None
    l_max = 250.0 if config is not None else 60.0
    scanned = []
    expected = backward_scan(lambda length: scanned.append(length) or evaluate(dual, length), l_max, 1.0)
    lengths = count_evaluations(monkeypatch)
    assert expected is not None
    assert max_secure_distance(dual, l_max) == expected
    assert lengths == scanned


def forward_scan(rates, l_max, coarse_step):
    """Reference crossover: walk the search grid forward from 0 to the first
    cell where the first rate minus the best of the others turns from
    positive to non-positive, and bisect it; at a tangency (0 at the cell
    end, positive at the next point) the cell midpoint."""
    def diff(length):
        first, *others = rates(length)
        return first - max(others)

    grid = _search_grid(l_max, coarse_step)
    here = diff(grid[0])
    for i in range(len(grid) - 1):
        prev, here = here, diff(grid[i + 1])
        if prev > 0.0 and here <= 0.0:
            if here == 0.0 and i + 2 < len(grid) and diff(grid[i + 2]) > 0.0:
                return 0.5 * (grid[i] + grid[i + 1])
            return bisect_sign_change(diff, grid[i], grid[i + 1], tol=DISTANCE_TOL / 5)
    return None


def _answer_or_error(search, *args):
    """float.hex() of a search's answer, None, or its exception type and message."""
    try:
        answer = search(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return None if answer is None else answer.hex()


#: Envelopes of the single-detector receivers, by role.
ENVELOPES = (("fast", "slow"), ("slow", "fast"), ("slow",), ("fast",))


def check_crossover_matches_forward_scan(protocol, data, switch_losses):
    """Draw a dual receiver behind a switch loss from switch_losses and an
    envelope of its single receivers, and compare the crossover with the
    reference scan, float for float or error for error."""
    detectors, configs, links = specs("gmcs_dr" if protocol == "gmcs_rr" else protocol, data.draw(st.booleans()))
    fast, slow, config = data.draw(detectors), data.draw(detectors), data.draw(configs)
    if data.draw(st.booleans()):  # as in the paper, the fast detector runs 10 to 10^4 times faster
        fast = dataclasses.replace(fast, rep_rate=slow.rep_rate * data.draw(st.floats(10.0, 1e4)))
    if protocol == "decoy_bb84":
        config = dataclasses.replace(config, mu=data.draw(st.floats(0.01, 2.0)))
    if protocol == "gmcs_rr":  # a dual RR receiver needs equal efficiencies
        slow = dataclasses.replace(slow, g_det=fast.g_det)
    switch_loss = data.draw(switch_losses)
    link = dataclasses.replace(data.draw(links), switch_loss=switch_loss)
    receivers = {role: Scenario(protocol=protocol, mode=mode, link=link, config=config, fast=fast, slow=slow)
                 for role, mode in (("dual", "dual"), ("fast", "single_fast"), ("slow", "single_slow"))}
    scenarios = [receivers["dual"], *(receivers[role] for role in data.draw(st.sampled_from(ENVELOPES)))]
    l_max = data.draw(st.floats(0.5, 300.0 if protocol in ONE_SIGN_CHANGE else 80.0))
    step = data.draw(st.floats(0.37, 2.5))
    expected = _answer_or_error(forward_scan, lambda length: [evaluate(s, length) for s in scenarios], l_max, step)
    assert _answer_or_error(crossover_distance, scenarios[0], scenarios[1:], l_max, step) == expected


@pytest.mark.filterwarnings("ignore:curves touch")
@pytest.mark.parametrize("protocol", ["bb84_single_photon", "decoy_bb84", "gmcs_dr", "gmcs_rr"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_crossover_matches_forward_scan(protocol, data):
    # Skipping the blocks a proof covers (BB84, decoy with mu <= 1, GMCS DR)
    # leaves the first bracketing cell, so the answer is the same float; the
    # rest (decoy with mu > 1, GMCS RR) walk the grid as the reference does.
    # Random detectors include many whose dual receiver is below the fast one.
    check_crossover_matches_forward_scan(protocol, data, st.one_of(st.sampled_from((0.0, 3.0)), st.floats(0.0, 6.0)))


@pytest.mark.filterwarnings("ignore:curves touch")
@pytest.mark.parametrize("protocol", ONE_SIGN_CHANGE)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_crossover_past_a_non_positive_dual_matches_forward_scan(protocol, data):
    # A switch loss of 6 to 40 dB keeps the dual rate non-positive from short
    # lengths, so most blocks are proved between non-positive rates, where
    # rate/t does not rise; the answer is still the reference scan's.
    check_crossover_matches_forward_scan(protocol, data, st.floats(6.0, 40.0))


def test_crossover_between_non_positive_rates_matches_forward_scan():
    # Both rates are non-positive from about 39 km on, and the difference
    # still turns from positive to non-positive at 72.3 km, between two
    # negative rates: the blocks skipped there are proved by rate/t, which
    # does not rise where a rate is non-positive.
    fast = SpdSpec(rep_rate=9177.483967668875, eta_d=0.535876655876376, y0=3.648386647903217e-05,
                   e_det=0.016320176148989476)
    slow = SpdSpec(rep_rate=1040890.8284087791, eta_d=0.3470461642340964, y0=3.1619681934409566e-08,
                   e_det=0.04315161123523033)
    link = LinkSpec(alpha=0.36582472381005215, g_bob=0.11865786479674223, switch_loss=3.0)
    config = DecoyConfig(mu=0.5576576231825117, basis_factor=0.5, f_ec=1.7013735760221915)
    dual, single = (Scenario("decoy_bb84", mode, link, config, fast, slow) for mode in ("dual", "single_slow"))
    l_max, step = 169.93200913105014, 0.9278435063086035
    answer = crossover_distance(dual, [single], l_max, step)
    assert answer == forward_scan(lambda length: [evaluate(dual, length), evaluate(single, length)], l_max, step)
    assert evaluate(dual, answer) < 0.0 and evaluate(single, answer) < 0.0


def _refusing_past(limit):
    """evaluate, but refusing every length past limit."""
    def refusing(scenario, length):
        if length > limit:
            raise DomainError(f"no model past {limit} km")
        return evaluate(scenario, length)
    return refusing


@pytest.mark.parametrize("fig_id", [1, 2, 4, 8])
def test_crossover_reads_no_refusal_past_the_crossing(monkeypatch, fig_id):
    # The skipping search evaluates block ends past the crossing that the
    # walk never reaches; their refusals must not change the answer. A
    # refusal the walk does reach, before the crossing, still raises.
    preset = figure_preset(fig_id)
    dual, envelope = preset.scenarios["dual"], [preset.scenarios["fast"], preset.scenarios["slow"]]
    answer = crossover_distance(dual, envelope, 250.0)
    cell_end = float(math.ceil(answer))
    monkeypatch.setattr(dualdet.sweep, "evaluate", _refusing_past(cell_end))
    assert crossover_distance(dual, envelope, 250.0) == answer
    monkeypatch.setattr(dualdet.sweep, "evaluate", _refusing_past(cell_end - 10.0))
    with pytest.raises(DomainError, match=f"^no model past {cell_end - 10.0} km$"):
        crossover_distance(dual, envelope, 250.0)


@pytest.mark.parametrize("fig_id, config, l_max", [
    (4, DecoyConfig(mu=1.5, basis_factor=0.5, f_ec=1.22), 250.0),
    (6, None, 60.0),
    (7, None, 60.0),
], ids=["decoy_mu_above_1", "gmcs_rr_v40", "gmcs_rr_v20"])
def test_unproved_rates_keep_the_forward_walk(monkeypatch, fig_id, config, l_max):
    # Without an error scale nothing is skipped: the crossover evaluates the
    # reference scan's lengths, in its order.
    scenarios = list(figure_preset(fig_id).scenarios.values())
    if config is not None:
        scenarios = [dataclasses.replace(s, config=config) for s in scenarios]
    assert all(s._error_scale is None for s in scenarios)
    scanned = []
    expected = forward_scan(lambda length: [scanned.append(length) or evaluate(s, length) for s in scenarios],
                            l_max, 1.0)
    lengths = count_evaluations(monkeypatch)
    assert expected is not None
    assert crossover_distance(scenarios[0], scenarios[1:], l_max) == expected
    assert lengths == scanned


def test_crossover_tangency_looks_one_point_ahead(monkeypatch):
    # diff(L) = (L - 3)^2 touches 0 at the grid point 3 and rises again: the
    # cell midpoint is reported, after evaluating the grid 0..4 only.
    lengths = count_evaluations(monkeypatch, lambda curve, length: curve(length))
    with pytest.warns(UserWarning, match="curves touch near 3.00 km") as record:
        assert crossover_distance(lambda L: (L - 3.0) ** 2, [lambda L: 0.0], 10.0) == 2.5
    assert len(record) == 1
    assert len(lengths) == 10


def test_crossover_answers_before_the_model_domain_ends():
    # Past about 14,700 km the GMCS noise budget is out of its domain and
    # evaluate raises; the crossover at 5.65 km is found before that.
    preset = figure_preset(5)
    envelope = [preset.scenarios["fast"], preset.scenarios["slow"]]
    assert crossover_distance(preset.scenarios["dual"], envelope, 20000.0) == 5.6533203125


def test_crossover_self_is_none(fig1):
    for scenario in fig1.scenarios.values():
        assert crossover_distance(scenario, [scenario], 250.0) is None


def test_crossover_dual_vs_envelope(fig1):
    dual = fig1.scenarios["dual"]
    envelope = [fig1.scenarios["fast"], fig1.scenarios["slow"]]
    dist = crossover_distance(dual, envelope, 250.0)
    assert dist is not None
    # Positive difference just before, non-positive just after.
    def diff(length):
        return evaluate(dual, length) - max(evaluate(s, length) for s in envelope)
    assert diff(dist - 0.05) > 0.0
    assert diff(dist + 0.05) <= 0.0


def test_crossover_needs_a_scenario_to_compare_with(fig1):
    with pytest.raises(DomainError, match="at least one scenario"):
        crossover_distance(fig1.scenarios["dual"], [], 250.0)


def test_crossover_requires_a_downward_crossing(fig1):
    # The slow single never beats the dual from above within range.
    assert crossover_distance(fig1.scenarios["slow"], [fig1.scenarios["dual"]], 100.0) is None


def test_csv_round_trip(tmp_path, fig1):
    curves = sweep_preset(fig1)
    path = tmp_path / "fig1.csv"
    save_curves_csv(curves, path)

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [LENGTH_FORMAT % float(row["length_km"]) for row in rows] == [
        LENGTH_FORMAT % length for length in curves["dual"].lengths
    ]
    for role in ("dual", "fast", "slow"):
        emitted = [RATE_FORMAT % r for r in curves[role].rates]
        parsed = [RATE_FORMAT % float(row[f"rate_{role}_bps"]) for row in rows]
        assert parsed == emitted


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_figure_csv_matches_golden(fig_id):
    # The committed figure CSVs are the "same behaviour" gate: byte for byte.
    buf = io.StringIO()
    write_curves_csv(sweep_preset(figure_preset(fig_id)), buf)
    assert buf.getvalue().encode("utf-8") == (GOLDEN / f"fig{fig_id}.csv").read_bytes()


#: Raw rates around the clamp: negative, both zeros, the least subnormal, and large.
EDGE_RAWS = (-1.0, -0.0, 0.0, 5e-324, 1.5e-7, 1e308)


def _edge_curves():
    """Hand-built curves holding every EDGE_RAWS value, in a different order per role."""
    lengths = tuple(float(i) for i in range(len(EDGE_RAWS)))
    return {role: RateCurve(lengths, EDGE_RAWS[i:] + EDGE_RAWS[:i]) for i, role in enumerate(CURVE_ROLES)}


@pytest.mark.parametrize("fig_id", [1, 6, "edges"])
def test_csv_every_role_subset_matches_row_by_row_reference(fig_id):
    curves = _edge_curves() if fig_id == "edges" else sweep_preset(figure_preset(fig_id))
    rates = {role: curve.rates for role, curve in curves.items()}
    for n in (1, 2, 3):
        for roles in itertools.combinations(("dual", "fast", "slow"), n):
            expected = ["length_km,rate_dual_bps,rate_fast_bps,rate_slow_bps\n"]
            for i, length in enumerate(curves["dual"].lengths):
                cells = [RATE_FORMAT % rates[r][i] if r in roles else "" for r in ("dual", "fast", "slow")]
                expected.append(",".join([LENGTH_FORMAT % length, *cells]) + "\n")
            buf = io.StringIO()
            write_curves_csv({r: curves[r] for r in roles}, buf)
            assert buf.getvalue() == "".join(expected), roles


def test_csv_clamped_cells_print_zero():
    buf = io.StringIO()
    write_curves_csv({"dual": _edge_curves()["dual"]}, buf)
    assert buf.getvalue().splitlines()[1:] == [
        "0.00,0.00000e+00,,", "1.00,0.00000e+00,,", "2.00,0.00000e+00,,",
        "3.00,4.94066e-324,,", "4.00,1.50000e-07,,", "5.00,1.00000e+308,,",
    ]


def test_csv_format_details(tmp_path, fig1):
    path = tmp_path / "one.csv"
    save_curves_csv({"slow": sweep(fig1.scenarios["slow"], 0.0, 2.0, 1.0)}, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "length_km,rate_dual_bps,rate_fast_bps,rate_slow_bps"
    # Only the slow column is populated; no trailing comma issues.
    assert lines[1].startswith("0.00,,,")
    assert not lines[1].endswith(",")


def test_csv_rejects_mismatched_grids(tmp_path, fig1):
    a = sweep(fig1.scenarios["dual"], 0.0, 10.0, 1.0)
    b = sweep(fig1.scenarios["fast"], 0.0, 10.0, 2.0)
    with pytest.raises(DomainError):
        save_curves_csv({"dual": a, "fast": b}, tmp_path / "bad.csv")


def test_refused_save_leaves_an_existing_file(tmp_path):
    path = tmp_path / "kept.csv"
    path.write_text("precious\n")
    with pytest.raises(DomainError, match="unknown curve roles"):
        save_curves_csv({"bogus": RateCurve((0.0,), (1.0,))}, path)
    assert path.read_text() == "precious\n"


def test_sweep_submodule_is_not_shadowed():
    import dualdet.sweep as m

    assert m.sweep_preset is sweep_preset
    assert m.sweep is sweep
