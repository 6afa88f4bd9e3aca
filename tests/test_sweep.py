import collections
import csv
import dataclasses
import io
import itertools
import json
import math
import operator
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dualdet.scenario
import dualdet.sweep
from dualdet.bb84 import Bb84Config, _arm as bb84_arm
from dualdet.core import (
    LENGTH_FORMAT, RATE_FORMAT, DomainError, GmcsSource, HomodyneSpec, LinkSpec, SpdSpec, binary_entropy,
    bisect_sign_change, channel_transmittance,
)
from dualdet.decoy import DecoyConfig
from dualdet.gmcs import _arm as gmcs_arm
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


def search_grid_list(l_max, step):
    """The search grid's points, [point(i) for i in range(last + 1)]."""
    last, point = _search_grid(l_max, step)
    return [point(i) for i in range(last + 1)]


@settings(max_examples=300, deadline=None)
@given(l_max=st.one_of(st.floats(0.0, 300.0), st.floats(allow_nan=True), st.sampled_from((0.0, 5e-324, 1e300))),
       cells=st.one_of(st.floats(0.0, 2000.0, exclude_min=True), st.integers(1, 2000).map(float)),
       step=st.one_of(st.none(), st.floats(allow_nan=True)))
def test_search_grid_is_the_checked_length_grid(l_max, cells, step):
    # A step of l_max over a whole or partial number of cells, or any float:
    # the same points as the list from length_grid, or its GridError message.
    if step is None:
        step = l_max / cells
    assert _grid_or_error(search_grid_list, l_max, step) == _grid_or_error(reference_search_grid, l_max, step)


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
    grid = search_grid_list(l_max, step)
    assert grid == reference_search_grid(l_max, step)
    assert len(grid) in (1_000_001, 1_000_002)
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


def _count_pair_checks(monkeypatch) -> list:
    """A list that grows by one for each pair compared in dualdet.sweep's pairwise operator.lt passes."""
    pairs = []

    def lt(a, b):
        pairs.append((a, b))
        return a < b

    monkeypatch.setattr(dualdet.sweep, "operator", SimpleNamespace(**{**vars(operator), "lt": lt}))
    return pairs


def test_a_curve_on_the_accepted_grid_skips_only_its_grid_checks(monkeypatch):
    # A curve checks its grid and keeps nothing. While RateCurve._accepted holds
    # that grid object, as it does between sweep_preset's curves, a curve on it
    # is not checked again; an equal but distinct tuple is, and the
    # one-rate-per-length check always runs.
    grid = tuple(length_grid(0.0, 3.0, 1.0))
    pairs = _count_pair_checks(monkeypatch)
    RateCurve(grid, (1.0,) * 4)
    assert RateCurve._accepted is None and len(pairs) == 3
    monkeypatch.setattr(RateCurve, "_accepted", grid)
    RateCurve(grid, (2.0,) * 4)
    assert len(pairs) == 3
    equal = tuple(list(grid))
    assert equal == grid and equal is not grid
    RateCurve(equal, (1.0,) * 4)
    assert len(pairs) == 6 and RateCurve._accepted is grid
    for lengths in (grid, equal):
        with pytest.raises(DomainError, match="^curve needs one rate per length$"):
            RateCurve(lengths, (1.0,) * 3)


@pytest.mark.parametrize("bad, message", [
    ((0.0, 2.0, 1.0, 3.0), "strictly increasing"),
    ((0.0, 1.0, 1.0, 3.0), "strictly increasing"),
    ((0.0, math.nan, 2.0, 3.0), "strictly increasing"),
    ((0.0, 1.0, 2.0, math.inf), "finite"),
    ((math.nan, 1.0, 2.0, 3.0), "finite"),
], ids=["decreasing", "repeated", "nan-inside", "inf-last", "nan-first"])
def test_a_bad_grid_right_after_an_accepted_one_is_refused(monkeypatch, bad, message):
    good = tuple(length_grid(0.0, 3.0, 1.0))
    RateCurve(good, (1.0,) * 4)
    monkeypatch.setattr(RateCurve, "_accepted", good)
    with pytest.raises(DomainError, match=message):
        RateCurve(bad, (1.0,) * 4)
    assert RateCurve._accepted is good


class _Float(float):
    pass


class _Tuple(tuple):
    pass


@pytest.mark.parametrize("grid", [
    (0.0, 1.0, 2.0), [0.0, 1.0, 2.0], (0, 1.0, 2.0), (0.0, _Float(1.0), 2.0), _Tuple((0.0, 1.0, 2.0)),
], ids=["tuple", "list", "int-item", "float-subclass-item", "tuple-subclass"])
def test_a_curve_keeps_no_grid(monkeypatch, grid):
    # Only sweep_preset sets RateCurve._accepted, so a curve built on its own
    # keeps no reference, and each curve on the same grid checks it.
    pairs = _count_pair_checks(monkeypatch)
    for checks in (1, 2):
        RateCurve(grid, (1.0,) * 3)
        assert RateCurve._accepted is None and len(pairs) == 2 * checks


def test_a_list_grid_changed_after_its_curve_is_checked_again():
    grid = [0.0, 1.0, 2.0]
    RateCurve(grid, (1.0,) * 3)
    grid[1] = 5.0
    with pytest.raises(DomainError, match="strictly increasing"):
        RateCurve(grid, (1.0,) * 3)


def test_sweep_preset_checks_its_grid_once_per_call(monkeypatch, fig1):
    # Each call builds a fresh grid and checks it once, for its three curves;
    # nothing is remembered from one call to the next.
    points = len(length_grid(fig1.l_min, fig1.l_max, fig1.step))
    pairs = _count_pair_checks(monkeypatch)
    for calls in (1, 2):
        sweep_preset(fig1)
        assert len(pairs) == calls * (points - 1) and RateCurve._accepted is None


def test_nothing_is_kept_after_sweep_or_sweep_preset_returns(monkeypatch, fig1):
    # The largest grid is 1,000,001 floats: holding it after the call would keep about 32 MB.
    sweep(fig1.scenarios["dual"], 0.0, 10.0, 1.0)
    assert RateCurve._accepted is None
    sweep_preset(fig1)
    assert RateCurve._accepted is None
    # A curve that raises between the first and the last leaves nothing kept either.
    raw_rates = dualdet.sweep._raw_rates
    monkeypatch.setattr(dualdet.sweep, "_raw_rates", lambda scenarios, lengths: [
        *raw_rates(scenarios, lengths)[:2], (0.0,)])
    with pytest.raises(DomainError, match="^curve needs one rate per length$"):
        sweep_preset(fig1)
    assert RateCurve._accepted is None


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
    # With y0 = 0 on both detectors the preset 4 decoy dual's signal gain
    # rounds to 0 from 680 km on this grid, and the sweep raises evaluate's
    # first refusal.
    dual = figure_preset(4).scenarios["dual"]
    dual = dataclasses.replace(dual, fast=dataclasses.replace(dual.fast, y0=0.0),
                               slow=dataclasses.replace(dual.slow, y0=0.0))
    grid = length_grid(0.0, 1000.0, 10.0)
    expected = _hex_or_error(lambda: [evaluate(dual, length) for length in grid])
    assert expected == (ZeroDivisionError, "signal gain is zero; QBER undefined")
    assert _hex_or_error(lambda: sweep(dual, 0.0, 1000.0, 10.0).raw) == expected


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
    (5, gmcs_arm, 2), (6, gmcs_arm, 2), (7, gmcs_arm, 2),
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


@pytest.mark.parametrize("protocol, fast, slow, config, link, bounds", [
    # Detectors with no dark counts: their gain is 0 where t underflows (15,315 km and 15,350 km).
    ("bb84_single_photon", SpdSpec(1e9, 0.059, 0.0, 0.018), SpdSpec(2.5e6, 0.5, 0.0, 0.018),
     Bb84Config(0.5, 1.22), LinkSpec(alpha=0.21, g_bob=0.16), (14000.0, 16000.0, 5.0)),
    # The dual's bounding arm (the slow detector) refuses first: evaluate
    # raises "gain is zero" at 615 km, where the keyed column alone would
    # raise "signal gain is zero" at 675 km.
    ("decoy_bb84", SpdSpec(1e9, 0.059, 0.0, 0.018), SpdSpec(2.5e6, 1e-310, 0.0, 0.018),
     DecoyConfig(0.73, 0.5, 1.22), LinkSpec(alpha=0.21, g_bob=0.16), (0.0, 1000.0, 5.0)),
], ids=["bb84_single_photon", "decoy_bb84"])
def test_shared_arms_refuse_in_evaluate_order(protocol, fast, slow, config, link, bounds):
    scenarios = {role: Scenario(protocol=protocol, mode=mode, link=link, config=config, fast=fast, slow=slow)
                 for role, mode in (("dual", "dual"), ("fast", "single_fast"), ("slow", "single_slow"))}
    grid = length_grid(*bounds)
    for scenario in scenarios.values():
        expected = _first_refusal([scenario], grid)
        assert expected[0] in (DomainError, ZeroDivisionError)
        assert _hex_or_error(lambda: sweep(scenario, *bounds).raw) == expected
    preset = FigurePreset(0, "past the model's domain", scenarios, *bounds)
    expected = _first_refusal([scenarios[role] for role in CURVE_ROLES], grid)
    assert expected[0] in (DomainError, ZeroDivisionError)
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


def catalogue_searches():
    """The 28 distance searches of the benchmark, rebuilt from the catalogue
    fields of the committed answers: (entry, dual, envelope, l_max)."""
    entries = json.loads((GOLDEN / "searches.json").read_text(encoding="utf-8"))
    assert len(entries) == 28
    for entry in entries:
        preset = figure_preset(entry["figure"])
        dual = preset.scenarios["dual"]
        if entry["switch_loss_db"]:
            dual = dataclasses.replace(dual, link=dataclasses.replace(dual.link, switch_loss=entry["switch_loss_db"]))
        l_max = 250.0 if isinstance(dual.fast, SpdSpec) else 60.0
        yield entry, dual, [preset.scenarios["fast"], preset.scenarios["slow"]], l_max


def test_searches_match_golden():
    # The "same behaviour" gate for searches.
    wrong = []
    for entry, dual, envelope, l_max in catalogue_searches():
        if entry["kind"] == "crossover":
            answer = crossover_distance(dual, envelope, l_max)
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


# The ids are kept as the tests' names: they carry the crossover counts of an
# earlier search (57, 33, 45, 51, 27 and 27), not today's.
@pytest.mark.parametrize("fig_id, switch_loss, l_max, crossover_calls, maxdist_calls", [
    (1, 0.0, 250.0, 45, 19), (5, 0.0, 60.0, 39, 17), (6, 0.0, 60.0, 39, 17), (4, 3.0, 250.0, 39, 19),
    (5, 3.0, 60.0, 15, 2), (7, 3.0, 60.0, 15, 2),
], ids=["1-250.0-57-19", "5-60.0-33-17", "6-60.0-45-17", "4-3dB-250.0-51-19", "5-3dB-60.0-27-2", "7-3dB-60.0-27-2"])
def test_searches_scan_only_up_to_the_answer(monkeypatch, fig_id, switch_loss, l_max, crossover_calls, maxdist_calls):
    # Crossover: 3 scenarios x grid points, + 2 x 9 halvings of the 1 km
    # bracketing cell, as the fast single is proved below the dual there.
    # The first block spans the largest power of two cells in the grid, 128
    # of 250 and 32 of 60, and the blocks halve from there. Preset 1
    # (crossing in [124, 125]): 128 fails across the crossing, so no later
    # block reaches past it; 64, 96, 112, 120 and 124 are proved, each block
    # halved to stop short of 128; 126 fails across the crossing and 125 is
    # walked: 3 x 9 + 2 x 9 = 45, where the walk took 3 x (126 + 9) = 405.
    # Preset 5 (GMCS DR, crossing in [5, 6]): 32, 16 and 8 fail across it, 4
    # is proved, 6 fails, 5 is walked: 3 x 7 + 2 x 9 = 39, the walk
    # 3 x (7 + 9) = 48. Preset 6 (GMCS RR, crossing in [18, 19]; its fast
    # single is no twin, but negative): 32 fails across it, 16 is proved, 24
    # and 20 fail across it, 18 is proved, 19 is walked: 3 x 7 + 2 x 9 = 39, the walk
    # 3 x (20 + 9) = 87. With a 3 dB switch presets 4, 5 and 7 have no
    # crossing, and every block is proved by a single above the dual,
    # across non-positive rates too. Preset 4 (a single is above the dual
    # everywhere; the dual is negative from 68 km, the fast single from 76
    # km, the slow from 198 km): 128 and 64 fail and 32 is proved; while
    # the dual nears and passes 0, 96 and 64 fail and 48 is proved, 80
    # fails and 64 is proved, 96 and 80 fail and 72 is proved; then 88, 120,
    # 184, 248 and 250 are proved (the blocks double, up to what the grid's
    # end leaves): 3 x 13 = 39, where the walk took 3 x 251 = 753. Preset 5
    # (the dual is negative from 0 km): 32 is proved, then the block halves
    # to what the grid's end leaves, 48, 56 and 60: 3 x 5 = 15, the walk
    # 3 x 61 = 183; preset 7 (GMCS RR) the same. Maxdist (every scenario's
    # rate changes sign once): l_max and 0, then the middle of each block
    # split from the right, ceil(log2(cells)) of them (8 of 250 cells, 6 of
    # 60), down to the last positive point, as the block past each negative
    # middle is proved; + 9 halvings of its 1 km cell. With no positive
    # point the whole grid is one proved block: l_max and 0 only.
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
    last, point = _search_grid(l_max, coarse_step)
    found = next((i for i in reversed(range(last + 1)) if rate(point(i)) > 0.0), None)
    if found is None:
        return None
    if found == last:
        return l_max
    return bisect_sign_change(rate, point(found), point(found + 1), tol=DISTANCE_TOL / 5)


def _hex_or_refusal(search, *args):
    try:
        answer = search(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)
    return None if answer is None else answer.hex()


#: Decoy intensities from the config's whole domain, (0, 700].
DECOY_MUS = st.floats(0.0, 700.0, exclude_min=True)


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
        "decoy_bb84": (spd, st.builds(DecoyConfig, mu=st.one_of(st.floats(0.01, 1.0), DECOY_MUS), **sifting)),
        "gmcs_dr": (
            st.builds(HomodyneSpec, rep_rate=st.floats(1e3, 1e9), g_det=floats((0.8, 1.0), (0.01, 1.0)),
                      eps_det=floats((0.0, 0.05), (0.0, 1.0))),
            st.builds(GmcsSource, v=st.floats(1.01, 100.0), beta=floats((0.9, 1.0), (0.01, 1.0)),
                      eps_pre=floats((0.0, 0.02), (0.0, 0.2))),
        ),
    }
    parts["gmcs_rr"] = parts["gmcs_dr"]  # a dual RR receiver also needs equal g_det (same_g_det)
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
    "gmcs_rr": ("single_fast", "single_slow", "dual"),
}


def same_g_det(protocol, fast, slow):
    """slow, with fast's g_det under reverse reconciliation, which refuses a dual receiver without it."""
    return dataclasses.replace(slow, g_det=fast.g_det) if protocol == "gmcs_rr" else slow


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
# 2.98e-23 at 84 km, both within the error bound of 0, as is every rate
# past 50 km: no block there is proved negative, so the search reads every
# point from 84 to 134 km, as the scan does, and bisects the scan's cell
# [84, 85], not [82, 83].
@example(data=Replay(
    "bb84_single_photon", False, "dual", LinkSpec(alpha=0.99609375, g_bob=0.125), Bb84Config(0.5, 1.0),
    SpdSpec(1000.0, 1.0, 0.0, 0.0), SpdSpec(1000.0, 1.0, 0.0625, 0.0), 134.0, 1.0,
))
# The RR rate is negative from 4.6 km and tends to 0 with t: past about
# 105 km it is within the proofs' margin of 0, so no block there is proved
# negative, and the search reads every point from 105 to 154 km, as the
# scan does, and each of them once.
@example(data=Replay(
    "gmcs_rr", False, "single_fast", LinkSpec(alpha=1.0), GmcsSource(v=3.0, beta=0.5),
    HomodyneSpec(1000.0, 1.0, 0.0), HomodyneSpec(1000.0, 1.0, 0.0), 154.0, 1.0,
))
def test_max_distance_search_matches_backward_scan(protocol, data):
    # Where the rate changes sign once, splitting the grid's index range from
    # the right finds the scan's last positive point, so the answer is the
    # same float; blocks it cannot prove negative are split down to single
    # cells, and no length is evaluated twice.
    assume(getattr(data, "protocol", protocol) == protocol)
    detectors, configs, links = specs(protocol, data.draw(st.booleans()))
    mode = data.draw(st.sampled_from(ONE_SIGN_CHANGE[protocol]))
    link, config, fast = data.draw(links), data.draw(configs), data.draw(detectors)
    scenario = Scenario(protocol=protocol, mode=mode, link=link, config=config, fast=fast,
                        slow=same_g_det(protocol, fast, data.draw(detectors)))
    assert math.isfinite(scenario._error_scale)
    l_max = data.draw(st.one_of(st.floats(0.5, 30.0), st.floats(0.5, 300.0)))
    step = data.draw(st.floats(0.1, 20.0))
    expected = _hex_or_refusal(backward_scan, lambda length: evaluate(scenario, length), l_max, step)
    with pytest.MonkeyPatch.context() as patch:
        lengths = count_evaluations(patch)
        assert _hex_or_refusal(max_secure_distance, scenario, l_max, step) == expected
    assert [length for length, n in collections.Counter(lengths).items() if n > 1] == []


@pytest.mark.parametrize("scenario, l_max, answer, calls", [
    (Scenario(protocol="gmcs_rr", mode="single_fast", link=LinkSpec(alpha=1.0), config=GmcsSource(v=3.0, beta=0.5),
              fast=HomodyneSpec(1000.0, 1.0, 0.0), slow=HomodyneSpec(1000.0, 1.0, 0.0)), 154.0, 4.5771484375, 68),
    (Scenario(protocol="bb84_single_photon", mode="single_fast", link=LinkSpec(0.2, g_bob=0.5),
              config=Bb84Config(0.5, 1.22), fast=SpdSpec(1e9, 0.1, 0.0, 0.2), slow=SpdSpec(1e9, 0.1, 0.0, 0.2)),
     1000.0, None, 536),
], ids=["gmcs_rr", "bb84_never_positive"])
def test_maxdist_reads_once_where_no_block_is_proved(monkeypatch, scenario, l_max, answer, calls):
    # Where the rate is within the proofs' margin of 0, no block is proved
    # negative, and each point there is read once. The RR example of the
    # backward scan test: every point from 105 to 154 km, 0 and the middles
    # 77, 96, 38, 19, 9, 4, 6 and 5 km, and 9 halvings of [4, 5]: 50 + 9 + 9
    # = 68. BB84 with e_det = 0.2 makes no key at any length, and its rate
    # is within the margin of 0, 2**-40 of its error scale, from 471 km, so
    # no block ending past 470 km is proved: every point from 470 to 1,000
    # km, and 0, 250, 375, 437 and 468 km, which prove the blocks between
    # them: 531 + 5 = 536.
    lengths = count_evaluations(monkeypatch)
    assert max_secure_distance(scenario, l_max) == answer
    assert len(lengths) == len(set(lengths)) == calls


def forward_scan(rates, l_max, coarse_step):
    """Reference crossover: walk the search grid forward from 0 to the first
    cell where the first rate minus the best of the others turns from
    positive to non-positive, and bisect it; at a tangency (0 at the cell
    end, positive at the next point) the cell midpoint."""
    def diff(length):
        first, *others = rates(length)
        return first - max(others)

    last, point = _search_grid(l_max, coarse_step)
    here = diff(point(0))
    for i in range(last):
        prev, here = here, diff(point(i + 1))
        if prev > 0.0 and here <= 0.0:
            if here == 0.0 and i + 2 <= last and diff(point(i + 2)) > 0.0:
                return 0.5 * (point(i) + point(i + 1))
            return bisect_sign_change(diff, point(i), point(i + 1), tol=DISTANCE_TOL / 5)
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


def _gap(rates):
    """The first rate minus the best of the others, as the crossover's gallop computes it."""
    return rates[0] - max(rates[1:])


def record_grid_phase(patch) -> list:
    """Record the crossover through patch, in order: ("evaluate", length,
    scenario) for each evaluation, followed by ("refused", length) if it
    raises, ("block", point(i), gap at i, point(j), gap at j) for each block
    its gallop tests, and ("end",) when the gallop returns."""
    events = []
    sweep_module = dualdet.sweep
    real_evaluate, real_block_proof = sweep_module.evaluate, sweep_module._block_proof
    real_gallop = sweep_module._gallop

    def evaluate_(scenario, length):
        events.append(("evaluate", length, scenario))
        try:
            return real_evaluate(scenario, length)
        except (ArithmeticError, ValueError):
            events.append(("refused", length))
            raise

    def block_proof(scenarios, point):
        below, proves = real_block_proof(scenarios, point)

        def recorded(i, here, j, there):
            events.append(("block", point(i), _gap(here), point(j), _gap(there)))
            return proves(i, here, j, there)

        return below, recorded

    def gallop(*args):
        found = real_gallop(*args)
        events.append(("end",))
        return found

    patch.setattr(sweep_module, "evaluate", evaluate_)
    patch.setattr(sweep_module, "_block_proof", block_proof)
    patch.setattr(sweep_module, "_gallop", gallop)
    return events


def assert_no_probe_past_a_seen_crossing(events) -> float:
    """Once a block has been tested with the difference positive at its
    start and not at its end, the grid phase evaluates no length past that
    end. Returns the least such end, inf if there is none."""
    crossed = math.inf
    for event in itertools.takewhile(lambda event: event[0] != "end", events):
        if event[0] == "block":
            _, _, start_gap, end, end_gap = event
            if start_gap > 0.0 >= end_gap:
                crossed = min(crossed, end)
        else:
            assert event[1] <= crossed, f"evaluated {event[1]} km past a crossing seen at {crossed} km"
    return crossed


def assert_each_point_read_once(events) -> None:
    """No length is evaluated twice for one scenario over the whole search:
    grid phase, tangency check and bisection, a length that refused too."""
    reads = collections.Counter((id(event[2]), event[1]) for event in events if event[0] == "evaluate")
    assert [key for key, n in reads.items() if n > 1] == []


def check_crossover_matches_forward_scan(protocol, data, switch_losses):
    """Draw a dual receiver behind a switch loss from switch_losses and an
    envelope of its single receivers, compare the crossover with the
    reference scan, float for float or error for error, and check that its
    grid phase reads no length past a crossing it has seen and that it
    evaluates each length once per scenario."""
    detectors, configs, links = specs(protocol, data.draw(st.booleans()))
    fast, slow, config = data.draw(detectors), data.draw(detectors), data.draw(configs)
    if data.draw(st.booleans()):  # as in the paper, the fast detector runs 10 to 10^4 times faster
        fast = dataclasses.replace(fast, rep_rate=slow.rep_rate * data.draw(st.floats(10.0, 1e4)))
    if protocol == "decoy_bb84":
        config = dataclasses.replace(config, mu=data.draw(st.one_of(st.floats(0.01, 2.0), DECOY_MUS)))
    slow = same_g_det(protocol, fast, slow)
    switch_loss = data.draw(switch_losses)
    link = dataclasses.replace(data.draw(links), switch_loss=switch_loss)
    receivers = {role: Scenario(protocol=protocol, mode=mode, link=link, config=config, fast=fast, slow=slow)
                 for role, mode in (("dual", "dual"), ("fast", "single_fast"), ("slow", "single_slow"))}
    scenarios = [receivers["dual"], *(receivers[role] for role in data.draw(st.sampled_from(ENVELOPES)))]
    l_max = data.draw(st.floats(0.5, 300.0))
    step = data.draw(st.floats(0.37, 2.5))
    expected = _answer_or_error(forward_scan, lambda length: [evaluate(s, length) for s in scenarios], l_max, step)
    with pytest.MonkeyPatch.context() as patch:
        events = record_grid_phase(patch)
        assert _answer_or_error(crossover_distance, scenarios[0], scenarios[1:], l_max, step) == expected
    assert_no_probe_past_a_seen_crossing(events)
    assert_each_point_read_once(events)


@pytest.mark.filterwarnings("ignore:curves touch")
@pytest.mark.parametrize("protocol", ["bb84_single_photon", "decoy_bb84", "gmcs_dr", "gmcs_rr"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_crossover_matches_forward_scan(protocol, data):
    # Skipping the blocks a proof covers (every protocol, decoy at every mu)
    # leaves the first bracketing cell, so the answer is the same float.
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


def test_crossover_probes_nothing_past_a_crossing_it_has_seen(monkeypatch):
    # A block that fails with the difference positive at its start and not
    # at its end holds the walk's first crossing, so no later block reaches
    # past it. Each of the 11 catalogue crossovers with an answer sees one
    # before its bracketing cell, the 3 without see none.
    searched = 0
    for entry, dual, envelope, l_max in catalogue_searches():
        if entry["kind"] == "crossover":
            with monkeypatch.context() as patch:
                events = record_grid_phase(patch)
                assert crossover_distance(dual, envelope, l_max) == entry["answer"]
            crossed = assert_no_probe_past_a_seen_crossing(events)
            assert crossed == math.inf if entry["answer"] is None else entry["answer"] < crossed
            assert_each_point_read_once(events)
            searched += 1
    assert searched == 14


#: Differences of either sign, ties and subnormal sizes.
GAPS = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324)), st.floats(-2.0, 2.0), st.floats(-1e-310, 1e-310))


def _cell_or_refusal(search):
    """A search's result, or its exception type and message."""
    try:
        return search()
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(gaps=st.lists(GAPS, min_size=2, max_size=120), refuse_from=st.none() | st.integers(0, 120),
       data=st.data())
# The scan reads the last index after a non-positive difference, as
# forward_scan does, so a refusal there is raised, not None returned.
@example(gaps=[0.0, 0.0], refuse_from=1, data=Replay(None))
def test_gallop_is_the_forward_scan_over_its_reader(gaps, refuse_from, data):
    # _gallop sees the points only through at(i), which refuses every index
    # from refuse_from on, the way evaluate refuses past some length. A
    # proof holds only where every difference on the block has one strict
    # sign, and may fail there too. The walk finds the forward scan's first
    # bracketing cell, raises what the scan raises, or returns None.
    def at(i):
        assert 0 <= i < len(gaps)
        if refuse_from is not None and i >= refuse_from:
            raise DomainError(f"no point {i}")
        return (i,), gaps[i]

    def proves(i, here, j, there):
        assert here == (i,) and there == (j,) and i < j
        block = gaps[i:j + 1]
        one_sign = all(gap > 0.0 for gap in block) or all(gap < 0.0 for gap in block)
        return one_sign and data.draw(st.booleans())

    def scan():  # reads every index up to the first crossing, as forward_scan does
        here = at(0)[1]
        for i in range(len(gaps) - 1):
            prev, here = here, at(i + 1)[1]
            if prev > 0.0 >= here:
                return i
        return None

    assert _cell_or_refusal(lambda: dualdet.sweep._gallop(at, len(gaps) - 1, proves)) == _cell_or_refusal(scan)


def two_pass_block_proof(scenarios, point):
    """Reference: _block_proof's below and above as the crossover's gallop
    used them before its single block test, all(below(...)) or above(...),
    each pair's bound written out. X is proved above Y when x > y*p + margin
    and x > y*q + margin, with (p, q) = (rho_a, rho_m), each scenario's
    N(L_j)/N(L_i), where the member shares the first scenario's attenuation,
    and (1, r_a*r_m), r = t(L_j)/t(L_i), where it does not."""
    a = scenarios[0]
    limit = min(map(dualdet.scenario._proof_length, scenarios))
    members = [(k, dualdet.sweep._MARGIN * (a._error_scale + m._error_scale) + dualdet.sweep._LEAST_MARGIN,
                dualdet.scenario._twins(a, m))
               for k, m in enumerate(scenarios[1:], 1)]

    def ratio(i, j, k):
        return channel_transmittance(scenarios[k].link.alpha, point(j) - point(i))

    def rho(i, j, k):  # N(L_j)/N(L_i), N = c + d*s: from s(L_i) and s(L_j) = s(L_i)*r
        c, d = dualdet.scenario._normalizer(scenarios[k])
        if c == 0.0:
            return ratio(i, j, k)
        s = channel_transmittance(scenarios[k].link.alpha, point(i))
        return (c + d * s * ratio(i, j, k)) / (c + d * s)

    def factors(i, j, k):
        if scenarios[k].link.alpha == a.link.alpha:
            return rho(i, j, 0), rho(i, j, k)
        return 1.0, ratio(i, j, 0) * ratio(i, j, k)

    def over(x, y, margin, i, j, k):
        p, q = factors(i, j, k)
        return x > y * p + margin and x > y * q + margin

    def below(i, here, j, there):
        if point(j) > limit:
            return [False] * len(members)
        return [over(there[0], here[k], margin, i, j, k)
                or twin and (there[0] - there[k]) * ratio(i, j, 0) > margin for k, margin, twin in members]

    def above(i, here, j, there):
        if point(j) > limit:
            return False
        return any(over(there[k], here[0], margin, i, j, k) for k, margin, _ in members)

    return below, above


#: Rates in units of an error scale: either sign, ties and subnormal sizes.
UNIT_RATES = st.one_of(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)), st.floats(-1.0, 1.0), st.floats(-1e-300, 1e-300))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
# The fast single is the dual's twin, and only the twin rule proves it below.
@example(data=Replay(
    "bb84_single_photon", "bb84_single_photon", False, LinkSpec(alpha=0.2, g_bob=1.0), Bb84Config(0.5, 1.22),
    SpdSpec(1e6, 0.5, 1e-6, 0.05), False, SpdSpec(1e6, 0.5, 1e-6, 0.01), [0.3], [("single_fast", 0.2)],
    100.0, 1.0, 0, 4, [1.0, 2.0], [1.5, 1.0],
))
# The block ends at 20,000 km, past the dual's proof length of about 15,036 km
# (its fast detector has y0 = 0), where the rates alone would prove it.
@example(data=Replay(
    "bb84_single_photon", "bb84_single_photon", False, LinkSpec(alpha=0.2, g_bob=1.0), Bb84Config(0.5, 1.22),
    SpdSpec(1e6, 0.5, 1e-6, 0.05), True, SpdSpec(1e6, 0.5, 1e-6, 0.01), [0.3], [("single_slow", 0.3)],
    20000.0, 1000.0, 0, 20, [1.0, 0.5], [1.5, 0.1],
))
def test_block_test_is_the_two_pass_form(data):
    # The gallop's single test is all(below(...)) or above(...) of the
    # two-pass form, and below its list, for rates of either sign, members
    # twin or not, sharing the first scenario's attenuation (the normalizer
    # bound) or with one of their own (each rate's bound alone), and blocks
    # past _proof_length (a detector with y0 = 0 has a finite one).
    protocol = data.draw(st.sampled_from(sorted(ONE_SIGN_CHANGE)))
    detectors, configs, links = specs(protocol, data.draw(st.booleans()))
    link, config, fast = data.draw(links), data.draw(configs), data.draw(detectors)
    if isinstance(fast, SpdSpec) and fast.eta_d > 0.0 and data.draw(st.booleans()):
        fast = dataclasses.replace(fast, y0=0.0)  # a finite _proof_length
    slow = same_g_det(protocol, fast, data.draw(detectors))
    alphas = (link.alpha, *data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2)))
    roles = data.draw(st.lists(st.tuples(st.sampled_from(ONE_SIGN_CHANGE[protocol]), st.sampled_from(alphas)),
                               min_size=1, max_size=3))
    scenarios = [Scenario(protocol, "dual", link, config, fast, slow),
                 *(Scenario(protocol, mode, dataclasses.replace(link, alpha=alpha), config, fast, slow)
                   for mode, alpha in roles)]
    last, point = _search_grid(data.draw(st.floats(1.0, 1e5)), data.draw(st.floats(0.2, 1e3)))
    i = data.draw(st.integers(0, last - 1))
    j = data.draw(st.integers(i + 1, last))
    rates = st.lists(UNIT_RATES.map(lambda unit: unit * scenarios[0]._error_scale),
                     min_size=len(scenarios), max_size=len(scenarios))
    here, there = data.draw(rates), data.draw(rates)
    below, proves = dualdet.sweep._block_proof(scenarios, point)
    ref_below, ref_above = two_pass_block_proof(scenarios, point)
    assert proves(i, here, j, there) == (all(ref_below(i, here, j, there)) or ref_above(i, here, j, there))
    assert below(i, here, j, there) == ref_below(i, here, j, there)


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


@pytest.mark.parametrize("fig_id, limit, refused", [
    (1, 125.0, [126.0, 128.0, 132.0, 136.0, 144.0, 160.0, 192.0]), (2, 201.0, [202.0, 204.0, 208.0, 216.0, 224.0]),
])
def test_crossover_evaluates_a_refused_point_once(monkeypatch, fig_id, limit, refused):
    # The crossover keeps a refusal with the grid points it has read: a
    # later block that ends where an evaluation refused reads the refusal,
    # proves nothing and evaluates nothing again. With evaluate refusing
    # past the bracketing cell's end, the block ends past it refuse (a
    # refusal is no crossing seen, so the blocks grow again after a skip),
    # each once, for the dual alone, which refuses first; a memo that kept
    # no refusal would evaluate 128 km six times (preset 1) and 208 km
    # twice (preset 2). The answer stays the same.
    preset = figure_preset(fig_id)
    dual, envelope = preset.scenarios["dual"], [preset.scenarios["fast"], preset.scenarios["slow"]]
    answer = crossover_distance(dual, envelope, 250.0)
    monkeypatch.setattr(dualdet.sweep, "evaluate", _refusing_past(limit))
    events = record_grid_phase(monkeypatch)
    assert crossover_distance(dual, envelope, 250.0) == answer
    assert sorted(event[1] for event in events if event[0] == "refused") == refused
    assert_each_point_read_once(events)


@pytest.mark.parametrize("mu, crossover, crossover_calls, maxdist, maxdist_calls", [
    (1.5, 51.4462890625, 45, 51.9111328125, 19), (3.0, None, 21, None, 2),
], ids=["1.5", "3.0"])
def test_decoy_above_mu_1_skips_and_halves(monkeypatch, mu, crossover, crossover_calls, maxdist, maxdist_calls):
    # Decoy's normalizer rule holds at every mu (decoy_rate_dual), so preset
    # 4 with mu > 1 skips and halves as every scenario does and finds the
    # scans' answers: at mu 1.5 the scans take 186 and 209 evaluations, and
    # at mu 3.0, where the dual makes no key, 753 and 251. At mu 1.5 the
    # crossover's 128 and 64 fail across the crossing, 32 and 48 are proved,
    # 56 and 52 fail across it, 50 is proved, 51 is walked and [51, 52]
    # bisected: 3 x 9 + 2 x 9 = 45. At mu 3.0 it proves 128, 192, 224, 240,
    # 248 and 250: 3 x 7 = 21.
    config = DecoyConfig(mu=mu, basis_factor=0.5, f_ec=1.22)
    dual, *envelope = (dataclasses.replace(s, config=config) for s in figure_preset(4).scenarios.values())
    assert math.isfinite(dual._error_scale)
    assert forward_scan(lambda length: [evaluate(s, length) for s in (dual, *envelope)], 250.0, 1.0) == crossover
    assert backward_scan(lambda length: evaluate(dual, length), 250.0, 1.0) == maxdist
    lengths = count_evaluations(monkeypatch)
    assert crossover_distance(dual, envelope, 250.0) == crossover
    assert len(lengths) == crossover_calls
    lengths.clear()
    assert max_secure_distance(dual, 250.0) == maxdist
    assert len(lengths) == maxdist_calls


def gain_steps(dual, steps):
    """The preset 1 dual and a member that shares its keyed detector and t
    but not its twin (its bounding detector is the quieter), and an
    evaluate giving each a step rate, steps(is_dual, length), times the
    keyed gain rep_rate*(y0 + eta_d*t): rate/gain, the step, does not rise,
    as the normalizer rule asks. Both share the gain, so where their steps
    tie their rates are the same float, and a block's proof holds exactly
    where the dual's step at its end exceeds the member's at its start."""
    member = dataclasses.replace(dual, slow=dataclasses.replace(dual.slow, e_det=dual.slow.e_det / 2))
    assert not dualdet.scenario._twins(dual, member)

    def rate(scenario, length):
        t = channel_transmittance(scenario.link.alpha, length) * scenario.link.g_bob
        return steps(scenario is dual, length) * scenario.fast.rep_rate * bb84_arm(None, scenario.fast, t)[0]

    return member, rate


def test_crossover_tangency_looks_one_point_ahead(monkeypatch):
    # Step rates times the keyed gain (gain_steps): the dual's step is 2 up
    # to 2.5 km and 1 after, the member's 1 up to 3 km and 0.5 after. The
    # difference touches 0 at the grid point 3 and is positive again at 4:
    # the cell midpoint is reported. The first block [0, 8] fails, [0, 4]
    # fails (a short block), 2 is proved and 3 is walked; the tangency check
    # reads 4 from the walk, so no point is evaluated twice: 2 x 5 = 10
    # evaluations.
    dual = figure_preset(1).scenarios["dual"]
    member, rate = gain_steps(dual, lambda is_dual, length: (2.0 if length <= 2.5 else 1.0) if is_dual
                              else 1.0 if length <= 3.0 else 0.5)
    lengths = count_evaluations(monkeypatch, rate)
    with pytest.warns(UserWarning, match="curves touch near 3.00 km") as record:
        assert crossover_distance(dual, [member], 10.0) == 2.5
    assert len(record) == 1
    assert lengths == [length for length in (0.0, 8.0, 4.0, 2.0, 3.0) for _ in "dm"]


def test_crossover_keeps_a_crossing_seen_before_a_short_block(monkeypatch):
    # Step rates times the keyed gain (gain_steps): the dual's step is 5, 4
    # past 12.5 km and 2 past 21.5 km, the member's 4 and 3 past 12.5 km, so
    # the difference is positive up to 21 km and negative from 22 km. 32
    # fails across the crossing, 16 fails, 8 is proved; 24 fails across the
    # crossing, 16 fails, 12 is proved; 20 and 16 fail, 14 fails (a short
    # block), and 13 and 14 are walked. No block reaches past 24 after that
    # either (one that ended at 28 would be proved past the crossing seen):
    # 16 and 20 are proved, 22 fails across the crossing, 21 is walked, and
    # [21, 22] is bisected from 21.5 on: 2 x 11 grid points + 2 x 9 halvings
    # = 40 evaluations.
    dual = figure_preset(1).scenarios["dual"]

    def steps(is_dual, length):
        if is_dual:
            return 5.0 if length <= 12.5 else 4.0 if length <= 21.5 else 2.0
        return 4.0 if length <= 12.5 else 3.0

    member, rate = gain_steps(dual, steps)
    lengths = count_evaluations(monkeypatch, rate)
    answer = crossover_distance(dual, [member], 40.0)
    assert answer == forward_scan(lambda length: [rate(dual, length), rate(member, length)], 40.0, 1.0)
    grid_phase = [0.0, 32.0, 16.0, 8.0, 24.0, 12.0, 20.0, 14.0, 13.0, 22.0, 21.0]
    assert lengths[:2 * len(grid_phase)] == [length for length in grid_phase for _ in "dm"]
    assert lengths[2 * len(grid_phase):2 * len(grid_phase) + 2] == [21.5, 21.5]
    assert all(21.0 < length < 22.0 for length in lengths[2 * len(grid_phase):])
    assert len(lengths) == 40


def test_crossover_answers_before_the_model_domain_ends():
    # The GMCS rates are finite at every t: far out they sit at their g -> 0
    # limits, and the crossover at 5.65 km is found with a grid to 20,000 km.
    preset = figure_preset(5)
    envelope = [preset.scenarios["fast"], preset.scenarios["slow"]]
    assert crossover_distance(preset.scenarios["dual"], envelope, 20000.0) == 5.6533203125


def test_rr_dual_keyed_by_the_quieter_detector_is_proved(monkeypatch):
    # The RR monotone rule needs no order of the arms' noise (gmcs_rr_rate_dual):
    # a dual that keys with the quiet detector and bounds with the noisy one
    # halves and skips too, and finds the scans' answers.
    fast, slow = HomodyneSpec(82e6, 0.8, 0.01), HomodyneSpec(1e6, 0.8, 0.43)
    dual, single = (dataclasses.replace(figure_preset(6).scenarios["dual"], mode=mode, fast=fast, slow=slow)
                    for mode in ("dual", "single_slow"))
    assert dual._error_scale is not None
    expected = (backward_scan(lambda length: evaluate(dual, length), 60.0, 1.0),
                forward_scan(lambda length: [evaluate(dual, length), evaluate(single, length)], 60.0, 1.0))
    lengths = count_evaluations(monkeypatch)
    assert (max_secure_distance(dual, 60.0), crossover_distance(dual, [single], 60.0)) == expected
    assert expected[1] is not None
    # Maxdist: 60, 0, the middles of 6 blocks split from the right, and 9
    # halvings of the cell [8, 9].
    # Crossover, 2 rates a point: 0, 2, 6 and 8 proved, 14 and 10 failing,
    # 9 walked, and 9 halvings of [8, 9]; the walk reads 10 points.
    assert len(lengths) == 17 + 2 * (7 + 9)


def test_maxdist_proves_long_blocks_past_the_answer_piece_by_piece(monkeypatch):
    # Past 19 km the preset 6 dual rate tends to -rep_rate*log2(1.01) (the
    # quiet arm's eps_det), so x_i*r over a block of thousands of km is
    # within the margin of 0: such a block is split until each piece is
    # proved. 7,000 km and 0; the middles of 13 blocks split from the right,
    # 3,500 km down to 19 km, and 26 more that split the long blocks past
    # them; and 9 halvings of the cell: 50, where the backward scan takes
    # 7,006. Then 17 for the same answer within 60 km.
    dual = figure_preset(6).scenarios["dual"]
    expected = backward_scan(lambda length: evaluate(dual, length), 7000.0, 1.0)
    lengths = count_evaluations(monkeypatch)
    assert max_secure_distance(dual, 7000.0) == expected == max_secure_distance(dual, 60.0)
    assert len(lengths) == 2 + 13 + 26 + 9 + 17


def test_rr_crossover_answers_the_same_far_out():
    # The RR rates are defined and proved at every t, 0 included: with a grid
    # to 20,000 km the crossover is found near 18.7 km, as within 60 km.
    preset = figure_preset(6)
    dual, envelope = preset.scenarios["dual"], [preset.scenarios["fast"], preset.scenarios["slow"]]
    assert crossover_distance(dual, envelope, 20000.0) == crossover_distance(dual, envelope, 60.0) == 18.6689453125


def test_rr_maxdist_halves_from_a_far_l_max(monkeypatch):
    # The RR proofs hold at every g, so blocks are proved negative from
    # 7,500 km too, where the backward scan takes 7,492 evaluations.
    dual = figure_preset(6).scenarios["dual"]
    lengths = count_evaluations(monkeypatch)
    assert max_secure_distance(dual, 7500.0) == 18.8779296875
    assert len(lengths) <= 100


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


@pytest.mark.parametrize("empty", [tuple, iter, lambda members: (s for s in members)],
                         ids=["tuple", "iterator", "generator"])
def test_crossover_needs_a_scenario_in_any_iterable(fig1, empty):
    # An empty iterator is refused as an empty list is, not by a failing max().
    with pytest.raises(DomainError, match="at least one scenario"):
        crossover_distance(fig1.scenarios["dual"], empty(()), 250.0)


@pytest.mark.parametrize("members", [list, tuple, iter, lambda members: (s for s in members)],
                         ids=["list", "tuple", "iterator", "generator"])
def test_crossover_reads_scenario_b_once(fig1, members):
    # The envelope may be any iterable: it is read once, so an iterator is
    # not used up before the final cell reads it.
    envelope = members([fig1.scenarios["fast"], fig1.scenarios["slow"]])
    assert crossover_distance(fig1.scenarios["dual"], envelope, 250.0) == 124.0849609375


def test_searches_compute_proof_constants_once_per_scenario(count_calls, fig1):
    # Each scenario keeps its _proof_length and _normalizer from the first
    # search that reads them, so searching again computes neither.
    lengths = count_calls(dualdet.scenario._proof_length)
    normalizers = count_calls(dualdet.scenario._normalizer)
    # replace() copies keep nothing yet, whatever earlier tests read off the preset's scenarios.
    dual, fast, slow = (dataclasses.replace(fig1.scenarios[role]) for role in ("dual", "fast", "slow"))
    for _ in range(3):
        assert crossover_distance(dual, [fast, slow], 250.0) == 124.0849609375
        assert max_secure_distance(dual, 250.0) == 124.7802734375
    once = {id(dual): 1, id(fast): 1, id(slow): 1}
    assert collections.Counter(id(args[0]) for args in lengths) == once
    assert collections.Counter(id(args[0]) for args in normalizers) == once


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


#: Raw rates a cell must clamp as RateCurve.rates does: negative, both zeros, the least
#: subnormal, NaN, both infinities, the largest order of magnitude, and ordinary rates.
CELL_RAWS = st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 5e-324, math.nan, math.inf, -math.inf, 1e308)),
                      st.floats(-1e9, 1e9))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_cells_from_raw_rates_match_row_by_row_reference(data):
    # Each cell is formatted from the raw rate, and reads what .rates gives it;
    # the shared grid may be a tuple or a list.
    lengths = data.draw(st.lists(st.floats(0.0, 1e6), max_size=8, unique=True).map(sorted))
    grid = lengths if data.draw(st.booleans()) else tuple(lengths)
    roles = data.draw(st.lists(st.sampled_from(CURVE_ROLES), min_size=1, max_size=3, unique=True))
    raws = st.lists(CELL_RAWS, min_size=len(lengths), max_size=len(lengths)).map(tuple)
    curves = {role: RateCurve(grid, data.draw(raws)) for role in roles}
    expected = [",".join(CSV_HEADER) + "\n"]
    for i, length in enumerate(lengths):
        cells = [RATE_FORMAT % curves[r].rates[i] if r in curves else "" for r in CURVE_ROLES]
        expected.append(",".join([LENGTH_FORMAT % length, *cells]) + "\n")
    buf = io.StringIO()
    write_curves_csv(curves, buf)
    assert buf.getvalue() == "".join(expected)


@settings(max_examples=200, deadline=None)
@given(step=st.one_of(st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e3)), points=st.floats(0.5, 1e4))
@example(step=5e-324, points=1e4)
def test_length_grid_from_zero_is_proved_increasing(step, points):
    # length_grid does not check a grid from 0: _search_grid's docstring proves
    # that i*step strictly increases, subnormal steps included.
    l_max = step * points
    assume(l_max > 0.0)
    grid = length_grid(0.0, l_max, step)
    assert grid[0] == 0.0 and all(a < b for a, b in zip(grid, grid[1:]))


def test_length_grid_from_a_positive_start_is_checked():
    # 1e17 + i is the same float for neighbouring i: the grid collapses and is refused.
    with pytest.raises(GridError, match="^step 1.0 is too small to separate grid points"):
        length_grid(1e17, 1.00000000000001e17, 1.0)


def test_csv_clamped_cells_print_zero():
    buf = io.StringIO()
    write_curves_csv({"dual": _edge_curves()["dual"]}, buf)
    assert buf.getvalue().splitlines()[1:] == [
        "0.00,0.00000e+00,,", "1.00,0.00000e+00,,", "2.00,0.00000e+00,,",
        "3.00,4.94066e-324,,", "4.00,1.50000e-07,,", "5.00,1.00000e+308,,",
    ]


def test_csv_grids_held_as_a_list_and_a_tuple_are_one_grid():
    # Two curves on the same grid, one held as a list and one as a tuple, used to be refused.
    buf = io.StringIO()
    write_curves_csv({"dual": RateCurve([0.0, 1.0], (1.0, 2.0)), "fast": RateCurve((0.0, 1.0), (1.0, 2.0))}, buf)
    assert buf.getvalue().splitlines()[1:] == ["0.00,1.00000e+00,1.00000e+00,", "1.00,2.00000e+00,2.00000e+00,"]
    with pytest.raises(DomainError, match="^all curves must share one length grid$"):
        write_curves_csv({"dual": RateCurve([0.0, 1.0], (1.0, 2.0)), "fast": RateCurve((0.0, 2.0), (1.0, 2.0))}, buf)


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
