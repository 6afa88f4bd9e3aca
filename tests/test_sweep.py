import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("fig_id, l_max, crossover_calls, maxdist_calls", [(1, 250.0, 405, 19), (5, 60.0, 48, 17)])
def test_searches_scan_only_up_to_the_answer(monkeypatch, fig_id, l_max, crossover_calls, maxdist_calls):
    # Crossover: 3 scenarios x (grid 0..first crossing + 9 halvings of a 1 km
    # cell). Maxdist (BB84 and GMCS DR change sign once): l_max, 0, then
    # ceil(log2(cells)) halvings of the grid's index range (8 of 250 cells,
    # 6 of 60) to the last positive point, + 9 halvings of its 1 km cell.
    preset = figure_preset(fig_id)
    dual, envelope = preset.scenarios["dual"], [preset.scenarios["fast"], preset.scenarios["slow"]]
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


@pytest.mark.parametrize("protocol", ONE_SIGN_CHANGE)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_max_distance_search_matches_backward_scan(protocol, data):
    # Where the rate changes sign once, halving the grid's index range finds
    # the scan's last positive point, so the answer is the same float.
    detectors, configs, links = specs(protocol, data.draw(st.booleans()))
    scenario = Scenario(
        protocol=protocol, mode=data.draw(st.sampled_from(ONE_SIGN_CHANGE[protocol])), link=data.draw(links),
        config=data.draw(configs), fast=data.draw(detectors), slow=data.draw(detectors),
    )
    assert scenario._one_sign_change
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
    assert not dual._one_sign_change
    l_max = 250.0 if config is not None else 60.0
    scanned = []
    expected = backward_scan(lambda length: scanned.append(length) or evaluate(dual, length), l_max, 1.0)
    lengths = count_evaluations(monkeypatch)
    assert expected is not None
    assert max_secure_distance(dual, l_max) == expected
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
