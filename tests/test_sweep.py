import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import pytest

import dualdet.sweep
from dualdet.core import DomainError, SpdSpec, format_length, format_rate
from dualdet.presets import FIGURE_IDS, figure_preset
from dualdet.scenario import MODE_TO_ROLE, MODES, evaluate
from dualdet.sweep import (
    CSV_HEADER,
    CURVE_ROLES,
    RateCurve,
    crossover_distance,
    length_grid,
    max_secure_distance,
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
    with pytest.raises(DomainError):
        length_grid(-1.0, 5.0, 1.0)
    with pytest.raises(DomainError, match="^step must be > 0, got nan$"):
        length_grid(0.0, 10.0, math.nan)


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


@pytest.mark.parametrize("fig_id, l_max, crossover_calls, maxdist_calls", [(1, 250.0, 405, 136), (5, 60.0, 48, 65)])
def test_searches_scan_only_up_to_the_answer(monkeypatch, fig_id, l_max, crossover_calls, maxdist_calls):
    # Crossover: 3 scenarios x (grid 0..first crossing + 9 halvings of a 1 km
    # cell). Maxdist: grid l_max down to the last positive point + 9 halvings.
    preset = figure_preset(fig_id)
    dual, envelope = preset.scenarios["dual"], [preset.scenarios["fast"], preset.scenarios["slow"]]
    lengths = count_evaluations(monkeypatch)
    crossover_distance(dual, envelope, l_max)
    assert len(lengths) == crossover_calls
    lengths.clear()
    max_secure_distance(dual, l_max)
    assert len(lengths) == maxdist_calls


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
    assert [format_length(float(row["length_km"])) for row in rows] == [
        format_length(length) for length in curves["dual"].lengths
    ]
    for role in ("dual", "fast", "slow"):
        emitted = [format_rate(r) for r in curves[role].rates]
        parsed = [format_rate(float(row[f"rate_{role}_bps"])) for row in rows]
        assert parsed == emitted


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_figure_csv_matches_golden(fig_id):
    # The committed figure CSVs are the "same behaviour" gate: byte for byte.
    buf = io.StringIO()
    write_curves_csv(sweep_preset(figure_preset(fig_id)), buf)
    assert buf.getvalue().encode("utf-8") == (GOLDEN / f"fig{fig_id}.csv").read_bytes()


@pytest.mark.parametrize("fig_id", [1, 6])
def test_csv_every_role_subset_matches_row_by_row_reference(fig_id):
    curves = sweep_preset(figure_preset(fig_id))
    rates = {role: curve.rates for role, curve in curves.items()}
    for n in (1, 2, 3):
        for roles in itertools.combinations(("dual", "fast", "slow"), n):
            expected = ["length_km,rate_dual_bps,rate_fast_bps,rate_slow_bps\n"]
            for i, length in enumerate(curves["dual"].lengths):
                cells = [format_rate(rates[r][i]) if r in roles else "" for r in ("dual", "fast", "slow")]
                expected.append(",".join([format_length(length), *cells]) + "\n")
            buf = io.StringIO()
            write_curves_csv({r: curves[r] for r in roles}, buf)
            assert buf.getvalue() == "".join(expected), roles


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
