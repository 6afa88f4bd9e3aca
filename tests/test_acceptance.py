"""End-to-end acceptance checks for the nine reference sweeps and the
scheduling bounds. Each test prints one PASS/FAIL line; run standalone
with `python tests/test_acceptance.py` or under pytest.
"""

import csv
import dataclasses
import math
import tempfile
from pathlib import Path

import mpmath

from dualdet.core import RATE_FORMAT, HomodyneSpec, binary_entropy, channel_transmittance
from dualdet.gmcs import MismatchedEfficiencyError, gmcs_rr_rate_dual
from dualdet.practical import (
    accumulation_time,
    choice_probabilities,
    max_slow_probability,
    multi_pulse_qber,
)
from dualdet.decoy import decoy_single_photon_qber, optimal_mu
from dualdet.presets import figure_preset
from dualdet.scenario import evaluate
from dualdet.sweep import (
    crossover_distance,
    length_grid,
    max_secure_distance,
    save_curves_csv,
    sweep_preset,
)


def _check(num: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fmt(dist) -> str:
    return "none" if dist is None else f"{dist:.2f}"


def _envelope(preset):
    return [preset.scenarios["fast"], preset.scenarios["slow"]]


def _with_dual_switch(preset, loss_db=3.0):
    dual = preset.scenarios["dual"]
    return dataclasses.replace(dual, link=dataclasses.replace(dual.link, switch_loss=loss_db))


def test_criterion_01_fig1_crossover_and_dominance():
    preset = figure_preset(1)
    dist = crossover_distance(preset.scenarios["dual"], _envelope(preset), 250.0)
    ok = dist is not None and abs(dist - 124.0) <= 10.0
    beats = all(
        evaluate(preset.scenarios["dual"], length) > evaluate(preset.scenarios[role], length)
        for length in (20.0, 60.0, 100.0)
        for role in ("fast", "slow")
    )
    _check("01", ok and beats,
           f"figure 1 dual-vs-envelope crossover {_fmt(dist)} km (target 124±10), "
           f"dual beats both singles at 20/60/100 km: {beats}")


def test_criterion_02_fig2_fast_never_secure_and_crossover():
    preset = figure_preset(2)
    fast_rates = [evaluate(preset.scenarios["fast"], length) for length in length_grid(0.0, 250.0, 1.0)]
    never_secure = max(fast_rates) < 0.0
    dist = crossover_distance(preset.scenarios["dual"], _envelope(preset), 250.0)
    ok = never_secure and dist is not None and abs(dist - 200.0) <= 15.0
    _check("02", ok,
           f"figure 2 fast-alone max rate {max(fast_rates):.3g} bits/s (< 0 required), "
           f"crossover {_fmt(dist)} km (target 200±15)")


def test_criterion_03_fig3_crossover():
    preset = figure_preset(3)
    dist = crossover_distance(preset.scenarios["dual"], _envelope(preset), 250.0)
    ok = dist is not None and abs(dist - 190.0) <= 15.0
    _check("03", ok, f"figure 3 crossover {_fmt(dist)} km (target 190±15)")


def test_criterion_04_fig4_decoy_crossovers():
    preset = figure_preset(4)
    dist = crossover_distance(preset.scenarios["dual"], _envelope(preset), 250.0)
    no_pa = dataclasses.replace(preset.scenarios["dual"], mode="dual_no_pa")
    dist_no_pa = crossover_distance(no_pa, _envelope(preset), 250.0)
    ok = (
        dist is not None and abs(dist - 82.0) <= 10.0
        and dist_no_pa is not None and dist_no_pa < 120.0
    )
    _check("04", ok,
           f"figure 4 crossover {_fmt(dist)} km (target 82±10), "
           f"no-privacy-amplification crossover {_fmt(dist_no_pa)} km (< 120 required)")


def test_criterion_05_fig5_dr_advantage():
    preset = figure_preset(5)
    dual_1km = evaluate(preset.scenarios["dual"], 1.0)
    slow_1km = evaluate(preset.scenarios["slow"], 1.0)
    dist = crossover_distance(preset.scenarios["dual"], _envelope(preset), 60.0)
    ok = dual_1km >= 10.0 * slow_1km and dist is not None and abs(dist - 5.0) <= 2.0
    _check("05", ok,
           f"figure 5 dual/quiet ratio at 1 km = {dual_1km / slow_1km:.1f} (>= 10 required), "
           f"crossover {_fmt(dist)} km (target 5±2)")


def test_criterion_06_fig6_rr_marginal_fast_detector():
    preset = figure_preset(6)
    grid = length_grid(preset.l_min, preset.l_max, preset.step) + [100.0, 200.0]
    fast_max = max(evaluate(preset.scenarios["fast"], length) for length in grid)

    # Independent high-precision evaluation of the L = 0 margin.
    with mpmath.workdps(50):
        g = mpmath.mpf("0.8")
        chi = (1 - g) / g + mpmath.mpf("0.05") + mpmath.mpf("0.43") / g
        beta_iba = mpmath.log((40 + chi) / (1 + chi), 2) / 2
        ibe = mpmath.log(g ** 2 * (40 + chi) * (mpmath.mpf(1) / 40 + chi), 2) / 2
        margin_negative = beta_iba < ibe
        beta_iba, ibe = float(beta_iba), float(ibe)

    dist = crossover_distance(preset.scenarios["dual"], _envelope(preset), 60.0)
    ok = (
        fast_max < 0.0
        and margin_negative
        and abs(beta_iba - 2.237) < 5e-4
        and abs(ibe - 2.247) < 5e-4
        and dist is not None and abs(dist - 17.0) <= 3.0
    )
    _check("06", ok,
           f"figure 6 fast-alone max rate {fast_max:.3g} bits/s (< 0 required; "
           f"beta*I_BA={beta_iba:.6f} < I_BE={ibe:.6f} at L=0), "
           f"crossover {_fmt(dist)} km (target 17±3)")


def test_criterion_07_fig7_realistic_rr():
    preset = figure_preset(7)
    grid = length_grid(preset.l_min, preset.l_max, preset.step)
    fast_max = max(evaluate(preset.scenarios["fast"], length) for length in grid)
    dist = max_secure_distance(preset.scenarios["dual"], 60.0)
    ok = fast_max < 0.0 and dist is not None and abs(dist - 5.0) <= 2.0
    _check("07", ok,
           f"figure 7 fast-alone max rate {fast_max:.3g} bits/s (< 0 required), "
           f"dual secure up to {_fmt(dist)} km (target 5±2)")


def test_criterion_08_lossy_switch_crossovers():
    dist8 = crossover_distance(figure_preset(8).scenarios["dual"], _envelope(figure_preset(8)), 250.0)
    dist9 = crossover_distance(figure_preset(9).scenarios["dual"], _envelope(figure_preset(9)), 250.0)
    ok = (
        dist8 is not None and abs(dist8 - 180.0) <= 15.0
        and dist9 is not None and abs(dist9 - 175.0) <= 15.0
    )
    _check("08a", ok,
           f"figure 8 crossover {_fmt(dist8)} km (target 180±15), "
           f"figure 9 crossover {_fmt(dist9)} km (target 175±15)")


def test_criterion_08_lossy_switch_kills_weaker_protocols():
    # A 3 dB switch on the decoy and CV parameter sets should leave the dual
    # receiver at or below the best single detector at every grid point.
    violations = {}
    for fig_id in (4, 5, 6, 7):
        preset = figure_preset(fig_id)
        lossy_dual = _with_dual_switch(preset)
        singles = _envelope(preset)
        bad = [
            length
            for length in length_grid(preset.l_min, preset.l_max, preset.step)
            if evaluate(lossy_dual, length) > max(evaluate(s, length) for s in singles)
        ]
        if bad:
            violations[fig_id] = (len(bad), bad[0], bad[-1])
    _check("08b", not violations,
           "dual rate with 3 dB switch never beats the best single on the "
           f"figure 4/5/6/7 parameter sets; violations: {violations or 'none'}")


def test_criterion_09_multi_pulse_bounds():
    qber = multi_pulse_qber(4e-4, 100)
    p_max = max_slow_probability(100, 0.01)
    ok = qber == 9.9e-3 and abs(p_max - 4.04e-4) <= 1e-6
    _check("09", ok,
           f"window QBER(4e-4, 100) = {qber} (9.9e-3 exact required), "
           f"p_max(100, 1%) = {p_max:.6e} (target 4.04e-4±1e-6)")


def test_criterion_10_accumulation_time():
    overall = 10 ** -2.1 * 0.16 * 10 ** -0.3 * 0.5
    hours = accumulation_time(4e-4, 1e9, 1.0, overall, 1e6) / 3600.0
    ok = 1.6 <= hours <= 2.6
    _check("10", ok, f"slow-arm accumulation to 1e6 counts = {hours:.3f} h (target 1.6..2.6)")


def _bisection_oracle(e_det: float, f_ec: float) -> float:
    # Straight interval halving on the closed-form residual, kept separate
    # from the library implementation.
    h = -e_det * math.log2(e_det) - (1 - e_det) * math.log2(1 - e_det)
    target = f_ec * h / (1.0 - h)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) * math.exp(-mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_11_optimal_mu():
    mu_star = optimal_mu(0.018, 1.22)
    h = binary_entropy(0.018)
    residual = abs((1.0 - mu_star) * math.exp(-mu_star) - 1.22 * h / (1.0 - h))
    oracle = _bisection_oracle(0.018, 1.22)
    ok = residual < 1e-10 and 0.60 < mu_star < 0.70 and abs(mu_star - oracle) < 1e-9
    _check("11", ok,
           f"optimal intensity {mu_star:.8f} (oracle {oracle:.8f}, residual {residual:.2e}); "
           "presets deliberately keep the published 0.73 (see README)")


def test_criterion_12_property_suite():
    failures = []

    for x in (0.0, 1e-6, 0.018, 0.25, 0.5, 0.75, 1.0):
        if abs(binary_entropy(x) - binary_entropy(1.0 - x)) > 1e-12:
            failures.append(f"entropy symmetry at {x}")
    for x1, x2, t in ((0.1, 0.4, 0.3), (0.018, 0.5, 0.9), (0.0, 1.0, 0.5)):
        mix = binary_entropy(t * x1 + (1 - t) * x2)
        if mix < t * binary_entropy(x1) + (1 - t) * binary_entropy(x2) - 1e-12:
            failures.append(f"entropy concavity at {(x1, x2, t)}")

    for p, k in ((0.0, 10), (4e-4, 100), (0.3, 7), (1.0, 3)):
        if sum(choice_probabilities(p, k)) != 1.0:
            failures.append(f"window probabilities at {(p, k)}")

    for fig_id in (1, 4, 5, 6):
        preset = figure_preset(fig_id)
        dual = preset.scenarios["dual"]
        degenerate = dataclasses.replace(dual, slow=dual.fast)
        fast_single = dataclasses.replace(dual, mode="single_fast")
        for length in (0.0, 10.0, 40.0):
            a, b = evaluate(degenerate, length), evaluate(fast_single, length)
            if abs(a - b) > 1e-12 * max(abs(a), abs(b), 1e-300):
                failures.append(f"degeneracy figure {fig_id} at {length} km")

    fig4 = figure_preset(4)
    link = fig4.scenarios["dual"].link
    t = channel_transmittance(link.alpha, 50.0) * link.g_bob
    qbers = [decoy_single_photon_qber(mu, fig4.scenarios["dual"].fast, t) for mu in (0.1, 0.5, 0.9)]
    if any(abs(q - qbers[0]) > 1e-12 * qbers[0] for q in qbers):
        failures.append("single-photon QBER depends on intensity")

    dual6 = figure_preset(6).scenarios["dual"]
    mismatched = HomodyneSpec(rep_rate=1e6, g_det=0.75, eps_det=0.01)
    t = channel_transmittance(dual6.link.alpha, dual6.link.length)
    try:
        gmcs_rr_rate_dual(dual6.fast, mismatched, dual6.config, t)
        failures.append("mismatched efficiency accepted")
    except MismatchedEfficiencyError:
        pass

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curves.csv"
        curves = sweep_preset(figure_preset(5))
        save_curves_csv(curves, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for role, curve in curves.items():
            emitted = [RATE_FORMAT % r for r in curve.rates]
            reparsed = [RATE_FORMAT % float(row[f"rate_{role}_bps"]) for row in rows]
            if emitted != reparsed:
                failures.append(f"CSV round trip for {role}")

    _check("12", not failures, f"property suite: {failures or 'all held'}")


if __name__ == "__main__":
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_criterion_") and callable(fn)
    ]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError:
            failed += 1
    print(f"{len(tests) - failed}/{len(tests)} acceptance checks passed")
    raise SystemExit(1 if failed else 0)
