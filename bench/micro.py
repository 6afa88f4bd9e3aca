"""Fixed-input microbenchmarks for the per-layer ``*_per_call`` metrics, and
the L5 process split (interpreter start, import, work).

Each entry is timed with ``timeit`` on inputs that do not depend on the
workload or the seed; the reported value is the minimum of REPEATS
repeats, each running the call enough times to last about REPEAT_S.
"""

from __future__ import annotations

import dataclasses
import io
import resource
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

from workloads import child_env, load_modules

REPEATS = 5
REPEAT_S = 0.01
L5_SAMPLES = 7
SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}

EVALUATE_CASES = (
    # (metric protocol label, preset id, modes, length km)
    ("bb84", 1, ("single_fast", "single_slow", "dual"), 100.0),
    ("decoy", 4, ("single_fast", "single_slow", "dual", "dual_no_pa"), 50.0),
    ("gmcs_dr", 5, ("single_fast", "single_slow", "dual"), 5.0),
    ("gmcs_rr", 7, ("single_fast", "single_slow", "dual"), 5.0),
)

SCENARIO_DICT = {
    "protocol": "decoy_bb84",
    "mode": "dual",
    "link": {"alpha_db_per_km": 0.21, "length_km": 0.0, "g_bob": 0.16, "switch_loss_db": 0.0},
    "detectors": [
        {"spd": {"rep_rate_hz": 1e9, "eta_d": 0.059, "y0": 1.3e-5, "e_det": 0.018}},
        {"spd": {"rep_rate_hz": 2.5e6, "eta_d": 0.5, "y0": 3e-7, "e_det": 0.018}},
    ],
    "config": {"mu": 0.73, "basis_factor": 0.5, "f_ec": 1.22},
}


def _entries(m):
    """(metric name, unit, zero-argument callable) for every microbenchmark."""
    p1, p4, p5, p7 = (m.presets.figure_preset(i) for i in (1, 4, 5, 7))

    def linked(preset, length):
        dual = preset.scenarios["dual"]
        return dual.fast, dual.slow, dataclasses.replace(dual.link, length=length), dual.config

    fast1, slow1, link1, cfg1 = linked(p1, 100.0)
    fast4, slow4, link4, cfg4 = linked(p4, 50.0)
    fast5, slow5, link5, src5 = linked(p5, 5.0)
    fast7, slow7, link7, src7 = linked(p7, 5.0)
    yield "core.binary_entropy.ns_per_call", "ns", lambda: m.core.binary_entropy(0.018)
    yield "core.channel_transmittance.ns_per_call", "ns", lambda: m.core.channel_transmittance(0.21, 100.0)
    yield "bb84.kernel.ns_per_call", "ns", lambda: m.bb84.bb84_rate_dual(fast1, slow1, link1, cfg1)
    yield "bb84.kernel_single.ns_per_call", "ns", lambda: m.bb84.bb84_rate_single(slow1, link1, cfg1)
    yield "decoy.kernel.ns_per_call", "ns", lambda: m.decoy.decoy_rate_dual(fast4, slow4, link4, cfg4)
    yield "decoy.kernel_single.ns_per_call", "ns", lambda: m.decoy.decoy_rate_single(slow4, link4, cfg4)
    yield "gmcs.dr.ns_per_call", "ns", lambda: m.gmcs.gmcs_dr_rate_dual(src5, fast5, slow5, link5)
    yield "gmcs.dr_single.ns_per_call", "ns", lambda: m.gmcs.gmcs_dr_rate_single(src5, slow5, link5)
    yield "gmcs.rr.ns_per_call", "ns", lambda: m.gmcs.gmcs_rr_rate_dual(src7, fast7, slow7, link7)
    yield "gmcs.rr_single.ns_per_call", "ns", lambda: m.gmcs.gmcs_rr_rate_single(src7, slow7, link7)
    for label, fig_id, modes, length in EVALUATE_CASES:
        dual = m.presets.figure_preset(fig_id).scenarios["dual"]
        for mode in modes:
            scenario = dataclasses.replace(dual, mode=mode)
            yield (f"scenario.evaluate.{label}.{mode}.ns_per_call", "ns",
                   lambda s=scenario, L=length: m.scenario.evaluate(s, L))
    dual1 = p1.scenarios["dual"]
    yield "scenario.at_length.ns_per_call", "ns", lambda: dual1.at_length(100.0)
    yield "scenario.scenario_from_dict.us_per_call", "us", lambda: m.scenario.scenario_from_dict(SCENARIO_DICT)
    yield "decoy.optimal_mu.us_per_call", "us", lambda: m.decoy.optimal_mu(0.018, 1.22)
    yield "sweep.sweep.ms_per_call", "ms", lambda: m.sweep.sweep(dual1, 0.0, 250.0, 1.0)
    curves = m.sweep.sweep_preset(p1)
    yield "sweep.write_curves_csv.us_per_call", "us", lambda: m.sweep.write_curves_csv(curves, io.StringIO())
    yield "presets.figure_preset.us_per_call", "us", lambda: [m.presets.figure_preset(i) for i in range(1, 10)]


def _time_call(fn) -> float:
    """Seconds per call: minimum over REPEATS repeats of a calibrated loop."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < REPEAT_S:
        number *= 2
    return min(timer.repeat(REPEATS, number)) / number


def microbench() -> dict[str, tuple[float, str]]:
    """Fixed-input per-call times. An entry whose function or signature no
    longer exists reports 0 and says so on stderr."""
    m = load_modules()
    out = {}
    for name, unit, fn in _entries(m):
        try:
            seconds = _time_call(fn)
        except (AttributeError, TypeError) as exc:
            print(f"microbench {name}: not measured ({exc})", file=sys.stderr)
            seconds = 0.0
        # figure_preset is timed for all nine ids at once.
        if name.startswith("presets.figure_preset"):
            seconds /= 9
        out[name] = (seconds * SCALE[unit], unit)
    return out


def _process_cpu_ms(argv: list[str], cwd: Path) -> float:
    """User + system CPU time of one child process, in ms."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)) * 1e3


def process_split(run_dir: Path) -> dict[str, tuple[float, str]]:
    """L5: `python -c pass`, then `import dualdet.cli` on top of it, then the
    work of `dualdet figure --id 6` on top of that, in CPU ms.

    The three commands run in turn, L5_SAMPLES rounds. Each step is the
    median over rounds of the difference between neighbours in one round, so
    the commands it compares met the machine in the same state.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    exe = sys.executable
    commands = (
        [exe, "-c", "pass"],
        [exe, "-c", "import dualdet.cli"],
        [exe, "-m", "dualdet.cli", "figure", "--id", "6", "--out", "l5.csv"],
    )
    rounds = [[_process_cpu_ms(argv, run_dir) for argv in commands] for _ in range(L5_SAMPLES)]
    return {
        "cli.interpreter_ms": (statistics.median(r[0] for r in rounds), "ms"),
        "cli.import_ms": (statistics.median(r[1] - r[0] for r in rounds), "ms"),
        "cli.work_ms": (statistics.median(r[2] - r[1] for r in rounds), "ms"),
    }
