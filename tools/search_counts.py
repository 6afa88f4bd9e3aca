"""Count the evaluations of the 28 catalogue distance searches, by phase.

The catalogue is the benchmark's: a crossover (the dual receiver against
the envelope of the fast and slow singles) and a maximum secure distance
(the dual receiver) for presets 1-9, and for presets 1 and 4-7 with a 3 dB
switch, to 250 km for photon counting and 60 km for GMCS. Each search's
scenario evaluations are split into three phases:
- grid: the coarse grid, up to the first bracketing cell (the crossover's
  gallop) or the last positive point (the maximum distance);
- tangency: the crossover's look one point past a difference of exactly 0;
- bisection: the halving of the final cell.

Run from the repository root:

    python3 tools/search_counts.py
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dualdet import sweep  # noqa: E402

PHASES = ("grid", "tangency", "bisection")
SWITCH_LOSS_DB = 3.0


def catalogue() -> list[tuple[str, int, float]]:
    """(kind, preset, switch loss in dB) of each search, in the benchmark's order."""
    return [(kind, fig_id, switch_loss)
            for kind in ("crossover", "maxdist")
            for switch_loss, ids in ((0.0, range(1, 10)), (SWITCH_LOSS_DB, (1, 4, 5, 6, 7)))
            for fig_id in ids]


def prepare(kind: str, fig_id: int, switch_loss: float, package: str = "dualdet") -> tuple:
    """(search function, its arguments) of one catalogue search, built from
    the modules of package, an imported copy of dualdet."""
    search_module = importlib.import_module(f"{package}.sweep")
    preset = importlib.import_module(f"{package}.presets").figure_preset(fig_id)
    dual = preset.scenarios["dual"]
    if switch_loss:
        dual = dataclasses.replace(dual, link=dataclasses.replace(dual.link, switch_loss=switch_loss))
    l_max = 250.0 if isinstance(dual.fast, importlib.import_module(f"{package}.core").SpdSpec) else 60.0
    if kind == "crossover":
        return search_module.crossover_distance, (dual, [preset.scenarios["fast"], preset.scenarios["slow"]], l_max)
    return search_module.max_secure_distance, (dual, l_max)


def search(kind: str, fig_id: int, switch_loss: float) -> float | None:
    """Run one catalogue search and return its answer."""
    function, args = prepare(kind, fig_id, switch_loss)
    return function(*args)


def count(kind: str, fig_id: int, switch_loss: float) -> tuple[Counter, float | None]:
    """The evaluations of one search by phase, and its answer."""
    counts, phase = Counter(), ["grid"]
    real = {name: getattr(sweep, name) for name in ("evaluate", "_gallop", "bisect_sign_change")}

    def evaluate(scenario, length):
        counts[phase[0]] += 1
        return real["evaluate"](scenario, length)

    def gallop(*args):
        found = real["_gallop"](*args)
        phase[0] = "tangency"
        return found

    def bisect(*args, **kwargs):
        phase[0] = "bisection"
        return real["bisect_sign_change"](*args, **kwargs)

    try:
        sweep.evaluate, sweep._gallop, sweep.bisect_sign_change = evaluate, gallop, bisect
        answer = search(kind, fig_id, switch_loss)
    finally:
        for name, function in real.items():
            setattr(sweep, name, function)
    return counts, answer


def main() -> int:
    totals = {"crossover": Counter(), "maxdist": Counter()}
    print(f"{'search':<12}{'preset':>7}{'switch':>8}" + "".join(f"{name:>11}" for name in (*PHASES, "total"))
          + f"{'answer':>16}")
    for kind, fig_id, switch_loss in catalogue():
        counts, answer = count(kind, fig_id, switch_loss)
        totals[kind] += counts
        print(f"{kind:<12}{fig_id:>7}{switch_loss:>8}" + "".join(f"{counts[name]:>11,}" for name in PHASES)
              + f"{sum(counts.values()):>11,}{answer!r:>16}")
    for kind, counts in totals.items():
        print(f"{kind + ' total':<27}" + "".join(f"{counts[name]:>11,}" for name in PHASES)
              + f"{sum(counts.values()):>11,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
