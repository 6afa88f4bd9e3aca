"""Time the 28 catalogue distance searches against a parent tree's, in one process.

PARENT_SRC is a parent tree's src directory, the one that holds dualdet/.
Its package is loaded as dualdet_parent beside this tree's src/dualdet.
The tool checks that both trees give every catalogue search
(tools/search_counts.py) the same answer, float for float, and stops
with exit status 1 if one differs. It then times ROUNDS rounds. Each round
runs every search of both trees once, in an order shuffled per round, so
drift in the machine's speed falls on both trees alike. It prints, per
search, the p10 time of each tree and the ratio of this tree's to the
parent's, then the summed p10 ratios of the crossovers, of the maximum
distances and of all 28 searches. A ratio below 1 means this tree is faster.

Run from the repository root, against a copy of the parent commit's src:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tools/search_time.py ../parent/src --rounds 400
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from search_counts import catalogue, prepare  # noqa: E402

PARENT = "dualdet_parent"
TREES = ("parent", "tree")


def load_parent(src: str | Path) -> None:
    """Import src/dualdet as the package PARENT, its submodules importable under it."""
    init = Path(src) / "dualdet" / "__init__.py"
    spec = importlib.util.spec_from_file_location(PARENT, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[PARENT] = package
    spec.loader.exec_module(package)


def p10(samples: list[int]) -> int:
    """The 10th percentile of samples, the lower one of two neighbours."""
    return sorted(samples)[len(samples) // 10]


def time_searches(searches: list[dict], rounds: int) -> dict[tuple[int, str], list[int]]:
    """Nanoseconds of each run, keyed by (search index, tree), over rounds
    rounds shuffled from a fixed seed; the collector is off while a round runs."""
    runs = [(index, tree) for index in range(len(searches)) for tree in TREES]
    samples = {run: [] for run in runs}
    shuffle = random.Random(0).shuffle
    clock = time.perf_counter_ns
    for _ in range(rounds):
        shuffle(runs)
        gc.collect()
        gc.disable()
        try:
            for index, tree in runs:
                function, args = searches[index][tree]
                start = clock()
                function(*args)
                samples[index, tree].append(clock() - start)
        finally:
            gc.enable()
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_src", help="the parent tree's src directory, which holds dualdet/")
    parser.add_argument("--rounds", type=int, default=400, help="timed rounds (default 400)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    load_parent(args.parent_src)

    searches, differ = [], []
    for kind, fig_id, switch_loss in catalogue():
        entry = {"kind": kind, "fig_id": fig_id, "switch_loss": switch_loss,
                 "parent": prepare(kind, fig_id, switch_loss, PARENT), "tree": prepare(kind, fig_id, switch_loss)}
        parent, tree = (function(*call_args) for function, call_args in (entry["parent"], entry["tree"]))
        if repr(parent) != repr(tree):  # float for float: repr round-trips, and tells -0.0 from 0.0
            differ.append(f"{kind} {fig_id} {switch_loss}: parent {parent!r}, tree {tree!r}")
        searches.append(entry)
    if differ:
        print("answers differ:", *differ, sep="\n  ")
        return 1

    samples = time_searches(searches, args.rounds)
    print(f"{'search':<12}{'preset':>7}{'switch':>8}{'parent us':>12}{'tree us':>10}{'ratio':>8}")
    sums = {kind: dict.fromkeys(TREES, 0) for kind in ("crossover", "maxdist")}
    for index, entry in enumerate(searches):
        parent, tree = (p10(samples[index, name]) for name in TREES)
        sums[entry["kind"]]["parent"] += parent
        sums[entry["kind"]]["tree"] += tree
        print(f"{entry['kind']:<12}{entry['fig_id']:>7}{entry['switch_loss']:>8}"
              f"{parent / 1e3:>12.1f}{tree / 1e3:>10.1f}{tree / parent:>8.3f}")
    sums["all"] = {name: sum(kind_sums[name] for kind_sums in sums.values()) for name in TREES}
    for kind, kind_sums in sums.items():
        print(f"{kind + ' summed p10':<27}{kind_sums['parent'] / 1e3:>12.1f}{kind_sums['tree'] / 1e3:>10.1f}"
              f"{kind_sums['tree'] / kind_sums['parent']:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
