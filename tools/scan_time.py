"""Time the scan workload's design points against a parent tree's, in one process.

PARENT_SRC is a parent tree's src directory, the one that holds dualdet/.
Its package is loaded as dualdet_parent beside this tree's src/dualdet
(search_time.load_parent). The block is the first BLOCK design points of
the benchmark's scan_inputs at seed 0 (bench/workloads.py), one in ten of
them malformed. The op is the scan op up to its rates: the point's JSON
text decoded, decoy's mu set by optimal_mu, scenario_from_dict, and
evaluate at the point's five lengths; the slow-arm schedule, which neither
tree's parsing touches, is left out. The tool checks that both trees give
every op the same result, rates by repr and refusals by exception type name
and message, and stops with exit status 1 if one differs. It then times
ROUNDS rounds as search_time does: each round runs every op of both trees
once, in an order shuffled per round, so drift in the machine's speed falls
on both trees alike. It prints, per op kind (a valid point's protocol, or a malformed
point's kind), the summed p10 times of each tree and the ratio of this
tree's to the parent's, then the same over all ops. A ratio below 1 means
this tree is faster.

Run from the repository root, against a copy of the parent commit's src:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tools/scan_time.py ../parent/src --rounds 200
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from search_time import PARENT, TREES, load_parent, p10, time_searches  # noqa: E402
from workloads import scan_inputs  # noqa: E402

#: Design points in the block: 252 valid and 28 malformed, four of each malformed kind.
BLOCK = 280


def scan_op(package: str):
    """The op on the tree whose package is package: the rates of one design point as a tuple,
    or its refusal as (exception type name, message)."""
    scenario, decoy = (importlib.import_module(f"{package}.{name}") for name in ("scenario", "decoy"))

    def op(inp):
        data = json.loads(inp.text)
        if inp.mu_args is not None:
            data["config"]["mu"] = decoy.optimal_mu(*inp.mu_args)
        try:
            point = scenario.scenario_from_dict(data)
        except scenario.ConfigError as exc:
            return type(exc).__name__, str(exc)
        return tuple([scenario.evaluate(point, length) for length in inp.lengths])

    return op


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_src", help="the parent tree's src directory, which holds dualdet/")
    parser.add_argument("--rounds", type=int, default=200, help="timed rounds (default 200)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    load_parent(args.parent_src)

    inputs = list(itertools.islice(scan_inputs(0), BLOCK))
    ops = {"parent": scan_op(PARENT), "tree": scan_op("dualdet")}
    differ = []
    for index, inp in enumerate(inputs):
        parent, tree = ops["parent"](inp), ops["tree"](inp)
        if repr(parent) != repr(tree):  # float for float: repr round-trips, and tells -0.0 from 0.0
            differ.append(f"op {index}: parent {parent!r}, tree {tree!r}")
    if differ:
        print("results differ:", *differ, sep="\n  ")
        return 1

    samples = time_searches([{tree: (ops[tree], (inp,)) for tree in TREES} for inp in inputs], args.rounds)
    sums = {}
    for index, inp in enumerate(inputs):
        kind = inp.invalid or json.loads(inp.text)["protocol"]
        kind_sums = sums.setdefault(kind, dict.fromkeys(TREES, 0) | {"ops": 0})
        kind_sums["ops"] += 1
        for tree in TREES:
            kind_sums[tree] += p10(samples[index, tree])
    sums["all"] = {name: sum(kind_sums[name] for kind_sums in sums.values()) for name in (*TREES, "ops")}
    print(f"{'op kind':<22}{'ops':>5}{'parent us':>12}{'tree us':>10}{'ratio':>8}")
    for kind, kind_sums in sums.items():
        print(f"{kind:<22}{kind_sums['ops']:>5}{kind_sums['parent'] / 1e3:>12.1f}{kind_sums['tree'] / 1e3:>10.1f}"
              f"{kind_sums['tree'] / kind_sums['parent']:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
