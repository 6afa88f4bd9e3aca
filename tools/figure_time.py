"""Time the figures workload's ops against a parent tree's, in one process.

PARENT_SRC is a parent tree's src directory, the one that holds dualdet/.
Its package is loaded as dualdet_parent beside this tree's src/dualdet
(search_time.load_parent). The op is the figures op: sweep_preset of one
of the nine figure presets, then write_curves_csv into memory. Each tree's
nine presets are built once, as the benchmark builds them. The tool checks
that both trees write the same CSV text for every preset, and stops with
exit status 1 if one differs. It then times ROUNDS rounds as search_time
does: each round runs every op of both trees once, in an order shuffled per
round, so drift in the machine's speed falls on both trees alike. It prints,
per preset, the p10 time of each tree and the ratio of this tree's to the
parent's, then the summed p10 ratio over all nine. A ratio below 1 means
this tree is faster.

Run from the repository root, against a copy of the parent commit's src:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tools/figure_time.py ../parent/src --rounds 200
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from search_time import PARENT, TREES, load_parent, p10, time_searches  # noqa: E402


def figure_ops(package: str) -> dict[int, tuple]:
    """(op, its arguments) per figure id of the tree whose package is package:
    op returns the CSV text of the preset's curves."""
    sweep, presets = (importlib.import_module(f"{package}.{name}") for name in ("sweep", "presets"))

    def op(preset) -> str:
        buf = io.StringIO()
        sweep.write_curves_csv(sweep.sweep_preset(preset), buf)
        return buf.getvalue()

    return {fig_id: (op, (presets.figure_preset(fig_id),)) for fig_id in presets.FIGURE_IDS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_src", help="the parent tree's src directory, which holds dualdet/")
    parser.add_argument("--rounds", type=int, default=200, help="timed rounds (default 200)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    load_parent(args.parent_src)

    ops = {"parent": figure_ops(PARENT), "tree": figure_ops("dualdet")}
    fig_ids, differ = list(ops["tree"]), []
    for fig_id in fig_ids:
        parent, tree = (function(*call_args) for function, call_args in (ops["parent"][fig_id], ops["tree"][fig_id]))
        if parent != tree:
            lines = itertools.zip_longest(parent.splitlines(), tree.splitlines())
            number, (old, new) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
            differ.append(f"figure {fig_id} line {number}: parent {old!r}, tree {new!r}")
    if differ:
        print("CSV text differs:", *differ, sep="\n  ")
        return 1

    samples = time_searches([{tree: ops[tree][fig_id] for tree in TREES} for fig_id in fig_ids], args.rounds)
    sums = dict.fromkeys(TREES, 0)
    print(f"{'figure':<8}{'parent us':>12}{'tree us':>10}{'ratio':>8}")
    for index, fig_id in enumerate(fig_ids):
        parent, tree = (p10(samples[index, name]) for name in TREES)
        sums["parent"] += parent
        sums["tree"] += tree
        print(f"{fig_id:<8}{parent / 1e3:>12.1f}{tree / 1e3:>10.1f}{tree / parent:>8.3f}")
    print(f"{'all':<8}{sums['parent'] / 1e3:>12.1f}{sums['tree'] / 1e3:>10.1f}{sums['tree'] / sums['parent']:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
