"""Time the cli workload's processes against a parent tree's, as child processes.

PARENT_SRC is a parent tree's src directory, the one that holds dualdet/.
Each run is one `python -m dualdet.cli` child with PYTHONPATH set to one
tree's src, started in a scratch directory that holds the benchmark's
scenario files (bench/golden/cli_scenarios.json). The tool first runs, once
on each tree, every entry of the benchmark's CLI_MIX (bench/workloads.py),
`--help` at the top level and for each command, and a few refused argvs: a
bad type, a missing flag, an unknown flag and `--length=-1`. It stops with
exit status 1 unless both trees give each run the same exit code, stdout,
stderr and CSV bytes. It then times ROUNDS rounds of the mix: each round runs
every entry on both trees once, in an order shuffled per round, so drift in
the machine's speed falls on both trees alike. A run's time is the child's
user plus system CPU, from os.wait4. It prints, per command, the median CPU
of its runs on each tree and the ratio of this tree's to the parent's, then
the mean over the mix of each entry's median. A ratio below 1 means this
tree is faster.

Run from the repository root, against a copy of the parent commit's src:

    mkdir -p ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tools/cli_time.py ../parent/src --rounds 10
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import CLI_MIX, OUT_CSV, read_json  # noqa: E402

TREES = ("parent", "tree")
COMMANDS = ("rate", "sweep", "figure", "maxdist", "crossover", "mu-opt", "schedule")
#: Refused argvs: a bad type, a missing flag, an unknown flag, and a negative length given as --length=-1.
REFUSALS = (
    ("rate", "--config", "{fig1_dual}", "--length", "ten"),
    ("rate", "--config", "{fig1_dual}"),
    ("mu-opt", "--edet", "0.018", "--f", "1.22", "--g", "1"),
    ("rate", "--config", "{fig1_dual}", "--length=-1"),
)


def run(argv: list[str], env: dict, run_dir: Path) -> tuple[tuple, float]:
    """((exit code, stdout, stderr, CSV bytes or None), CPU seconds) of one child."""
    out_csv = run_dir / OUT_CSV
    if out_csv.exists():
        out_csv.unlink()
    with open(run_dir / "stdout", "w+b") as out, open(run_dir / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "dualdet.cli", *argv], cwd=run_dir, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # wait4 instead of wait: it also gives the child's CPU
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = (proc.returncode, out.read(), err.read(), out_csv.read_bytes() if out_csv.exists() else None)
    return result, usage.ru_utime + usage.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent_src", help="the parent tree's src directory, which holds dualdet/")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    envs = {tree: {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
            for tree, src in zip(TREES, (args.parent_src, ROOT / "src"))}

    with tempfile.TemporaryDirectory() as scratch:
        run_dir = Path(scratch)
        files = {"out_csv": str(run_dir / OUT_CSV)}
        for name, spec in read_json("cli_scenarios.json").items():
            files[name] = str(run_dir / f"{name}.json")
            Path(files[name]).write_text(json.dumps(spec), encoding="utf-8")
        mix = [[arg.format(**files) for arg in entry] for entry in CLI_MIX]
        checked = [*mix, ["--help"], *([command, "--help"] for command in COMMANDS),
                   *([arg.format(**files) for arg in entry] for entry in REFUSALS)]
        differ = []
        for entry in checked:
            parent, tree = (run(entry, envs[name], run_dir)[0] for name in TREES)
            for field, old, new in zip(("exit code", "stdout", "stderr", "CSV"), parent, tree):
                if old != new:
                    differ.append(f"{' '.join(entry)}: {field}: parent {old!r:.200}, tree {new!r:.200}")
        if differ:
            print("outputs differ:", *differ, sep="\n  ")
            return 1

        runs = [(index, tree) for index in range(len(mix)) for tree in TREES]
        samples = {key: [] for key in runs}
        shuffle = random.Random(0).shuffle
        for _ in range(args.rounds):
            shuffle(runs)
            for index, tree in runs:
                samples[index, tree].append(run(mix[index], envs[tree], run_dir)[1])

    print(f"{'command':<12}{'runs':>6}{'parent ms':>12}{'tree ms':>10}{'ratio':>8}")
    for command in dict.fromkeys(entry[0] for entry in mix):
        indices = [index for index, entry in enumerate(mix) if entry[0] == command]
        parent, tree = (statistics.median(s for i in indices for s in samples[i, name]) for name in TREES)
        print(f"{command:<12}{len(indices) * args.rounds:>6}{parent * 1e3:>12.1f}{tree * 1e3:>10.1f}"
              f"{tree / parent:>8.3f}")
    parent, tree = (statistics.fmean(statistics.median(samples[i, name]) for i in range(len(mix))) for name in TREES)
    print(f"{'all':<12}{len(mix) * args.rounds:>6}{parent * 1e3:>12.1f}{tree * 1e3:>10.1f}{tree / parent:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
