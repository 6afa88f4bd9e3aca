"""Committed reference outputs, and the check-only mode that diffs against them.

    python3 bench/run.py --check       # diff every output, no timing
    python3 bench/golden.py --write    # regenerate (deliberate behaviour changes only)

The files in golden/: fig1..9.csv (byte-exact figure CSVs), searches.json
(answers to the 28 searches), cli_scenarios.json and cli.json (scenario
files and the expected exit code and stdout of each cli mix entry), and
scan_seed0.json (results of the first SCAN_GOLDEN_OPS scan ops at seed 0).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import workloads as W

RUN_DIR = W.ROOT / ".bench_out" / "golden"


def _dump(name: str, data) -> None:
    (W.GOLDEN / name).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _scenario_dict(s) -> dict:
    def detector(d):
        if hasattr(d, "eta_d"):
            return {"spd": {"rep_rate_hz": d.rep_rate, "eta_d": d.eta_d, "y0": d.y0, "e_det": d.e_det}}
        return {"homodyne": {"rep_rate_hz": d.rep_rate, "g_det": d.g_det, "eps_det": d.eps_det}}

    link = {"alpha_db_per_km": s.link.alpha, "length_km": s.link.length, "g_bob": s.link.g_bob,
            "switch_loss_db": s.link.switch_loss}
    c = s.config
    if s.protocol == "bb84_single_photon":
        config = {"basis_factor": c.basis_factor, "f_ec": c.f_ec}
    elif s.protocol == "decoy_bb84":
        config = {"mu": c.mu, "basis_factor": c.basis_factor, "f_ec": c.f_ec}
    else:
        config = {"v": c.v, "beta": c.beta, "eps_pre": c.eps_pre}
    return {"protocol": s.protocol, "mode": s.mode, "link": link,
            "detectors": [detector(s.fast), detector(s.slow)], "config": config}


def write() -> None:
    W.GOLDEN.mkdir(exist_ok=True)
    figures = W.Figures(0, RUN_DIR)
    figures.build()
    for i in W.FIGURE_IDS:
        (W.GOLDEN / f"fig{i}.csv").write_bytes(figures.run(i).encode("utf-8"))

    searches = W.Searches(0, RUN_DIR)
    searches.build()
    _dump("searches.json", [dict(e, answer=searches.run(i)) for i, e in enumerate(searches.catalogue)])

    scenarios = {}
    for fig_id in (1, 4, 5, 6, 7):
        for role, scenario in figures.presets[fig_id].scenarios.items():
            scenarios[f"fig{fig_id}_{role}"] = _scenario_dict(scenario)
    scenarios["bad_unknown_key"] = dict(scenarios["fig1_dual"], colour="red")
    _dump("cli_scenarios.json", scenarios)
    cli = W.Cli(0, RUN_DIR / "cli")
    cli.build()
    reference = []
    for i, argv in enumerate(W.CLI_MIX):
        code, stdout, _, _ = cli.run(i)
        reference.append({"argv": list(argv), "exit": code, "stdout": stdout})
    _dump("cli.json", reference)

    scan = W.Scan(0, RUN_DIR)
    scan.build()
    inputs = scan.inputs()
    results = []
    for _ in range(W.SCAN_GOLDEN_OPS):
        inp = next(inputs)
        results.append(W.REJECTED if inp.invalid else W.encode_scan(scan.run(inp)))
    _dump("scan_seed0.json", results)
    shutil.rmtree(RUN_DIR, ignore_errors=True)


def check() -> int:
    """Diff every committed output against the program; no timing."""
    failures = 0
    for cls, items in (
        (W.Figures, lambda w: [(i, i) for i in W.FIGURE_IDS]),
        (W.Searches, lambda w: list(enumerate(range(len(w.catalogue))))),
        (W.Cli, lambda w: list(enumerate(range(len(W.CLI_MIX))))),
        (W.Scan, lambda w: _first(w.inputs(), W.SCAN_GOLDEN_OPS)),
    ):
        workload = cls(0, RUN_DIR / cls.name)
        workload.setup()
        outcome = {W.OK: 0, W.WRONG: 0, W.ERROR: 0, W.ACCEPTED: 0}
        for index, inp in items(workload):
            try:
                status = workload.check(index, inp, workload.run(inp))
            except Exception as exc:  # noqa: BLE001 - every op's failure is reported
                print(f"{cls.name} op {index}: {type(exc).__name__}: {exc}", file=sys.stderr)
                status = W.ERROR
            if status in (W.WRONG, W.ERROR):
                print(f"{cls.name} op {index} ({_label(inp)}): {status}")
            outcome[status] += 1
        failures += outcome[W.WRONG] + outcome[W.ERROR]
        summary = ", ".join(f"{k} {v}" for k, v in outcome.items())
        print(f"check {cls.name}: {summary}")
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    print("check: all outputs match" if not failures else f"check: {failures} outputs differ")
    return 1 if failures else 0


def _first(gen, n):
    return [(i, next(gen)) for i in range(n)]


def _label(inp) -> str:
    return getattr(inp, "text", str(inp))[:80]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="regenerate golden/ from the current program")
    args = parser.parse_args()
    sys.path.insert(0, str(W.SRC))
    if args.write:
        write()
    sys.exit(check())
