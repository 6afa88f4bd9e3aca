"""The four benchmark workloads: seeded inputs, the op, and the output check.

Every workload is closed loop with one client: the next op starts when the
previous one has returned. An op gets only the generated inputs; the
expected outputs come from the committed files in ``golden/`` or, for
``scan`` beyond the committed range, from invariants of the model.

The package is reached through ``importlib``: ``import dualdet.sweep``
yields the *function* ``sweep`` because the package ``__init__`` rebinds
the name. Functions are looked up on their module at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"

LAYER_MODULES = ("core", "bb84", "decoy", "gmcs", "scenario", "sweep", "presets", "practical", "cli")
FIGURE_IDS = tuple(range(1, 10))
SPD_PROTOCOLS = ("bb84_single_photon", "decoy_bb84")

# Outcome of one op's check.
OK = "ok"
WRONG = "wrong"            # an output differs from the reference
ERROR = "error"            # an exception the op does not expect
ACCEPTED = "accepted"      # an invalid spec that was not rejected

REJECTED = "rejected"      # scan op result: scenario_from_dict raised ConfigError


def load_modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"dualdet.{m}") for m in LAYER_MODULES})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def read_json(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def golden_csv(fig_id: int) -> bytes:
    return (GOLDEN / f"fig{fig_id}.csv").read_bytes()


def _cycles(rng: random.Random, items):
    """Seeded permutations of items, one after another: each item is drawn
    equally often, so the op mix does not drift with the seed."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


class Workload:
    name = ""
    #: ops in one traced block; the block is the first ops of the seeded sequence.
    trace_block = 0

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir

    def setup(self) -> None:
        """Everything before the first timed op: build, load references, warm up."""
        self.build()
        self.load_reference()
        for inp in self.warmup_inputs():
            self.run(inp)

    def build(self) -> None:
        raise NotImplementedError

    def load_reference(self) -> None:
        raise NotImplementedError

    def warmup_inputs(self):
        """Fixed inputs, the same for every seed, so set-up time does not vary with it."""
        raise NotImplementedError

    def inputs(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, index: int, inp, out) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# figures


class Figures(Workload):
    """One op: a preset id -> sweep_preset -> write_curves_csv into memory."""

    name = "figures"
    trace_block = len(FIGURE_IDS)

    def build(self) -> None:
        self.m = load_modules()
        self.presets = {i: self.m.presets.figure_preset(i) for i in FIGURE_IDS}

    def load_reference(self) -> None:
        self.golden = {i: golden_csv(i).decode("utf-8") for i in FIGURE_IDS}

    def warmup_inputs(self):
        return (1,)

    def inputs(self):
        return _cycles(random.Random(self.seed), FIGURE_IDS)

    def run(self, fig_id: int) -> str:
        sweep = self.m.sweep
        buf = io.StringIO()
        sweep.write_curves_csv(sweep.sweep_preset(self.presets[fig_id]), buf)
        return buf.getvalue()

    def check(self, index: int, fig_id: int, out: str) -> str:
        return OK if out == self.golden[fig_id] else WRONG


# ---------------------------------------------------------------------------
# searches

#: 3 dB on the dual receiver's switch, as in acceptance check 08.
SWITCH_LOSS_DB = 3.0
SWITCHED_IDS = (1, 4, 5, 6, 7)
SEARCH_KINDS = ("crossover", "maxdist")
DISTANCE_TOL_KM = 0.01


def search_catalogue() -> list[dict]:
    """The 28 searches: two kinds x (presets 1-9, and 1, 4-7 with a 3 dB switch)."""
    entries = []
    for kind in SEARCH_KINDS:
        for switched, ids in ((False, FIGURE_IDS), (True, SWITCHED_IDS)):
            for fig_id in ids:
                entries.append({"kind": kind, "figure": fig_id, "switch_loss_db": SWITCH_LOSS_DB if switched else 0.0})
    return entries


class Searches(Workload):
    """One op: one distance search to 0.01 km from the fixed catalogue."""

    name = "searches"
    trace_block = 28

    def build(self) -> None:
        self.m = load_modules()
        self.catalogue = search_catalogue()
        self.cases = []
        for entry in self.catalogue:
            preset = self.m.presets.figure_preset(entry["figure"])
            dual = preset.scenarios["dual"]
            if entry["switch_loss_db"]:
                dual = dataclasses.replace(
                    dual, link=dataclasses.replace(dual.link, switch_loss=entry["switch_loss_db"])
                )
            l_max = 250.0 if dual.protocol in SPD_PROTOCOLS else 60.0
            envelope = [preset.scenarios["fast"], preset.scenarios["slow"]]
            self.cases.append((entry["kind"], dual, envelope, l_max))

    def load_reference(self) -> None:
        self.reference = [e["answer"] for e in read_json("searches.json")]
        if len(self.reference) != len(self.catalogue):
            raise SystemExit("golden/searches.json does not match the search catalogue")

    def warmup_inputs(self):
        return (0,)

    def inputs(self):
        return _cycles(random.Random(self.seed), range(len(self.catalogue)))

    def run(self, case: int):
        kind, dual, envelope, l_max = self.cases[case]
        sweep = self.m.sweep
        if kind == "crossover":
            return sweep.crossover_distance(dual, envelope, l_max)
        return sweep.max_secure_distance(dual, l_max)

    def check(self, index: int, case: int, out) -> str:
        ref = self.reference[case]
        if ref is None or out is None:
            return OK if ref is None and out is None else WRONG
        return OK if abs(out - ref) <= DISTANCE_TOL_KM else WRONG


# ---------------------------------------------------------------------------
# scan

#: Every INVALID_EVERY-th op is a malformed spec from INVALID_KINDS.
INVALID_EVERY = 10
#: Malformed specs; each must raise ConfigError. The last three are
#: accepted by the current validators (non-finite numbers and bools).
INVALID_KINDS = ("unknown_key", "missing_key", "out_of_range", "rr_unequal_g_det", "bool", "nan", "infinity")
SCAN_LENGTHS = 5
#: Ops at the default seed whose results are committed in golden/scan_seed0.json.
SCAN_GOLDEN_OPS = 700
SCAN_WARMUP_SEED = 2**31 - 1
SCAN_WARMUP_OPS = 20


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _draw_spd(rng: random.Random, fast: bool) -> dict:
    if fast:
        fields = (_log_uniform(rng, 1e8, 1e10), rng.uniform(0.002, 0.3), _log_uniform(rng, 1e-9, 1e-5))
    else:
        fields = (_log_uniform(rng, 1e6, 1e8), rng.uniform(0.1, 0.9), _log_uniform(rng, 1e-8, 1e-6))
    # e_det stays below 0.05 so that optimal_mu has a root for every f_ec drawn.
    return {"spd": dict(zip(("rep_rate_hz", "eta_d", "y0"), fields), e_det=rng.uniform(0.005, 0.05))}


def _draw_homodyne(rng: random.Random, fast: bool, g_det: float) -> dict:
    rep_rate = _log_uniform(rng, 1e7, 1e8) if fast else _log_uniform(rng, 1e5, 1e6)
    eps_det = rng.uniform(0.1, 0.6) if fast else rng.uniform(0.0, 0.05)
    return {"homodyne": {"rep_rate_hz": rep_rate, "g_det": g_det, "eps_det": eps_det}}


def draw_design(rng: random.Random) -> SimpleNamespace:
    """One valid design point inside the documented domain."""
    protocol = rng.choice(("bb84_single_photon", "decoy_bb84", "gmcs_dr", "gmcs_rr"))
    modes = ("single_fast", "single_slow", "dual") + (("dual_no_pa",) if protocol == "decoy_bb84" else ())
    mode = rng.choice(modes)
    spd = protocol in SPD_PROTOCOLS
    if spd:
        detectors = [_draw_spd(rng, True), _draw_spd(rng, False)]
    else:
        g_det = rng.uniform(0.5, 1.0)
        detectors = [_draw_homodyne(rng, True, g_det), _draw_homodyne(rng, False, g_det)]
    link = {
        "alpha_db_per_km": rng.uniform(0.16, 0.25),
        "g_bob": rng.uniform(0.05, 1.0) if spd else 1.0,
        "switch_loss_db": rng.uniform(0.0, 3.0),
    }
    if spd:
        config = {"basis_factor": rng.choice((0.5, 1.0)), "f_ec": rng.uniform(1.0, 1.3)}
    else:
        config = {"v": rng.uniform(2.0, 50.0), "beta": rng.uniform(0.7, 1.0), "eps_pre": rng.uniform(0.0, 0.1)}
    l_max = 200.0 if spd else 50.0
    lengths = tuple(rng.uniform(0.0, l_max) for _ in range(SCAN_LENGTHS))
    keyed = detectors[1 if mode == "single_slow" else 0]
    # decoy: mu is the self-consistent optimum for the keyed detector.
    mu_args = (keyed["spd"]["e_det"], config["f_ec"]) if protocol == "decoy_bb84" else None
    sched = None
    if mode.startswith("dual"):
        k = rng.randint(2, 200)
        p = rng.uniform(1e-5, 0.1 / k)  # k*p <= 0.1: inside the first-order validity range
        slow = detectors[1]
        slow_rate, slow_eff = (
            (slow["spd"]["rep_rate_hz"], slow["spd"]["eta_d"]) if spd
            else (slow["homodyne"]["rep_rate_hz"], slow["homodyne"]["g_det"])
        )
        overall_eta = (
            10.0 ** (-link["alpha_db_per_km"] * lengths[0] / 10.0)
            * link["g_bob"] * 10.0 ** (-link["switch_loss_db"] / 10.0) * slow_eff
        )
        sched = (p, k, rng.uniform(0.005, 0.05), slow_rate, 1.0, overall_eta, 1e6)
    spec = {"protocol": protocol, "mode": mode, "link": link, "detectors": detectors, "config": config}
    return SimpleNamespace(spec=spec, mu_args=mu_args, lengths=lengths, sched=sched)


def corrupt(design: SimpleNamespace, kind: str) -> SimpleNamespace:
    """Turn a valid design into a malformed spec of the given kind."""
    spec = json.loads(json.dumps(design.spec))
    link, det = spec["link"], spec["detectors"][0]
    fields = next(iter(det.values()))
    if kind == "unknown_key":
        link["colour"] = 1.0
    elif kind == "missing_key":
        del fields["rep_rate_hz"]
    elif kind == "out_of_range":
        link["g_bob"] = 1.5
    elif kind == "rr_unequal_g_det":
        spec["protocol"], spec["mode"] = "gmcs_rr", "dual"
        spec["config"] = {"v": 20.0, "beta": 0.8}
        spec["detectors"] = [
            {"homodyne": {"rep_rate_hz": 8.2e7, "g_det": 0.8, "eps_det": 0.43}},
            {"homodyne": {"rep_rate_hz": 1e6, "g_det": 0.6, "eps_det": 0.01}},
        ]
    elif kind == "bool":
        link["g_bob"] = True
    elif kind == "nan":
        link["alpha_db_per_km"] = float("nan")
    elif kind == "infinity":
        fields["rep_rate_hz"] = float("inf")
    else:
        raise ValueError(kind)
    mu_args = design.mu_args if spec["protocol"] == "decoy_bb84" else None
    return SimpleNamespace(spec=spec, mu_args=mu_args, lengths=design.lengths, sched=None)


def scan_inputs(seed: int):
    """Design points as the op receives them: JSON text plus the arguments of
    optimal_mu, the lengths and the scheduling inputs."""
    rng = random.Random(seed)
    kinds = _cycles(random.Random(seed + 1), INVALID_KINDS)
    index = 0
    while True:
        design = draw_design(rng)
        invalid = None
        if index % INVALID_EVERY == INVALID_EVERY - 1:
            invalid = next(kinds)
            design = corrupt(design, invalid)
        yield SimpleNamespace(
            text=json.dumps(design.spec), mu_args=design.mu_args, lengths=design.lengths,
            sched=design.sched, invalid=invalid,
        )
        index += 1


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def _flat(sched) -> list[float]:
    probs, qber, p_max, seconds = sched
    return [*probs, qber, p_max, seconds]


def encode_scan(out):
    """JSON form of a scan op's result, as committed in golden/scan_seed0.json."""
    if isinstance(out, str):
        return out
    rates, sched = out
    return [list(rates), None if sched is None else _flat(sched)]


def _matches(got, ref) -> bool:
    if isinstance(got, str) or isinstance(ref, str):
        return got == ref
    (rates, sched), (ref_rates, ref_sched) = got, ref
    if (sched is None) != (ref_sched is None):
        return False
    a, b = rates + (sched or []), ref_rates + (ref_sched or [])
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


class Scan(Workload):
    """One op: one seeded design point, parsed from JSON text and evaluated."""

    name = "scan"
    #: Ten rounds of the seven malformed kinds, with their valid ops between.
    trace_block = 10 * len(INVALID_KINDS) * INVALID_EVERY

    def build(self) -> None:
        self.m = load_modules()

    def load_reference(self) -> None:
        self.reference = read_json("scan_seed0.json") if self.seed == 0 else None

    def warmup_inputs(self):
        warm = scan_inputs(SCAN_WARMUP_SEED)
        return [next(warm) for _ in range(SCAN_WARMUP_OPS)]

    def inputs(self):
        return scan_inputs(self.seed)

    def parse(self, inp):
        data = json.loads(inp.text)
        if inp.mu_args is not None:
            data["config"]["mu"] = self.m.decoy.optimal_mu(*inp.mu_args)
        return data

    def run(self, inp):
        m = self.m
        data = self.parse(inp)
        try:
            scenario = m.scenario.scenario_from_dict(data)
        except m.scenario.ConfigError:
            return REJECTED
        if inp.invalid:
            return ACCEPTED
        rates = tuple(m.scenario.evaluate(scenario, length) for length in inp.lengths)
        sched = None
        if inp.sched is not None:
            p, k, budget, rep_rate, mu, overall_eta, target = inp.sched
            practical = m.practical
            sched = (
                practical.choice_probabilities(p, k),
                practical.multi_pulse_qber(p, k),
                practical.max_slow_probability(k, budget),
                practical.accumulation_time(p, rep_rate, mu, overall_eta, target),
            )
        return rates, sched

    def check(self, index: int, inp, out) -> str:
        if inp.invalid:
            return OK if out == REJECTED else ACCEPTED
        if out == REJECTED:
            return WRONG
        if self.reference is not None and index < len(self.reference):
            return OK if _matches(encode_scan(out), self.reference[index]) else WRONG
        rates, sched = out
        if not all(math.isfinite(r) for r in rates):
            return WRONG
        if sched is not None and not all(math.isfinite(v) for v in _flat(sched)):
            return WRONG
        return OK if self._single_matches_dual(inp, rates) else WRONG

    def _single_matches_dual(self, inp, rates) -> bool:
        """A single-detector rate equals the dual rate with (det, det) and no switch."""
        data = self.parse(inp)
        mode = data["mode"]
        if not mode.startswith("single"):
            return True
        det = data["detectors"][1 if mode == "single_slow" else 0]
        data.update(mode="dual", detectors=[det, det])
        data["link"]["switch_loss_db"] = 0.0
        scenario = self.m.scenario.scenario_from_dict(data)
        return all(_close(self.m.scenario.evaluate(scenario, L), r) for L, r in zip(inp.lengths, rates))


# ---------------------------------------------------------------------------
# cli

#: The cli mix: every op runs one `python -m dualdet.cli` process. Names in
#: braces are scenario files written during set-up. Fifteen entries put p50
#: (7.5 of 15) and p90 (13.5 of 15) mid-way through one entry's share of the
#: samples rather than on the edge between two entries of different cost.
CLI_MIX = (
    ("rate", "--config", "{fig1_dual}", "--length", "100"),
    ("rate", "--config", "{fig4_slow}", "--length", "50"),
    ("rate", "--config", "{fig6_dual}", "--length", "2"),
    ("rate", "--config", "{fig5_fast}", "--length", "1"),
    ("rate", "--config", "{bad_unknown_key}", "--length", "1"),
    ("maxdist", "--config", "{fig1_dual}"),
    ("maxdist", "--config", "{fig7_dual}", "--lmax", "60"),
    ("crossover", "--config-a", "{fig1_dual}", "--config-b", "{fig1_fast}", "--config-b", "{fig1_slow}"),
    ("crossover", "--config-a", "{fig5_dual}", "--config-b", "{fig5_fast}", "--config-b", "{fig5_slow}", "--lmax", "60"),
    ("figure", "--id", "2", "--out", "{out_csv}"),
    ("figure", "--id", "6", "--out", "{out_csv}"),
    ("mu-opt", "--edet", "0.018", "--f", "1.22"),
    ("mu-opt", "--edet", "0.03", "--f", "1.1"),
    ("schedule", "--p", "4e-4", "--k", "100"),
    ("schedule", "--p", "1e-3", "--k", "50", "--qber-budget", "0.02"),
)
CLI_WARMUP = 11  # index into CLI_MIX: mu-opt, the cheapest op
OUT_CSV = "out.csv"


def cli_command(argv: list[str], traced_spans: Path | None = None) -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-m", "dualdet.cli", *argv]
    return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(traced_spans), *argv]


class Cli(Workload):
    """One op: one dualdet CLI process, started with the benchmark's interpreter."""

    name = "cli"
    trace_block = len(CLI_MIX)

    def build(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        files = {"out_csv": str(self.run_dir / OUT_CSV)}
        for name, spec in read_json("cli_scenarios.json").items():
            path = self.run_dir / f"{name}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            files[name] = str(path)
        self.argvs = [[arg.format(**files) for arg in entry] for entry in CLI_MIX]
        self.env = child_env()
        self.traced_spans: Path | None = None
        self.peak_rss_kib = 0

    def load_reference(self) -> None:
        self.reference = read_json("cli.json")
        if len(self.reference) != len(CLI_MIX):
            raise SystemExit("golden/cli.json does not match the cli mix")
        self.golden_csv = {i: golden_csv(i) for i in (2, 6)}

    def warmup_inputs(self):
        return (CLI_WARMUP,)

    def inputs(self):
        return _cycles(random.Random(self.seed), range(len(CLI_MIX)))

    def run(self, entry: int):
        out_csv = self.run_dir / OUT_CSV
        if out_csv.exists():
            out_csv.unlink()
        with open(self.run_dir / "stderr.txt", "w+b") as err:
            proc = subprocess.Popen(
                cli_command(self.argvs[entry], self.traced_spans), cwd=self.run_dir, env=self.env,
                stdout=subprocess.PIPE, stderr=err,
            )
            with proc.stdout:
                stdout = proc.stdout.read()
            # wait4 instead of wait: it also returns the child's peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        csv = out_csv.read_bytes() if out_csv.exists() else None
        return proc.returncode, stdout.decode("utf-8"), csv, stderr.decode("utf-8")

    def check(self, index: int, entry: int, out) -> str:
        code, stdout, csv, stderr = out
        ref = self.reference[entry]
        if code != ref["exit"] or stdout != ref["stdout"]:
            if code not in (0, 2, 3):
                sys.stderr.write(stderr)
            return WRONG
        argv = CLI_MIX[entry]
        if argv[0] == "figure":
            return OK if csv == self.golden_csv[int(argv[2])] else WRONG
        return OK


WORKLOADS = {w.name: w for w in (Figures, Searches, Scan, Cli)}
