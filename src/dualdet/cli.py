"""Command-line interface.

Exit codes: 0 on success, 2 for configuration problems (bad scenario file,
bad flags, unwritable output), 3 for numeric/domain errors raised during
evaluation. Each command imports the modules it runs, and only those.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .core import ConfigError, DomainError, db_to_transmittance, format_length, format_rate

# Reference slow-arm efficiency for the schedule command: 21 dB channel,
# 0.16 receiver optics, 3 dB switch, 0.5 detector efficiency.
DEFAULT_OVERALL_ETA = db_to_transmittance(21.0) * 0.16 * db_to_transmittance(3.0) * 0.5


def _finite_float(text: str) -> float:
    """argparse type for float flags: refuses nan and inf (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fmt_distance(value: float | None) -> str:
    return "none" if value is None else format_length(value)


def _cmd_rate(args: argparse.Namespace) -> int:
    from .scenario import evaluate, load_scenario

    if args.length < 0.0:
        raise ConfigError(f"--length must be >= 0 km, got {args.length}")
    scenario = load_scenario(args.config)
    print(format_rate(evaluate(scenario, args.length)))
    return 0


def _save_csv(path: str, make_curves) -> None:
    """Open path, then save make_curves() to it as CSV: an unwritable --out is
    refused before any evaluation, and a failure removes a file this call
    created. A file that was there is left as it was if the curves fail."""
    from .sweep import save_curves_csv

    created = not os.path.exists(path)
    try:
        held = open(path, "a", encoding="utf-8")  # creates path, truncates nothing
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with held:  # kept open through the write, so a FIFO's reader sees one stream
            save_curves_csv(make_curves(), path)
    except BaseException:
        if created and os.path.exists(path):
            os.remove(path)
        raise


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .scenario import MODE_TO_ROLE, load_scenario
    from .sweep import sweep

    scenario = load_scenario(args.config)
    role = MODE_TO_ROLE[scenario.mode]
    _save_csv(args.out, lambda: {role: sweep(scenario, args.lmin, args.lmax, args.step)})
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .presets import figure_preset
    from .sweep import sweep_preset

    preset = figure_preset(args.id)
    _save_csv(args.out, lambda: sweep_preset(preset))
    return 0


def _cmd_maxdist(args: argparse.Namespace) -> int:
    from .scenario import load_scenario
    from .sweep import max_secure_distance

    scenario = load_scenario(args.config)
    print(_fmt_distance(max_secure_distance(scenario, args.lmax)))
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    from .scenario import load_scenario
    from .sweep import crossover_distance

    scenario_a = load_scenario(args.config_a)
    others = [load_scenario(path) for path in args.config_b]
    print(_fmt_distance(crossover_distance(scenario_a, others, args.lmax)))
    return 0


def _cmd_mu_opt(args: argparse.Namespace) -> int:
    from .decoy import optimal_mu

    print(f"{optimal_mu(args.edet, args.f):.6f}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from .practical import accumulation_time, choice_probabilities, max_slow_probability, multi_pulse_qber

    # Compute every value before printing any: a failing input prints nothing.
    p0, p1, pm = choice_probabilities(args.p, args.k)
    qber = multi_pulse_qber(args.p, args.k)
    p_max = max_slow_probability(args.k, args.qber_budget)
    seconds = accumulation_time(args.p, args.rep_rate, args.mu, args.overall_eta, args.target_counts)
    print(f"p0 {format_rate(p0)}")
    print(f"p1 {format_rate(p1)}")
    print(f"pm {format_rate(pm)}")
    print(f"multi_pulse_qber {format_rate(qber)}")
    print(f"p_max {format_rate(p_max)}")
    print(f"accumulation_s {format_rate(seconds)}")
    print(f"accumulation_hours {format_rate(seconds / 3600.0)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualdet",
        description="Secret key rates for QKD receivers pairing a fast noisy "
        "detector with a slow quiet one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="raw key rate of a scenario at one length")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--length", required=True, type=_finite_float, help="fiber length, km")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("sweep", help="sweep a scenario over a length grid to CSV")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--lmin", type=_finite_float, default=0.0)
    p.add_argument("--lmax", type=_finite_float, default=250.0)
    p.add_argument("--step", type=_finite_float, default=1.0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="emit a built-in preset's curves to CSV")
    p.add_argument("--id", required=True, type=int, help="preset id, 1..9")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("maxdist", help="largest length with a positive rate")
    p.add_argument("--config", required=True)
    p.add_argument("--lmax", type=_finite_float, default=250.0, help="search limit, km")
    p.set_defaults(func=_cmd_maxdist)

    p = sub.add_parser("crossover", help="where scenario A stops beating scenario B")
    p.add_argument("--config-a", required=True)
    p.add_argument(
        "--config-b", required=True, action="append",
        help="may be given twice to compare against the best of two scenarios",
    )
    p.add_argument("--lmax", type=_finite_float, default=250.0)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("mu-opt", help="self-consistent signal intensity for decoy BB84")
    p.add_argument("--edet", required=True, type=_finite_float, help="misalignment error")
    p.add_argument("--f", required=True, type=_finite_float, help="error-correction efficiency")
    p.set_defaults(func=_cmd_mu_opt)

    p = sub.add_parser("schedule", help="slow-detector routing probabilities and limits")
    p.add_argument("--p", required=True, type=_finite_float, help="slow-arm routing probability")
    p.add_argument("--k", required=True, type=int, help="pulses per response window")
    p.add_argument("--qber-budget", type=_finite_float, default=0.01)
    p.add_argument("--rep-rate", type=_finite_float, default=1e9, help="pulse rate, Hz")
    p.add_argument("--mu", type=_finite_float, default=1.0, help="mean photons per pulse")
    p.add_argument(
        "--overall-eta", type=_finite_float, default=DEFAULT_OVERALL_ETA,
        help="source-to-click efficiency of the slow arm "
        "(default: 21 dB channel, 0.16 optics, 3 dB switch, 0.5 detector)",
    )
    p.add_argument("--target-counts", type=_finite_float, default=1e6)
    p.set_defaults(func=_cmd_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ZeroDivisionError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
