"""Command-line interface.

COMMANDS is the one table of commands, flags and help. main reads a well-formed
argv from it without importing argparse (_read_argv); any other argv, help
included, goes to the argparse parser that build_parser makes from the table.

Exit codes: 0 on success, 2 for configuration problems (bad scenario file,
bad flags, unwritable output), 3 for numeric/domain errors raised during
evaluation. Each command imports the modules it runs, and only those.
"""

from __future__ import annotations

import math
import os
import sys

from .core import LENGTH_FORMAT, RATE_FORMAT, ConfigError, DomainError, db_to_transmittance

# Reference slow-arm efficiency for the schedule command: 21 dB channel,
# 0.16 receiver optics, 3 dB switch, 0.5 detector efficiency.
DEFAULT_OVERALL_ETA = db_to_transmittance(21.0) * 0.16 * db_to_transmittance(3.0) * 0.5


def _finite_float(text: str) -> float:
    """Type of the float flags: refuses nan and inf (exit 2), importing argparse only to refuse."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        import argparse

        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fmt_distance(value: float | None) -> str:
    return "none" if value is None else LENGTH_FORMAT % value


def _cmd_rate(config: str, length: float) -> int:
    from .scenario import evaluate, load_scenario

    if length < 0.0:
        raise ConfigError(f"--length must be >= 0 km, got {length}")
    print(RATE_FORMAT % evaluate(load_scenario(config), length))
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


def _cmd_sweep(config: str, lmin: float, lmax: float, step: float, out: str) -> int:
    from .scenario import MODE_TO_ROLE, load_scenario
    from .sweep import sweep

    scenario = load_scenario(config)
    _save_csv(out, lambda: {MODE_TO_ROLE[scenario.mode]: sweep(scenario, lmin, lmax, step)})
    return 0


def _cmd_figure(id: int, out: str) -> int:  # noqa: A002 - the flag is --id
    from .presets import figure_preset
    from .sweep import sweep_preset

    preset = figure_preset(id)
    _save_csv(out, lambda: sweep_preset(preset))
    return 0


def _cmd_maxdist(config: str, lmax: float) -> int:
    from .scenario import load_scenario
    from .sweep import max_secure_distance

    print(_fmt_distance(max_secure_distance(load_scenario(config), lmax)))
    return 0


def _cmd_crossover(config_a: str, config_b: list[str], lmax: float) -> int:
    from .scenario import load_scenario
    from .sweep import crossover_distance

    others = [load_scenario(path) for path in config_b]
    print(_fmt_distance(crossover_distance(load_scenario(config_a), others, lmax)))
    return 0


def _cmd_mu_opt(edet: float, f: float) -> int:
    from .decoy import optimal_mu

    print(f"{optimal_mu(edet, f):.6f}")
    return 0


def _cmd_schedule(p: float, k: int, qber_budget: float, rep_rate: float, mu: float, overall_eta: float,
                  target_counts: float) -> int:
    from .practical import accumulation_time, choice_probabilities, max_slow_probability, multi_pulse_qber

    # Compute every value before printing any: a failing input prints nothing.
    p0, p1, pm = choice_probabilities(p, k)
    qber = multi_pulse_qber(p, k)
    p_max = max_slow_probability(k, qber_budget)
    seconds = accumulation_time(p, rep_rate, mu, overall_eta, target_counts)
    for label, value in (("p0", p0), ("p1", p1), ("pm", pm), ("multi_pulse_qber", qber), ("p_max", p_max),
                         ("accumulation_s", seconds), ("accumulation_hours", seconds / 3600.0)):
        print(f"{label} {RATE_FORMAT % value}")
    return 0


#: Defaults that mark a flag required, or required and repeatable, its values appended to a list.
REQUIRED, APPEND = object(), object()

#: Each command's handler, help and flags: (name, type, default, help). A handler takes
#: one keyword argument per flag, named as argparse names the flag's value.
COMMANDS = {
    "rate": (_cmd_rate, "raw key rate of a scenario at one length", (
        ("--config", str, REQUIRED, "scenario JSON file"),
        ("--length", _finite_float, REQUIRED, "fiber length, km"))),
    "sweep": (_cmd_sweep, "sweep a scenario over a length grid to CSV", (
        ("--config", str, REQUIRED, "scenario JSON file"),
        ("--lmin", _finite_float, 0.0, None),
        ("--lmax", _finite_float, 250.0, None),
        ("--step", _finite_float, 1.0, None),
        ("--out", str, REQUIRED, "output CSV path"))),
    "figure": (_cmd_figure, "emit a built-in preset's curves to CSV", (
        ("--id", int, REQUIRED, "preset id, 1..9"),
        ("--out", str, REQUIRED, "output CSV path"))),
    "maxdist": (_cmd_maxdist, "largest length with a positive rate", (
        ("--config", str, REQUIRED, None),
        ("--lmax", _finite_float, 250.0, "search limit, km"))),
    "crossover": (_cmd_crossover, "where scenario A stops beating scenario B", (
        ("--config-a", str, REQUIRED, None),
        ("--config-b", str, APPEND, "may be given twice to compare against the best of two scenarios"),
        ("--lmax", _finite_float, 250.0, None))),
    "mu-opt": (_cmd_mu_opt, "self-consistent signal intensity for decoy BB84", (
        ("--edet", _finite_float, REQUIRED, "misalignment error"),
        ("--f", _finite_float, REQUIRED, "error-correction efficiency"))),
    "schedule": (_cmd_schedule, "slow-detector routing probabilities and limits", (
        ("--p", _finite_float, REQUIRED, "slow-arm routing probability"),
        ("--k", int, REQUIRED, "pulses per response window"),
        ("--qber-budget", _finite_float, 0.01, None),
        ("--rep-rate", _finite_float, 1e9, "pulse rate, Hz"),
        ("--mu", _finite_float, 1.0, "mean photons per pulse"),
        ("--overall-eta", _finite_float, DEFAULT_OVERALL_ETA, "source-to-click efficiency of the slow arm "
         "(default: 21 dB channel, 0.16 optics, 3 dB switch, 0.5 detector)"),
        ("--target-counts", _finite_float, 1e6, None))),
}


def build_parser():
    """The argparse parser of COMMANDS: it gives the help text and refuses bad argvs."""
    import argparse

    parser = argparse.ArgumentParser(prog="dualdet", description="Secret key rates for QKD receivers pairing a fast "
                                     "noisy detector with a slow quiet one.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=about)
        for name, kind, default, text in flags:
            required = default in (REQUIRED, APPEND)
            p.add_argument(name, type=kind, required=required, default=None if required else default, help=text,
                           action="append" if default is APPEND else "store")
    return parser


def _read_argv(argv: list[str]) -> dict | None:
    """vars(build_parser().parse_args(argv)) for a well-formed argv: the command, then exact
    `--flag value` pairs, each value led by no dash and accepted by the flag's type, and every
    required flag given. None for any other argv, which argparse then reads or refuses."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = {flag[0]: flag for flag in COMMANDS[argv[0]][2]}
    given = {}
    for name, text in zip(argv[1::2], argv[2::2]):
        if name not in flags or text[:1] == "-":
            return None
        try:
            value = flags[name][1](text)
        except Exception:  # argparse then refuses the value, or raises the same error
            return None
        # The last of a repeated flag wins, and an APPEND flag collects its values.
        given[name] = [*given.get(name, ()), value] if flags[name][2] is APPEND else value
    values = {"command": argv[0]}
    for name, _, default, _ in flags.values():
        if name not in given and default in (REQUIRED, APPEND):
            return None
        values[name[2:].replace("-", "_")] = given.get(name, default)
    return values


def main(argv: list[str] | None = None) -> int:
    values = _read_argv(sys.argv[1:] if argv is None else argv) or vars(build_parser().parse_args(argv))
    handler = COMMANDS[values.pop("command")][0]
    try:
        return handler(**values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ZeroDivisionError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
