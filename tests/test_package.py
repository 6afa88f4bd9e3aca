"""The package root: one export table, names resolved on first use, and the
modules each CLI command loads."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualdet

ROOT = Path(__file__).resolve().parents[1]

#: The package root's public names, module by module.
PUBLIC = {
    "core": ["E0", "DomainError", "ConfigError", "SpdSpec", "HomodyneSpec", "LinkSpec", "GmcsSource",
             "binary_entropy", "channel_transmittance", "db_to_transmittance"],
    "bb84": ["Bb84Config", "bb84_rate_dual"],
    "decoy": ["DecoyConfig", "decoy_single_photon_qber", "decoy_rate_dual", "optimal_mu"],
    "gmcs": ["MismatchedEfficiencyError", "gmcs_dr_rate_dual", "gmcs_rr_rate_dual"],
    "practical": ["choice_probabilities", "multi_pulse_qber", "max_slow_probability", "accumulation_time"],
    "presets": ["FigurePreset", "figure_preset"],
    "scenario": ["Scenario", "evaluate", "load_scenario", "scenario_from_dict"],
    "sweep": ["RateCurve", "sweep_preset", "max_secure_distance", "crossover_distance",
              "write_curves_csv", "save_curves_csv"],
}


def test_root_exports_the_public_names():
    names = [n for module_names in PUBLIC.values() for n in module_names]
    assert len(names) == 35
    assert len(dualdet.__all__) == len(set(dualdet.__all__)) == 35
    assert set(dualdet.__all__) == set(names)


@pytest.mark.parametrize("module", PUBLIC)
def test_root_name_is_its_module_attribute(module):
    submodule = importlib.import_module(f"dualdet.{module}")
    for name in PUBLIC[module]:
        assert getattr(dualdet, name) is getattr(submodule, name), name
        assert name in dir(dualdet)


def test_config_error_has_one_class():
    scenario, core = (importlib.import_module(f"dualdet.{m}") for m in ("scenario", "core"))
    assert scenario.ConfigError is core.ConfigError is dualdet.ConfigError


def test_star_import_and_unknown_name():
    namespace = {}
    exec("from dualdet import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(dualdet.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dualdet.no_such_name
    with pytest.raises(AttributeError, match="read_curves_csv"):  # removed: read CSVs with the csv module
        dualdet.read_curves_csv
    # Removed: the GMCS kernels are the only spelling of the informations.
    for name in ("noise_budget", "mutual_info_ab", "info_ae", "info_be"):
        with pytest.raises(AttributeError, match=name):
            getattr(dualdet, name)
    # Removed: each gain and QBER is a slot of bb84._arm or decoy._signal.
    for name in ("bb84_gain", "bb84_qber", "decoy_signal_gain", "decoy_signal_qber", "decoy_single_photon_gain"):
        with pytest.raises(AttributeError, match=name):
            getattr(dualdet, name)


def test_init_spells_each_name_once():
    source = (ROOT / "src" / "dualdet" / "__init__.py").read_text(encoding="utf-8")
    for name in dualdet.__all__:
        assert len(re.findall(rf"\b{name}\b", source)) == 1, name


#: Standard modules a command loads only if it runs them: json to read a scenario file, and
#: dataclasses and inspect never (their imports cost each command about 10 ms under -S), nor
#: typing and pathlib (about 3.5 ms each), nor argparse and the gettext and locale it loads
#: (about 4 ms together), which only help text and refused flags need.
WATCHED = ("json", "dataclasses", "inspect", "typing", "pathlib", "argparse", "gettext", "locale")


def _loaded_after(code):
    """dualdet submodules and WATCHED modules loaded after running code in a fresh interpreter,
    started with -S so that no site hook (a .pth file) loads any of them first."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = f"m for m in sys.modules if m.startswith('dualdet.') or m in {WATCHED}"
    probe = f"{code}\nimport sys\nprint(' '.join({loaded}))"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())  # the last line, after any CLI output


def test_import_loads_no_submodule():
    assert _loaded_after("import dualdet") == set()


def test_modules_load_no_typing_or_pathlib():
    # Their names would appear only in annotations, which stay strings (PEP 563); cli imports
    # argparse only to print help or refuse an argv.
    assert _loaded_after("import dualdet.cli, dualdet.scenario, dualdet.sweep, dualdet.presets") == {
        f"dualdet.{m}" for m in ("cli", "core", "bb84", "decoy", "gmcs", "scenario", "sweep", "presets")}


SCENARIO_MODULES = {"core", "bb84", "decoy", "gmcs", "scenario"}
BB84_DUAL = {
    "protocol": "bb84_single_photon", "mode": "dual", "link": {"alpha_db_per_km": 0.21, "g_bob": 0.16},
    "detectors": [{"spd": {"rep_rate_hz": 1e9, "eta_d": 0.059, "y0": 1.3e-5, "e_det": 0.018}},
                  {"spd": {"rep_rate_hz": 2.5e6, "eta_d": 0.5, "y0": 3e-7, "e_det": 0.018}}],
    "config": {"basis_factor": 0.5, "f_ec": 1.22},
}


@pytest.mark.parametrize("argv, loaded", [
    (["rate", "--config", "{dual}", "--length", "50"], {*SCENARIO_MODULES, "json"}),
    (["maxdist", "--config", "{dual}"], {*SCENARIO_MODULES, "sweep", "json"}),
    (["crossover", "--config-a", "{dual}", "--config-b", "{slow}"], {*SCENARIO_MODULES, "sweep", "json"}),
    (["figure", "--id", "6", "--out", "{out}"], {*SCENARIO_MODULES, "presets", "sweep"}),
    (["mu-opt", "--edet", "0.018", "--f", "1.22"], {"core", "bb84", "decoy"}),
    (["schedule", "--p", "4e-4", "--k", "100"], {"core", "practical"}),
], ids=["rate", "maxdist", "crossover", "figure", "mu-opt", "schedule"])
def test_cli_command_loads_only_its_modules(argv, loaded, tmp_path):
    files = {"out": str(tmp_path / "out.csv")}
    for mode, name in (("dual", "dual"), ("single_slow", "slow")):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps({**BB84_DUAL, "mode": mode}), encoding="utf-8")
    argv = [arg.format(**files) for arg in argv]
    modules = _loaded_after(f"from dualdet import cli\nassert cli.main({argv!r}) == 0")
    assert not modules & {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    assert modules == {"dualdet.cli", *(m if m in WATCHED else f"dualdet.{m}" for m in loaded)}


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    tour_names = {n for n in namespace if n != "__builtins__"}
    assert {"fast", "slow", "cfg", "t", "dual", "preset"} <= tour_names
    kernel_rate = namespace["bb84_rate_dual"](namespace["fast"], namespace["slow"], namespace["cfg"], namespace["t"])
    assert namespace["evaluate"](namespace["dual"], 100.0) == kernel_rate
