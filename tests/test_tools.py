import importlib.util
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    """The module tools/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = _load("src_lines")
search_counts = _load("search_counts")
search_time = _load("search_time")
scan_time = _load("scan_time")
figure_time = _load("figure_time")
cli_time = _load("cli_time")

FIXTURE = '''"""Module docstring.

Second paragraph."""

#: A constant, documented by a comment.
X = 1  # a trailing comment leaves a code line


class C:
    """Class docstring."""

    def f(self):
        """Function docstring
           over two lines."""
        # a comment
        "a later string is code"
        return """not a
docstring"""
'''


def test_each_line_has_one_class_in_rule_order():
    # Blank first (a blank line inside a docstring too), then docstring
    # (module, class and function, found with ast), then comment, then code.
    assert src_lines.classify(FIXTURE) == [
        "docstring", "blank", "docstring", "blank",
        "comment", "code", "blank", "blank",
        "code", "docstring", "blank",
        "code", "docstring", "docstring", "comment", "code", "code", "code",
    ]


def test_the_package_count_covers_every_line():
    counts = src_lines.count(ROOT / "src" / "dualdet")
    assert "sweep.py" in counts
    for name, counter in counts.items():
        lines = (ROOT / "src" / "dualdet" / name).read_text(encoding="utf-8").splitlines()
        assert sum(counter.values()) == len(lines), name


def test_the_package_stays_inside_its_line_gate():
    # ROADMAP item 7: code added to src/dualdet is paid for by code taken out.
    total = sum(src_lines.count(ROOT / "src" / "dualdet").values(), Counter())
    assert sum(total.values()) <= 2040
    assert total["code"] < 1035


def test_search_counts_are_the_catalogue_totals():
    # The counts quoted in CHANGES and the ROADMAP: the 28 benchmark searches,
    # in the benchmark's order and with its answers, and their evaluations
    # by phase.
    golden = json.loads((ROOT / "bench" / "golden" / "searches.json").read_text(encoding="utf-8"))
    catalogue = search_counts.catalogue()
    assert [(e["kind"], e["figure"], e["switch_loss_db"]) for e in golden] == catalogue
    totals = {"crossover": Counter(), "maxdist": Counter()}
    for entry, (kind, fig_id, switch_loss) in zip(golden, catalogue):
        counts, answer = search_counts.count(kind, fig_id, switch_loss)
        assert answer == entry["answer"]
        totals[kind] += counts
    assert totals == {"crossover": Counter(grid=375, bisection=198), "maxdist": Counter(grid=115, bisection=108)}


@pytest.fixture
def parent_unloaded():
    """Drop the parent package search_time loads, so each test loads its own."""
    yield
    for name in [name for name in sys.modules if name.split(".")[0] == search_time.PARENT]:
        del sys.modules[name]


def test_search_time_against_this_tree(capsys, parent_unloaded):
    # A few rounds with this tree as its own parent: the answers agree, and
    # it prints a row per catalogue search and the three summed ratios.
    assert search_time.main([str(ROOT / "src"), "--rounds", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["search", "preset", "switch", "parent", "us", "tree", "us", "ratio"]
    assert [tuple(row.split()[:3]) for row in rows[:28]] == [
        (kind, str(fig_id), str(switch_loss)) for kind, fig_id, switch_loss in search_counts.catalogue()]
    assert [row.split()[0] for row in rows[28:]] == ["crossover", "maxdist", "all"]
    assert all(float(row.split()[-1]) > 0.0 for row in rows)


def test_search_time_refuses_a_parent_with_other_answers(tmp_path, capsys, parent_unloaded):
    # A parent whose bisection stops at another width answers otherwise, so
    # nothing is timed.
    shutil.copytree(ROOT / "src" / "dualdet", tmp_path / "dualdet")
    sweep = tmp_path / "dualdet" / "sweep.py"
    source = sweep.read_text(encoding="utf-8")
    assert "DISTANCE_TOL = 0.01\n" in source
    sweep.write_text(source.replace("DISTANCE_TOL = 0.01\n", "DISTANCE_TOL = 0.02\n"), encoding="utf-8")
    assert search_time.main([str(tmp_path), "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("answers differ:") and "crossover 1 0.0: parent" in out


def test_scan_time_against_this_tree(capsys, parent_unloaded):
    # A few rounds with this tree as its own parent: the results agree, and it
    # prints a row per op kind, the four protocols and the seven malformed kinds, then all ops.
    assert scan_time.main([str(ROOT / "src"), "--rounds", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["op", "kind", "ops", "parent", "us", "tree", "us", "ratio"]
    kinds = {row.split()[0]: int(row.split()[1]) for row in rows}
    assert kinds == {"bb84_single_photon": 56, "decoy_bb84": 65, "gmcs_dr": 62, "gmcs_rr": 69, "unknown_key": 4,
                     "missing_key": 4, "out_of_range": 4, "rr_unequal_g_det": 4, "bool": 4, "nan": 4,
                     "infinity": 4, "all": scan_time.BLOCK}
    assert all(float(row.split()[-1]) > 0.0 for row in rows)


def test_scan_time_on_another_seed(capsys, parent_unloaded):
    # --seed picks another block of design points; the results still agree.
    assert scan_time.main([str(ROOT / "src"), "--rounds", "1", "--seed", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[-1].split()[:2] == ["all", str(scan_time.BLOCK)]


def test_scan_time_refuses_a_parent_with_other_results(tmp_path, capsys, parent_unloaded):
    # A parent that words a refusal otherwise gives another result, so nothing is timed.
    shutil.copytree(ROOT / "src" / "dualdet", tmp_path / "dualdet")
    scenario = tmp_path / "dualdet" / "scenario.py"
    source = scenario.read_text(encoding="utf-8")
    assert source.count('f"unknown keys in {where}') == 1
    scenario.write_text(source.replace('f"unknown keys in {where}', 'f"unknown key in {where}'), encoding="utf-8")
    assert scan_time.main([str(tmp_path), "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("results differ:") and "parent ('ConfigError', \"unknown key in link: ['colour']\")" in out


def test_figure_time_against_this_tree(capsys, parent_unloaded):
    # A few rounds with this tree as its own parent: the CSV texts agree, and it
    # prints a row per figure preset, then the summed row.
    assert figure_time.main([str(ROOT / "src"), "--rounds", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["figure", "parent", "us", "tree", "us", "ratio"]
    assert [row.split()[0] for row in rows] == [*map(str, range(1, 10)), "all"]
    assert all(float(row.split()[-1]) > 0.0 for row in rows)


def test_figure_time_refuses_a_parent_with_other_csv(tmp_path, capsys, parent_unloaded):
    # A parent that prints rates to another precision writes other CSV text, so nothing is timed.
    shutil.copytree(ROOT / "src" / "dualdet", tmp_path / "dualdet")
    core = tmp_path / "dualdet" / "core.py"
    source = core.read_text(encoding="utf-8")
    assert source.count('RATE_FORMAT = "%.5e"\n') == 1
    core.write_text(source.replace('RATE_FORMAT = "%.5e"\n', 'RATE_FORMAT = "%.6e"\n'), encoding="utf-8")
    assert figure_time.main([str(tmp_path), "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("CSV text differs:") and "figure 1 line 2: parent '0.00," in out


def test_cli_time_against_this_tree(capsys):
    # One round with this tree as its own parent: every output agrees, and it
    # prints a row per command of the mix, then the mean row.
    assert cli_time.main([str(ROOT / "src"), "--rounds", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "runs", "parent", "ms", "tree", "ms", "ratio"]
    assert [row.split()[:2] for row in rows] == [
        ["rate", "5"], ["maxdist", "2"], ["crossover", "2"], ["figure", "2"], ["mu-opt", "2"], ["schedule", "2"],
        ["all", "15"]]
    assert all(float(row.split()[-1]) > 0.0 for row in rows)


def test_cli_time_refuses_a_parent_with_other_output(tmp_path, capsys):
    # A parent that words one flag's help otherwise prints other help text, so nothing is timed.
    shutil.copytree(ROOT / "src" / "dualdet", tmp_path / "dualdet")
    cli = tmp_path / "dualdet" / "cli.py"
    source = cli.read_text(encoding="utf-8")
    assert source.count('"pulses per response window"') == 1
    cli.write_text(source.replace('"pulses per response window"', '"pulses per window"'), encoding="utf-8")
    assert cli_time.main([str(tmp_path), "--rounds", "1"]) == 1
    first, *differ = capsys.readouterr().out.splitlines()
    assert first == "outputs differ:"
    assert len(differ) == 1 and differ[0].startswith("  schedule --help: stdout: parent b'usage: dualdet schedule")
