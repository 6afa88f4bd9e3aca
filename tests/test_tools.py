import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

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
