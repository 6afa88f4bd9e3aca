"""Count the lines of src/dualdet/*.py by class: code, docstring, comment, blank.

Each line falls in exactly one class, tested in this order:
- an empty line (spaces only) is blank, inside a docstring too;
- a line inside a module, class or function docstring (found with ast) is docstring;
- a line whose first non-space character is # is comment;
- any other line is code.

Run from the repository root:

    python3 tools/src_lines.py            # src/dualdet
    python3 tools/src_lines.py path/to/dir
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers spanned by each module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def classify(source: str) -> list[str]:
    """The class of each line of source, in order."""
    docstrings = docstring_lines(ast.parse(source))
    classes = []
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if not text:
            classes.append("blank")
        elif number in docstrings:
            classes.append("docstring")
        elif text.startswith("#"):
            classes.append("comment")
        else:
            classes.append("code")
    return classes


def count(directory: Path) -> dict[str, Counter]:
    """Counts per class for each module of directory, by file name."""
    return {path.name: Counter(classify(path.read_text(encoding="utf-8")))
            for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "dualdet"
    counts = count(directory)
    total = sum(counts.values(), Counter())
    print(f"{'module':<16}" + "".join(f"{name:>11}" for name in (*CLASSES, "total")))
    for name, counter in [*counts.items(), ("total", total)]:
        print(f"{name:<16}" + "".join(f"{counter[c]:>11,}" for c in CLASSES) + f"{sum(counter.values()):>11,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
