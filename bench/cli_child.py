"""Run one dualdet CLI command under the tracer and write its spans.

Usage: python bench/cli_child.py SPANS_JSON ARGV...
The exit code is the CLI's own.
"""

import importlib
import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module("dualdet.cli")
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)


if __name__ == "__main__":
    sys.exit(main())
