"""Traced ``focklab`` CLI process: ``python -X importtime cli_child.py SPANS SCENARIO``.

Runs ``focklab.cli.main`` on the scenario exactly as the console script
does, with the tracer installed, and writes the spans to SPANS.
"""

import os
import sys

import focklab.cli  # first, so that the import timings match the console script's

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main(spans_path, argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_op("cli", 0, focklab.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
