"""Run the fusionkit CLI with the benchmark's span wrappers installed.

Usage: ``PERFBENCH_TRACE_OUT=spans.json python3 perfbench/cli_shim.py <cli args>``.
Behaves like ``python -m fusionkit <cli args>`` (same output, same exit
code, same traceback on an uncaught error) and also writes the spans it
recorded to the file named by ``PERFBENCH_TRACE_OUT``.
"""

import os
import sys

from layers import install
from spans import Tracer


def main() -> None:
    from fusionkit import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.run(sys.argv[1:])
    finally:
        tracer.write_json(os.environ["PERFBENCH_TRACE_OUT"])
    sys.exit(code)


if __name__ == "__main__":
    main()
