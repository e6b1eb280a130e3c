"""Run the geodkit CLI with tracing: ``traced_cli.py STATS RUN_ID -- CLI ARGS``.

Started with ``python -X importtime`` by the benchmark's traced runs; the
spans and counters go to the STATS file.
"""

import time

T_START = time.time()

import sys  # noqa: E402

from tracing import cli_child_main  # noqa: E402

sys.exit(cli_child_main(T_START))
