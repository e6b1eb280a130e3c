"""Starts the benchmark's CLI children from a small process.

A child's peak resident memory, as wait4 reports it, is at least that of the
process that spawned it, because the spawner's memory map is the one the
child replaces at exec.  The benchmark itself holds large check tables, so
it asks this process, which never imports numpy, to spawn and time each
child.  Protocol: one JSON request per stdin line, ``{"argv", "out",
"err"}``; one JSON reply per stdout line with run_child's fields.
"""

import json
import sys

from common import run_child


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run_child(req["argv"], req["out"], req["err"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
