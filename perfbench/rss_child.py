"""Run a workload's deciding CLI calls once in a fresh process and print
its peak resident set size in MiB.

    python3 perfbench/rss_child.py SRC_DIR < calls.json

calls.json is a JSON list of argument vectors for `ecriesel.cli.main`.
Output is kept in memory, as the benchmark's own runs keep it.
"""

import io
import json
import resource
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from ecriesel import cli

    calls = json.load(sys.stdin)
    outputs = []
    for argv in calls:
        out = io.StringIO()
        cli.main(argv, out=out, err=io.StringIO())
        outputs.append(out.getvalue())
    # ru_maxrss is in KiB on Linux
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
