"""Run a command and print its wall time and peak resident set size.

The peak is ``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``: the largest
resident set of any process the command started and waited for, which for
pytest is the test process itself.  Usage, from a checkout:

    python tools/measure.py -- python -m pytest -q

The command's exit status is passed on.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    command = argv[1:] if argv[:1] == ["--"] else argv
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    status = subprocess.call(command)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"wall_s {wall:.1f}  peak_rss_mib {peak_kib / 1024:.1f}  exit {status}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
