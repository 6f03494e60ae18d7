"""Run a command to completion and print one JSON line: its wall time, the
user+sys CPU time and peak resident set of it and of every process it
waited for (from os.wait4), and its exit code.

    python3 bench/measure.py COMMAND [ARG ...]

The benchmark starts commands through this small process so that its own
memory, which a forked child starts out with, never enters the peak RSS.
"""
import json
import os
import subprocess
import sys
import time


def main() -> None:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit_code": proc.returncode,
    }))


if __name__ == "__main__":
    main()
