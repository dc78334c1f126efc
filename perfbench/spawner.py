"""Child-process launcher for run.py: python3 perfbench/spawner.py

Linux records a child's peak resident set size at exec time as at least
the peak of the address space it was forked from. The benchmark process
itself grows (it parses a 14 MB output document to check it), so CLI
runs it spawned directly would report its peak instead of their own.
run.py therefore starts this small process while it is still small and
has it spawn every CLI run.

Protocol: one JSON object per line on stdin, {"cmd", "cwd", "env",
"timeout_s", "stderr"}; for each, one JSON list on stdout, [exit code,
wall s, cpu s, max RSS MiB]. Wall time runs from spawn to reaped exit; a child past timeout_s is killed and
reported with exit code -9. The process exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stderr"], "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(job["cmd"], cwd=job["cwd"], env=job["env"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            killer = threading.Timer(job["timeout_s"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0]
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
