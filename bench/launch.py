"""Job launcher: spawns one job at a time and reaps it with os.wait4.

Reads one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
and answers each with one JSON line ``{"wall": s, "cpu": s, "rss_kb": kb,
"returncode": rc}``.  The benchmark keeps this process small on purpose:
Linux charges a child's ``ru_maxrss`` with the resident size of the process
that spawned it, so spawning from the benchmark itself (which holds large
checked outputs) would inflate the jobs' peak RSS.
"""

import json
import os
import signal
import sys
import time

child = 0


def _kill(*_):
    if child:
        os.kill(child, signal.SIGKILL)


def _stop(*_):
    _kill()
    raise SystemExit(1)


def main() -> None:
    global child
    signal.signal(signal.SIGALRM, _kill)
    signal.signal(signal.SIGTERM, _stop)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),  # stdin is this launcher's request pipe
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        start = time.perf_counter()
        child = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        try:
            _, status, usage = os.wait4(child, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            child = 0
        wall = time.perf_counter() - start
        print(json.dumps({
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "returncode": os.waitstatus_to_exitcode(status),
        }), flush=True)


if __name__ == "__main__":
    main()
