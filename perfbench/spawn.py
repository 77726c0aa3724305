"""Lean process launcher for the benchmark (standard library only).

On Linux a child's ru_maxrss starts from the resident size of the
process that forked it. The benchmark process holds numpy and the
generated inputs, so it starts its subcommands through this small
process instead, and the ru_maxrss that os.wait4 returns here is the
subcommand's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": "...", "env": {...}, "stderr": "path"}``, and
one JSON reply per line on stdout, ``{"wall": s, "maxrss_kb": n, "code": n}``.
The launcher exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
