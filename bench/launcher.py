"""Starts the benchmark's child processes and measures each one.

Linux keeps the peak RSS of a process's old memory image when it calls exec,
so a child spawned straight from the benchmark, which has imported reslat and
built the inputs, would report the benchmark's size as its own peak. This
launcher is a separate small interpreter (run with -S) that spawns every
child instead, so a child's ru_maxrss is its own.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": S}
and one JSON reply per line on stdout,
    {"seconds": WALL, "rss_kb": PEAK, "code": EXIT or null if killed}.
The launcher exits at end of input.
"""
import json
import os
import select
import signal
import sys
import time


def run(req):
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    finally:
        os.close(out)
        os.close(err)
    fd = os.pidfd_open(pid)
    try:
        killed = not select.select([fd], [], [], req["timeout"])[0]
        if killed:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    seconds = time.perf_counter() - start
    code = None if killed else os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_kb": usage.ru_maxrss, "code": code}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
