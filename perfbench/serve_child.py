"""``python -m repro.serve`` tied to the benchmark process by a lifeline pipe.

    python -m perfbench.serve_child <lifeline fd> [repro.serve arguments...]

The benchmark keeps the write end of the pipe and passes the read end.  A
thread here blocks reading it; the read returns end-of-file once the
benchmark closes its end or dies, however it dies (even by ``SIGKILL``),
and the thread then kills this process's whole group: the server and its
pool workers.  The server is started in its own session, so nothing else
shares that group.
"""

from __future__ import annotations

import os
import signal
import sys
import threading


def _watch(lifeline: int) -> None:
    while os.read(lifeline, 1):
        pass
    os.killpg(0, signal.SIGKILL)


def main(argv: list) -> int:
    threading.Thread(target=_watch, args=(int(argv[0]),), daemon=True).start()
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
