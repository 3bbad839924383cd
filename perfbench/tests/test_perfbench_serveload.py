"""A live benchmark server leaves no process behind, however it is stopped."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from perfbench.serveload import ServerProcess

ROOT = Path(__file__).resolve().parents[2]


def _gone(pids):
    return not any(Path(f"/proc/{pid}").exists() for pid in pids)


def test_stop_reaps_the_server_and_its_pool_worker(tmp_path):
    with ServerProcess(ROOT, tmp_path / "spool") as server:
        server.start()
        server.start_pool()
        pids = server.pids()
        assert len(pids) == 2  # the server and its one pool worker
    assert _gone(pids)


def test_closing_the_lifeline_kills_the_server_group(tmp_path):
    server = ServerProcess(ROOT, tmp_path / "spool")
    try:
        server.start()
        server.start_pool()
        pids = server.pids()
        # What the benchmark process's death does: its end of the pipe closes.
        os.close(server._lifeline)
        server._lifeline = os.open(os.devnull, os.O_RDONLY)
        assert server.process.wait(timeout=30) == -signal.SIGKILL
    finally:
        server.stop()
    assert _gone(pids)


#: A process that starts a server, then does what a signal handler does in
#: the middle of a run: neither stops the server nor forgets it, but calls
#: ``stop_descendants``.  It prints the server's pids and what is left.
ABANDON_SERVER = """
import json, os, sys
from pathlib import Path
from perfbench.serveload import ServerProcess, descendants, stop_descendants
server = ServerProcess(Path(sys.argv[1]), Path(sys.argv[2]))
server.start()
server.start_pool()
pids = server.pids()
stop_descendants()
print(json.dumps({"pids": pids, "left": descendants(os.getpid())}))
"""


def test_stop_descendants_leaves_no_process(tmp_path):
    output = subprocess.run(
        [sys.executable, "-c", ABANDON_SERVER, str(ROOT), str(tmp_path / "spool")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}"),
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    result = json.loads(output.splitlines()[-1])
    assert len(result["pids"]) == 2  # the server and its one pool worker
    assert result["left"] == []
    assert _gone(result["pids"])
