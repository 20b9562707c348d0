"""Launching, probing and stopping one ``repro serve`` process tree.

Every launch gets a fresh event log and store directory under the run
directory, starts in its own process group (so that nothing it starts
outlives it), and is timed from ``Popen`` to the first 200 from
``/v1/healthz`` on the public port.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: How long a launch may take before the run fails.
START_TIMEOUT = 60.0
#: How long processes get to exit after SIGTERM before SIGKILL.
STOP_TIMEOUT = 10.0

_PORT_LINE = re.compile(r"listening on [^:\s]+:(\d+)")

#: BLAS threading pinned to one thread in the server and the generator.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env(root: Path) -> Dict[str, str]:
    """The environment every launched process runs with."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


class Server:
    """One launched ``repro serve`` process and anything it starts.

    ``command`` is the interpreter argument list that ends in ``serve``;
    the plain benchmark passes ``["-m", "repro", "serve"]`` and the traced
    run passes its own launcher script.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        command: List[str],
        serve_args: List[str],
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.command = command
        self.serve_args = serve_args
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> float:
        """Launch and wait for health; returns the set-up seconds."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        out_path = self.workdir / "serve.out"
        args = [
            sys.executable,
            *self.command,
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--log",
            str(self.workdir / "events.jsonl"),
            "--store-path",
            str(self.workdir / "store"),
            *self.serve_args,
        ]
        with open(out_path, "wb") as out:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                args,
                cwd=self.root,
                env=child_env(self.root),
                stdout=out,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        deadline = started + START_TIMEOUT
        while self.port is None:
            self._check_alive(out_path)
            match = _PORT_LINE.search(out_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not report its port")
            time.sleep(0.002)
        while not self._healthy():
            self._check_alive(out_path)
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.002)
        return time.perf_counter() - started

    def _check_alive(self, out_path: Path) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}: "
                + out_path.read_text(errors="replace")[-2000:]
            )

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=5
        )
        try:
            connection.request("GET", "/v1/healthz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def pids(self) -> List[int]:
        """The server's process and every descendant of it."""
        if self.proc is None:
            return []
        table = _processes()
        tree = [self.proc.pid]
        for pid in tree:
            tree.extend(c for c, (_, ppid, _) in table.items() if ppid == pid)
        return tree

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server's processes, in MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the process group, wait, SIGKILL what is left."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        # Make sure the whole group is gone before the next launch.
        deadline = time.monotonic() + STOP_TIMEOUT
        while _group_alive(self.proc.pid):
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
            time.sleep(0.01)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _processes() -> Dict[int, Tuple[str, int, int]]:
    """pid → (state, parent pid, process group) of every process."""
    table = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The fields after the parenthesised command name start with
        # state, ppid and pgrp.
        state, ppid, pgrp = stat[stat.rfind(")") + 2 :].split()[:3]
        table[int(entry.name)] = (state, int(ppid), int(pgrp))
    return table


def _group_alive(pgid: int) -> bool:
    """Whether any live (non-zombie) process is left in group ``pgid``."""
    return any(
        pgrp == pgid and state != "Z"
        for state, _, pgrp in _processes().values()
    )
