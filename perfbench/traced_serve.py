#!/usr/bin/env python3
"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py <spans-dir> serve [flags…]``.

Installs :func:`perfbench.tracing.install` and a SIGTERM handler that
writes the process's spans to ``<spans-dir>/spans.<pid>.json``, then
hands the remaining arguments to :func:`repro.cli.main`.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Recorder, install  # noqa: E402


def main() -> int:
    spans_dir = Path(sys.argv[1])
    recorder = Recorder()
    install(recorder)

    def write_and_exit(signum: int, frame: object) -> None:
        recorder.dump(spans_dir)
        os._exit(0)

    signal.signal(signal.SIGTERM, write_and_exit)
    from repro.cli import main as repro_main

    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
