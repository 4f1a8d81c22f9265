"""Run ``rtdvs serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve.py --cache-dir DIR [--trace-out FILE]

Starts the real service command (ephemeral port, one in-process cell
worker, cache at ``DIR``) and prints its ready line.  With
``--trace-out`` the layer probes of :mod:`probes` are installed first
and the span sums are written to ``FILE`` when the server stops
(SIGINT).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    # A parent started in the background may pass SIGINT down ignored;
    # the benchmark stops the server with SIGINT, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.cli import main as rtdvs

    tracer = None
    if args.trace_out:
        import probes
        from spans import Tracer
        tracer = Tracer()
        probes.install(tracer)
    code = rtdvs(["serve", "--port", "0", "--workers", "1",
                  "--cache-dir", args.cache_dir])
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
