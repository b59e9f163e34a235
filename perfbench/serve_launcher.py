"""Run the ``repro`` CLI with the layer wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py TRACE_PATH serve [ARGS...]

Installs the same wrappers as a traced workload (``tracer.install``),
calls the CLI's ``main`` with the remaining arguments and, when it
returns, writes the spans plus the process-wide run-cache and plan-cache
counters to TRACE_PATH.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main(argv) -> int:
    path, cli_args = argv[0], argv[1:]
    t = tracer.Tracer()
    tracer.install(t)
    from repro.cli import main as cli_main
    from repro.core.plan import plan_cache_stats
    from repro.parallel.cache import default_run_cache

    try:
        return cli_main(cli_args)
    finally:
        t.dump(path, extra={
            "run_cache": default_run_cache().stats,
            "plan_compiles": plan_cache_stats()["compiles"],
        })


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
