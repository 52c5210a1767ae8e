"""Traced fleet launcher: ``repro cluster serve --port 0`` with layer wrappers.

Run by the serving workloads of a traced run::

    PYTHONPATH=src python3 perfbench/fleet.py TRACE_DIR

It installs the wrappers of :mod:`tracing` and then runs the unchanged CLI
command in this process, so the gateway and every shard it forks record
spans.  A shard writes its spans to ``TRACE_DIR/spans-<pid>.json`` when the
CLI stops it; the gateway process writes its own after the CLI returns.
Untraced runs start the CLI command directly.
"""

from __future__ import annotations

import os
import signal
import sys

from tracing import Tracer


def main(argv: list[str] | None = None) -> int:
    trace_dir = (sys.argv[1:] if argv is None else argv)[0]
    tracer = Tracer().install()
    launcher = os.getpid()

    def _dump_on_stop(_signum, _frame):
        # Inherited by the forked shards (the CLI installs its own handler in
        # the gateway process once the shards run): a shard writes its spans
        # when the fleet stops it, then unwinds through its own shutdown.
        if os.getpid() != launcher:
            tracer.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.json"),
                        "shard")
            raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _dump_on_stop)

    from repro.cli import main as cli

    code = cli(["cluster", "serve", "--port", "0"])
    tracer.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.json"),
                "gateway")
    return code


if __name__ == "__main__":
    sys.exit(main())
