"""Start a ``repro serve`` daemon for the benchmark, optionally traced.

Usage::

    python3 perfbench/daemon_launcher.py --socket S --state DIR \\
        --jobs N --shard-size 2 --timeout SECONDS [--spans FILE]

With ``--spans`` the daemon's layers (queue admission, shard
scheduling, ``run_fleet``, the checkpoint journal, and - through the
forked fleet workers - every campaign layer) are wrapped before
``serve()`` starts, and the collected spans are pickled to ``FILE``
once the daemon drains.  Without it this is a plain ``serve()``.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--shard-size", type=int, required=True)
    parser.add_argument("--timeout", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    from repro.service import ServiceConfig, serve

    config = ServiceConfig(socket_path=args.socket, state_dir=args.state,
                           jobs=args.jobs, shard_size=args.shard_size,
                           timeout_s=args.timeout, fsync=True)
    if not args.spans:
        return serve(config)

    import tracing

    tracer = tracing.install()
    try:
        code = serve(config)
    finally:
        tracing.uninstall()
        with open(args.spans, "wb") as fh:
            pickle.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
