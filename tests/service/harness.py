"""Shared helpers for exercising the campaign daemon as a subprocess.

Every test that needs a *real* daemon - separate process, real unix
socket, killable - goes through :func:`start_daemon`, so the chaos
suite and the service suite drive the exact binary entry point
(``repro.service.serve``) a production ``repro serve`` uses.  Faults
are armed inside the daemon process by ``tests.chaos.harness``; the
daemon itself has no way to ask for them.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

from repro.runtime.resilience import signature_json
from repro.service import client

ROOT = pathlib.Path(__file__).parents[2]

DAEMON_CHILD = """\
import contextlib, json, sys
from repro.service import ServiceConfig, serve
config, faults = (json.loads(arg) for arg in sys.argv[1:3])
armed = contextlib.nullcontext()
if faults:
    from tests.chaos.harness import daemon_faults
    armed = daemon_faults(faults)
with armed:
    sys.exit(serve(ServiceConfig(**config)))
"""


def start_daemon(socket_path, state_dir, wait=True, faults=None,
                 **overrides):
    """Launch a daemon subprocess; by default block until it pings.

    ``faults`` arms :func:`tests.chaos.harness.daemon_faults` in the
    daemon before it serves.
    """
    config = {"socket_path": str(socket_path),
              "state_dir": str(state_dir)}
    config.update(overrides)
    proc = subprocess.Popen(
        [sys.executable, "-c", DAEMON_CHILD, json.dumps(config),
         json.dumps(faults or {})],
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}",
             "PATH": "/usr/bin:/bin"},
        start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if wait:
        try:
            client.wait_for_service(str(socket_path), timeout=60.0)
        except Exception:
            kill_daemon(proc)
            raise
    return proc


def kill_daemon(proc):
    """SIGKILL the daemon's process group and reap the daemon.

    The group also holds any fleet workers a crashed daemon left
    orphaned, which would otherwise block on their call queue forever.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def stop_daemon(proc, socket_path=None, timeout=60.0):
    """Drain (when reachable) and reap; kill as a last resort."""
    try:
        if socket_path is not None and proc.poll() is None:
            try:
                client.drain(str(socket_path), timeout=timeout)
            except (OSError, client.ServiceError):
                pass
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            kill_daemon(proc)


def signature_map(fleet):
    """label -> JSON-normalised signature, for comparing against the
    service's streamed result records."""
    return {outcome.signature()[0]: signature_json(outcome.signature())
            for outcome in fleet.outcomes}


def result_signature_map(results):
    """The same shape from ``client.wait_results`` records."""
    assert all("signature" in record for record in results), results
    return {record["label"]: record["signature"]
            for record in results}
