"""``python -m repro serve`` — the explanation-serving front door.

Starts the HTTP server immediately (binding the port so clients can
connect), then loads the snapshot in the background via the
:class:`~repro.serve.watcher.SnapshotWatcher`: endpoints answer ``503``
until the first load completes, and every later change to the directory's
``LATEST`` pointer hot-swaps the serving state without dropping requests.

Usage::

    python -m repro serve --snapshot-dir results/checkpoints/cora-gcn-seed0
    curl localhost:8080/explain/17

See docs/SERVING.md for the endpoint contracts and hot-reload semantics.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--snapshot-dir", required=True,
                        help="directory of training snapshots (watched for "
                             "LATEST-pointer changes)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="explanation LRU capacity (entries)")
    parser.add_argument("--explain-top-k", type=int, default=16,
                        help="features/neighbors returned per explanation")
    parser.add_argument("--poll-interval", type=float, default=1.0,
                        help="seconds between LATEST-pointer polls")
    parser.add_argument("--precompute", action="store_true",
                        help="warm the explanation cache after each (re)load")
    parser.add_argument("--drain-timeout", type=float, default=5.0,
                        metavar="SEC",
                        help="seconds to wait for in-flight requests on "
                             "SIGTERM/SIGINT before abandoning them")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    # Imports after arg parsing so `--help` stays instant.
    from .server import create_server
    from .state import load_serving_state
    from .watcher import SnapshotWatcher, StateHolder

    snapshot_dir = Path(args.snapshot_dir)
    if not snapshot_dir.is_dir():
        print(f"error: --snapshot-dir {snapshot_dir} is not a directory",
              file=sys.stderr)
        return 2

    def loader(token: str):
        state = load_serving_state(
            snapshot_dir,
            cache_size=args.cache_size,
            explain_top_k=args.explain_top_k,
            source_token=token,
        )
        if args.precompute:
            warmed = state.store.warm(range(state.num_nodes))
            print(f"[serve] warmed {warmed} explanation(s) for "
                  f"{state.snapshot_name}", file=sys.stderr)
        return state

    holder = StateHolder()
    server = create_server(holder, host=args.host, port=args.port,
                           quiet=not args.verbose)
    watcher = SnapshotWatcher(holder, snapshot_dir, loader,
                              interval=args.poll_interval)
    print(f"[serve] listening on {server.url} "
          f"(snapshots: {snapshot_dir}; loading in background)",
          file=sys.stderr)

    # SIGTERM/SIGINT start a graceful drain: stop accepting work, finish
    # in-flight requests, stop the watcher, flush a final metrics line.
    # server.shutdown() blocks until serve_forever exits, and the handler
    # runs *inside* the serve_forever thread — hence the helper thread.
    def request_shutdown(signum, frame):  # noqa: ARG001 - signal contract
        name = signal.Signals(signum).name
        print(f"[serve] {name} received; draining", file=sys.stderr)
        threading.Thread(
            target=server.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    previous = {
        sig: signal.signal(sig, request_shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    watcher.start()
    try:
        server.serve_forever()
        if not server.drain(timeout=args.drain_timeout):
            print(f"[serve] drain timed out after {args.drain_timeout:.1f}s; "
                  f"{server.inflight} request(s) abandoned", file=sys.stderr)
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        watcher.stop()
        server.server_close()
        # Final metrics flush: the last word a scraper would have missed.
        family = server.registry.snapshot().get("repro_serve_requests_total") or {}
        served = sum(series["value"] for series in family.get("series", ()))
        print(f"[serve] stopped; served {int(served)} request(s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
