"""``python -m repro.server`` — serve an engine over the wire protocol.

SIGTERM (and SIGINT) trigger a drain shutdown: the listener closes, in-flight
statements finish, open transactions roll back, and the engine checkpoints
before the process exits.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from ..engine.database import InstantDB
from .server import InstantDBServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve an InstantDB engine over the binary wire protocol.")
    parser.add_argument("--data-dir", default=None,
                        help="durable data directory (in-memory when omitted)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="seconds before an idle session is reaped")
    return parser


async def serve(engine: InstantDB, args: argparse.Namespace) -> None:
    server = InstantDBServer(
        engine, args.host, args.port, max_sessions=args.max_sessions,
        idle_timeout=args.idle_timeout, owns_engine=True)
    await server.start()
    host, port = server.address
    print(f"instantdb server listening on {host}:{port}", flush=True)
    loop = asyncio.get_event_loop()
    stop_requested = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop_requested.set)
    await stop_requested.wait()
    print("instantdb server draining...", flush=True)
    await server.stop(drain=True)
    print("instantdb server stopped", flush=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Built before the event loop exists; once served it is pinned to the
    # server's event-loop thread (see docs/invariants.md).
    engine = InstantDB(args.data_dir) if args.data_dir else InstantDB()
    asyncio.run(serve(engine, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
