"""The benchmark's server process: ``HttpGateway`` over
``AsyncQKBflyService`` on the benchmark world.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/server.py --store DIR/kb.sqlite [--trace-out F]

It prints one JSON line ``{"port": N}`` once bound, serves until
SIGTERM or SIGINT, then closes the gateway and the service and, with
``--trace-out``, writes the recorded spans there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True, help="KB store file")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.install()

    from repro.service import AsyncQKBflyService, ServiceConfig
    from repro.service.gateway import HttpGateway
    from workloads import MAX_QUEUE_DEPTH, build_bench_world

    world = build_bench_world()
    service = AsyncQKBflyService.from_world(
        world,
        service_config=ServiceConfig(
            store_path=args.store, max_queue_depth=MAX_QUEUE_DEPTH
        ),
    )

    async def serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        gateway = HttpGateway(service, own_service=True)
        await gateway.start()
        print(json.dumps({"port": gateway.port}), flush=True)
        try:
            await stop.wait()
        finally:
            await gateway.aclose()

    asyncio.run(serve())
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
