"""Serve one fleet for the ``fleet_http`` workload.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/fleet_launcher.py --seed 1 [--spans out.json.gz]

It calls the public ``repro.fleet.serve_fleet`` entry point on port 0
with the multiprocess executor, so its output is ``serve_fleet``'s own:
the ``fleet API listening on ...`` line, and after SIGTERM the drain and
the ``fleet sha256: ...`` line.  Its last line is ``launcher {json}``
with this process's peak resident set.  With ``--spans`` the front's
``do_POST``, ``MultiprocessExecutor.call`` and ``FleetManager.finish``
are wrapped for the run, restored afterwards, and their spans written
to the given file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.fleet import default_registry, serve_fleet

    import tracing
    from workloads import fleet_config

    config = fleet_config(args.seed, "multiprocess")
    summary: dict[str, object] = {}
    if args.spans is None:
        serve_fleet(config, default_registry(), port=0, verbose=False,
                    executor="multiprocess")
    else:
        recorder = tracing.SpanRecorder()
        with tracing.installed(recorder, tracing.launcher_targets(),
                               schedulers=False) as saved:
            serve_fleet(config, default_registry(), port=0, verbose=False,
                        executor="multiprocess")
        summary["unrestored"] = tracing.check_restored(saved)
        tracing.write_spans(recorder.done(), args.spans)
        summary["perf_minus_monotonic"] = time.perf_counter() - time.monotonic()
    summary["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("launcher " + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
