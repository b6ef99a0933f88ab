"""Closed-loop capacity of the served_acaw configuration.

Usage (from the root of a checkout)::

    python3 perfbench/capacity.py --seed 1 --seconds 30

Sets the served workspace up as a ``served_acaw`` run does, warms it,
then sends the same query/write mix back to back over the same number
of connections for ``--seconds`` and prints one JSON line with the
completed ops per second.  ``rate_per_s`` in ``spec.json`` is set to
about half of this figure, so the open-loop workload runs below
saturation and its latencies do not grow with the run length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import served_acaw

    spec = json.loads((HERE / "spec.json").read_text())["workloads"]["served_acaw"]
    state_dir = ROOT / ".perfbench_runs"
    state_dir.mkdir(exist_ok=True)
    inputs = served_acaw.make_inputs(args.seed, spec)
    servers = []
    try:
        client, _, _, _ = served_acaw.start(inputs, dict(spec, setups=1), args.seed,
                                            ROOT, state_dir, servers)
        for i in range(spec["warmup_queries"]):
            base = inputs["bases"][i % len(inputs["bases"])]
            client.query(served_acaw.perturb(base, args.seed, 2, i, spec["noise_std"]),
                         spec["k"], mode="indexed", candidates=spec["candidates"])
        # More ops than the connections can send in time; all due at once.
        ops = served_acaw.schedule(inputs, spec, args.seed, args.seconds, phase=0,
                                   rate=100.0)
        for op in ops:
            op["due"] = 0.0
        wall_s = served_acaw.open_loop(client, ops, spec, trace=False,
                                       stop_s=args.seconds)
        done = [op for op in ops if "done" in op]
        ok = [op for op in done if op["ok"]]
        print(json.dumps({
            "seed": args.seed,
            "connections": spec["connections"],
            "ops_completed": len(ok),
            "ops_failed": len(done) - len(ok),
            "wall_s": wall_s,
            "capacity_ops_per_s": len(ok) / wall_s,
            "service_p50_ms": 1000.0 * statistics.median(
                op["done"] - op["sent"] for op in ok),
            "offered_rate_per_s": spec["rate_per_s"],
        }))
        client.close()
    finally:
        for server in servers:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
