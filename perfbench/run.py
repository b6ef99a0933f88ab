"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload exact_fcfw --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs the same ops untraced and then traced, and prints
every per-layer metric.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment the run saw.
Workload constants (sizes, rates, latency limits, repeat rates) live in
``perfbench/spec.json``; spans, environment records and the served
workspaces are written under ``.perfbench_runs/`` in the checkout.  No
run reads what an earlier run left there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_fcfw", "served_acaw", "stream_monitor")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_loop_ms() -> float:
    """Median of five timings of a fixed numpy scan (host-speed probe)."""
    import numpy as np

    data = np.linspace(0.0, 1.0, 200_000)
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(10):
            np.minimum.accumulate(np.cumsum(data) - data)
        timings.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(timings)


def environment() -> dict:
    import numpy as np

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "loadavg": os.getloadavg(),
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(result: dict, spec: dict) -> dict:
    """The end-to-end figures of one untraced timed phase.

    ``op_p50_ms`` and ``ops_per_s`` are computed and recorded but carry
    no bound in ``BENCHMARK.json``: the host alternates between two CPU
    speeds for seconds to minutes at a time, so a run's median and
    closed-loop throughput follow the share of the run spent slow.  The
    p90 sits in the slow state in nearly every run and stays steady.
    """
    ops = result["ops"]
    done = [op["latency_s"] for op in ops if op["ok"]]
    if len(done) < 100:
        raise RuntimeError(
            f"only {len(done)} ops completed; the p90 needs at least 100 "
            f"(10 beyond it)"
        )
    limit = spec["latency_limit_ms"] / 1000.0
    met = sum(1 for op in ops if op["ok"] and op["latency_s"] <= limit)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "op_p50_ms": 1000.0 * percentile(done, 50),
        "op_p90_ms": 1000.0 * percentile(done, 90),
        "ops_per_s": len(done) / result["wall_s"],
        "slo_met_ratio": met / len(ops),
        "recall": result["recall"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    begun = time.perf_counter()
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((HERE / "spec.json").read_text())["workloads"][args.workload]
    state_dir = ROOT / ".perfbench_runs"
    state_dir.mkdir(exist_ok=True)

    import importlib

    module = importlib.import_module(args.workload)
    env_before = environment()
    ref_before = reference_loop_ms()
    result = module.run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        spec=spec, root=ROOT, state_dir=state_dir,
    )
    ref_after = reference_loop_ms()

    ops = result["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    figures = end_to_end(result, spec)
    if args.trace:
        wanted = benchmark["per_layer"]
        values = dict(result["layers"])
        traced_p50 = 1000.0 * percentile(result["traced_latencies_s"], 50)
        values["untraced.op_p50_ms"] = figures["op_p50_ms"]
        values["untraced.ops_per_s"] = figures["ops_per_s"]
        values["trace.op_p50_ms"] = traced_p50
        values["trace.overhead_ratio"] = traced_p50 / figures["op_p50_ms"]
        values["trace.layer_sum_ratio"] = result["layer_sum_ms"] / traced_p50
        for entry in wanted:
            # A layer (or metric) the workload never calls into reports
            # zero work; spec.json names them, so a forgotten metric still
            # fails below instead of reading as zero.
            name = entry["name"]
            if name in spec["bypasses"] or name.split(".")[0] in spec["bypasses"]:
                values.setdefault(name, 0.0)
    else:
        wanted = benchmark["end_to_end"]
        values = figures
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in wanted
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_before,
        "loadavg_after": os.getloadavg(),
        "reference_loop_ms": {"before": ref_before, "after": ref_after},
        "ops": {"attempted": len(ops), "succeeded": len(ops) - failed,
                "failed": failed},
        "end_to_end": figures,
        "notes": result.get("notes", {}),
        "run_s": time.perf_counter() - begun,
    }
    (state_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"environment": record}, default=str))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
