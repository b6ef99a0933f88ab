"""exact_fcfw: in-process exact k-NN under fixed core & fixed width bands.

One caller, closed loop.  Each op is ``Workspace.query(q, k, mode="exact")``
over an equal-length gun-like collection on the default serial backend.
Queries are held-out series plus seeded noise, replayed in full passes,
so every replay of a pool item must do exactly the same work: each timed
or traced op is checked against the item's warm-up counts and answer,
and so is a second, freshly built workspace.
"""

from __future__ import annotations

import time

import numpy as np

from common import closed_loop, layer_times, peak_rss_mb
from tracer import SpanRecorder


def make_inputs(seed: int, spec: dict):
    from repro.datasets.synthetic import make_gun_like

    # The collection and the held-out pool are fixed (``data_seed``); the
    # run seed draws the query noise.  Drawing the collection per seed
    # would move every timing with the data, not with the program.
    size, pool, length = spec["collection"], spec["query_pool"], spec["length"]
    data_seed = spec["data_seed"]
    dataset = make_gun_like(num_series=size + pool, length=length, seed=data_seed)
    order = np.random.default_rng(data_seed).permutation(len(dataset))
    series = [dataset[int(i)] for i in order]
    collection = series[:size]
    rng = np.random.default_rng(seed)
    queries = [
        ts.values + rng.normal(0.0, spec["noise_std"], ts.values.size)
        for ts in series[size:]
    ]
    return collection, queries


def build(collection, config):
    from repro.service import Workspace

    workspace = Workspace.in_memory(config)
    workspace.add_batch(
        [ts.values for ts in collection],
        identifiers=[ts.identifier for ts in collection],
        labels=[ts.label for ts in collection],
    )
    workspace.engine  # builds the serving snapshot: the first op is ready
    return workspace


def signature(result) -> list:
    """The counts and answer an op must reproduce exactly."""
    stats = result.stats
    return [
        stats.candidates, stats.lb_kim_computed, stats.lb_keogh_computed,
        stats.pruned_lb_kim, stats.pruned_lb_keogh, stats.dtw_abandoned,
        stats.dtw_computed, stats.cells_filled, stats.total_cells,
        list(result.ids), [float(d) for d in result.distances],
    ]


def run(*, seed: int, seconds: float, trace: bool, spec: dict, root,
        state_dir) -> dict:
    from repro.service.config import EngineConfig, WorkspaceConfig

    collection, queries = make_inputs(seed, spec)
    k = spec["k"]
    config = WorkspaceConfig(engine=EngineConfig(constraint="fc,fw"))

    def timed_setups() -> tuple:
        times = []
        for _ in range(spec["setups"]):
            started = time.perf_counter()
            built = build(collection, config)
            times.append(time.perf_counter() - started)
        return times, built

    setup_s, workspace = timed_setups()

    def op(index: int):
        return workspace.query(queries[index % len(queries)], k, mode="exact")

    # Warm-up pass: fills caches and fixes each pool item's signature.
    expected = [signature(op(i)) for i in range(len(queries))]
    mismatches = []

    def verify(ops) -> None:
        for entry in ops:
            if entry["ok"]:
                item = entry["index"] % len(queries)
                if signature(entry["value"]) != expected[item]:
                    mismatches.append(item)
                    entry["ok"] = False

    ops, wall_s = closed_loop(op, seconds)
    verify(ops)
    # Set-up is timed again after the timed phase: host speed drifts over
    # tens of seconds, and one burst of set-ups would sample one state.
    more_setups, fresh = timed_setups()
    setup_s += more_setups
    # Exact repeat on a second instance: a freshly built workspace must
    # reproduce the first pool items' counts and answers.
    for item in range(spec["probes"]):
        if signature(fresh.query(queries[item], k, mode="exact")) != expected[item]:
            mismatches.append(item)

    result = {
        "setup_s": setup_s,
        "ops": ops,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        recorder = SpanRecorder()
        with recorder:
            traced, _ = closed_loop(op, seconds, recorder=recorder)
        verify(traced)
        recorder.write(str(state_dir / f"spans-exact_fcfw-seed{seed}.jsonl"))
        layers, layer_sum = layer_times(recorder)
        stats = [entry["value"].stats for entry in traced if entry["ok"]]
        cells = sum(s.cells_filled for s in stats)
        candidates = sum(s.candidates for s in stats)
        refined = sum(s.dtw_computed + s.dtw_abandoned for s in stats)
        dp_seconds = sum(
            (end - start) for _, _, _, name, start, end in recorder.spans
            if name.startswith("dtw.")
        )
        layers.update({
            "dtw.cells_per_op": cells / len(stats),
            "dtw.cells_per_s": cells / dp_seconds,
            "engine.prune_rate": sum(s.pruned for s in stats) / candidates,
            "engine.cell_fraction": cells / sum(s.total_cells for s in stats),
            "engine.abandon_ratio": (
                sum(s.dtw_abandoned for s in stats) / refined if refined else 0.0
            ),
        })
        result.update({
            "layers": layers,
            "layer_sum_ms": layer_sum,
            "traced_latencies_s": [e["latency_s"] for e in traced if e["ok"]],
        })

    # Quality: overlap with a no-pruning reference scan on a probe subset.
    reference = build(collection, WorkspaceConfig(engine=EngineConfig(
        constraint="fc,fw", prune=False, early_abandon=False,
    )))
    overlap, exact = [], True
    for item in range(spec["probes"]):
        truth = reference.query(queries[item], k, mode="exact")
        got = expected[item]
        overlap.append(len(set(got[9]) & set(truth.ids)) / k)
        exact = exact and np.allclose(got[10], truth.distances, rtol=1e-12)
    # A third burst of set-ups, seconds after the second.
    setup_s += timed_setups()[0]
    result["recall"] = float(np.mean(overlap))
    result["correct"] = exact and not mismatches
    result["notes"] = {
        "pool_size": len(queries),
        "ops_timed": len(ops),
        "signature_mismatches": mismatches[:10],
        "repeat_rate": spec["repeat_rate"],
    }
    return result
