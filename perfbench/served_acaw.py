"""served_acaw: adaptive core & adaptive width k-NN behind HTTP, open loop.

Set-up creates a persisted ac,aw workspace over a variable-length
50words-like collection, builds its index, saves it, starts
``repro serve <dir> --shards 2 --port 0`` as its own process and waits
for ``/healthz``.  One generator process with two ``RemoteWorkspace``
connections then sends ops on a fixed schedule: 9 in 10 are indexed
queries (each a fresh seeded perturbation, so no query repeats), the
rest alternate ``add`` and ``remove`` so the live size stays constant.
Each op's latency counts from its scheduled send time.  After the timed
phase the same ops are replayed in-process against the same sharded
workspace, and every served answer must equal the replayed one.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

import numpy as np

URL_LINE = re.compile(r" on (http://\S+)")


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def varlen(values: np.ndarray, rng, length: int, spread: float) -> np.ndarray:
    from repro.utils.preprocessing import resample_linear

    target = int(round(length * rng.uniform(1.0 - spread, 1.0 + spread)))
    return resample_linear(values, max(16, target))


def make_inputs(seed: int, spec: dict) -> dict:
    from repro.datasets.synthetic import make_fiftywords_like

    # The collection and the probe set are fixed (``data_seed``); the run
    # seed draws every timed query's perturbation.
    size, writes, bases = spec["collection"], spec["write_pool"], spec["query_bases"]
    data_seed = spec["data_seed"]
    dataset = make_fiftywords_like(
        num_series=size + writes + bases, length=spec["length"], seed=data_seed
    )
    rng = np.random.default_rng(data_seed)
    shuffled = [dataset[int(i)] for i in rng.permutation(len(dataset))]
    series = [varlen(ts.values, rng, spec["length"], spec["length_spread"])
              for ts in shuffled]
    return {
        "collection": series[:size],
        "identifiers": [f"s{i:05d}" for i in range(size)],
        "labels": [ts.label for ts in shuffled[:size]],
        "write_pool": series[size:size + writes],
        "bases": series[size + writes:],
    }


def perturb(base: np.ndarray, seed: int, stream: int, index: int,
            noise: float) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, index])
    return base + rng.normal(0.0, noise, base.size)


def schedule(inputs: dict, spec: dict, seed: int, seconds: float,
             phase: int, rate: Optional[float] = None) -> List[dict]:
    """The fixed op sequence of one timed phase."""
    rate = spec["rate_per_s"] if rate is None else rate
    every = spec["write_every"]
    total = int(round(rate * seconds))
    ops, writes = [], 0
    for i in range(total):
        op = {"index": i, "due": i / rate}
        if i % every == every - 1:
            slot = writes // 2
            op["identifier"] = f"p{phase}-w{slot:04d}"
            if writes % 2 == 0:
                op["kind"] = "add"
                op["values"] = inputs["write_pool"][slot % len(inputs["write_pool"])]
            else:
                op["kind"] = "remove"
            writes += 1
        else:
            op["kind"] = "query"
            bases = inputs["bases"]
            op["values"] = perturb(bases[i % len(bases)], seed, 10 + phase, i,
                                   spec["noise_std"])
        ops.append(op)
    return ops


def workspace_config(spec: dict):
    from repro.service.config import EngineConfig, IndexConfig, WorkspaceConfig

    return WorkspaceConfig(
        engine=EngineConfig(constraint="ac,aw"),
        index=IndexConfig(
            num_codewords=spec["codewords"], num_shards=1,
            candidate_budget=spec["candidates"],
            max_delta_shards=spec["max_delta_shards"],
        ),
        default_k=spec["k"],
    )


# ---------------------------------------------------------------------- #
# Server process
# ---------------------------------------------------------------------- #
class ServerProcess:
    """``repro serve`` as a child process, stopped on :meth:`stop`."""

    def __init__(self, root, directory, spec: dict, log_path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(directory),
             "--shards", str(spec["shards"]), "--port", "0",
             "--mode", "indexed", "--k", str(spec["k"])],
            stdout=self._log, stderr=subprocess.STDOUT, cwd=str(root), env=env,
        )
        self.log_path = log_path
        self.url = None

    def wait_ready(self, timeout: float = 120.0):
        from repro.server import RemoteWorkspace

        deadline = time.perf_counter() + timeout
        while self.url is None:
            with open(self.log_path, encoding="utf-8") as handle:
                found = URL_LINE.search(handle.read())
            if found:
                self.url = found.group(1)
            elif self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"repro serve did not start; see {self.log_path}")
            else:
                time.sleep(0.01)
        client = RemoteWorkspace.connect(self.url)
        while client.health().get("status") != "ok":
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never reported healthy")
            time.sleep(0.01)
        return client

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def start(inputs: dict, spec: dict, seed: int, root, state_dir,
          servers: List[ServerProcess]) -> tuple:
    """Set the served workspace up ``spec["setups"]`` times, keep the last.

    Each set-up creates, fills, indexes and saves a workspace, starts a
    server on it and waits until it is healthy.  Every started server is
    appended to ``servers``, so the caller can stop it on any exit.
    Returns ``(client, server, directory, setup)``.
    """
    from repro.service import Workspace

    config = workspace_config(spec)
    setup = {"setup_s": [], "build_s": [], "save_s": []}
    for attempt in range(spec["setups"]):
        directory = state_dir / f"served-seed{seed}-{attempt}"
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        workspace = Workspace.create(directory, config)
        workspace.add_batch(inputs["collection"],
                            identifiers=inputs["identifiers"],
                            labels=inputs["labels"])
        mark = time.perf_counter()
        workspace.build_index()
        setup["build_s"].append(time.perf_counter() - mark)
        mark = time.perf_counter()
        workspace.close()
        setup["save_s"].append(time.perf_counter() - mark)
        server = ServerProcess(root, directory, spec,
                               state_dir / f"served-seed{seed}-{attempt}.log")
        servers.append(server)
        client = server.wait_ready()
        setup["setup_s"].append(time.perf_counter() - started)
        if attempt < spec["setups"] - 1:
            client.close()
            server.stop()
            servers.pop()
            shutil.rmtree(directory, ignore_errors=True)
    return client, servers[-1], directory, setup


# ---------------------------------------------------------------------- #
# Load generator
# ---------------------------------------------------------------------- #
def open_loop(client, ops: List[dict], spec: dict, *, trace: bool,
              stop_s: Optional[float] = None) -> float:
    """Send ``ops`` on their schedule over ``spec["connections"]`` threads.

    Each sent op gains ``sent``, ``done``, ``ok`` and (queries)
    ``result``; times are seconds from the phase start.  With ``stop_s``
    no op is sent after that time (ops left unsent have no ``done``).
    Returns the phase wall time.
    """
    lock = threading.Lock()
    cursor = iter(ops)
    k, candidates = spec["k"], spec["candidates"]
    started = time.perf_counter()

    def sender() -> None:
        while True:
            with lock:
                op = next(cursor, None)
            if op is None:
                return
            delay = op["due"] - (time.perf_counter() - started)
            if delay > 0:
                time.sleep(delay)
            op["sent"] = time.perf_counter() - started
            if stop_s is not None and op["sent"] >= stop_s:
                return
            try:
                if op["kind"] == "query":
                    result = client.query(op["values"], k, mode="indexed",
                                          candidates=candidates, trace=trace)
                    op["result"] = result
                    op["ok"] = len(result.hits) == k and not result.failed_shards
                elif op["kind"] == "add":
                    client.add(op["values"], identifier=op["identifier"])
                    op["ok"] = True
                else:
                    client.remove(op["identifier"])
                    op["ok"] = True
            except Exception as exc:  # noqa: BLE001 - a refused or broken op is a miss
                op["ok"], op["error"] = False, f"{type(exc).__name__}: {exc}"
            op["done"] = time.perf_counter() - started
            op["latency_s"] = op["done"] - op["due"]

    threads = [threading.Thread(target=sender) for _ in range(spec["connections"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return max(op["done"] for op in ops if "done" in op)


# ---------------------------------------------------------------------- #
# Answer check
# ---------------------------------------------------------------------- #
def check_answers(sharded, ops: List[dict], spec: dict) -> int:
    """Replay ``ops`` in-process in schedule order and check served answers.

    ``sharded`` is an in-process split of the same saved workspace with
    the same shard placement, so it answers every query bit-identically
    to the server as long as both have seen the same writes.  A served
    query that disagrees with the replay becomes a failed op.  Two
    connections send concurrently, so a query whose send-to-answer time
    overlaps a write's may have seen either side of that write; such
    queries are replayed but not compared.  Returns their number.
    """
    writes = [(op["sent"], op["done"]) for op in ops
              if op["kind"] != "query" and op.get("ok")]
    unchecked = 0
    for op in ops:
        if op["kind"] == "add":
            if op.get("ok"):
                sharded.add(op["values"], identifier=op["identifier"])
            continue
        if op["kind"] == "remove":
            if op.get("ok"):
                sharded.remove(op["identifier"])
            continue
        local = sharded.query(op["values"], spec["k"], mode="indexed",
                              candidates=spec["candidates"])
        if not op.get("ok"):
            continue
        if any(sent < op["done"] and op["sent"] < done for sent, done in writes):
            unchecked += 1
            continue
        served = op["result"]
        if served.ids != local.ids or served.distances != local.distances:
            op["ok"] = False
            op["error"] = f"wrong answer: {served.ids} != {local.ids}"
    return unchecked


# ---------------------------------------------------------------------- #
# Per-layer split of a traced phase
# ---------------------------------------------------------------------- #
def op_split(op: dict) -> dict:
    """One op's latency split into layers, from its wire payload.

    Shards answer in parallel, so the blocking path is the slowest
    shard.  The payload carries per-stage walls of that path
    (``generation_seconds`` and ``rerank_seconds`` are maxima over
    shards) but engine stage seconds only summed over shards, so the
    engine wall is split in the proportions of those sums.  The service
    residual can come out slightly negative when the two maxima belong
    to different shards; it is clipped at zero.
    """
    lag = op["sent"] - op["due"]
    client = op["done"] - op["sent"]
    if op["kind"] != "query" or not op.get("ok"):
        return {"loadgen": lag, "service.write": client}
    result = op["result"]
    critical = max(stage.seconds for stage in result.trace.stages
                   if stage.name.startswith("shard:"))
    stats = result.stats
    engine = result.rerank_seconds
    share = engine / stats.elapsed_seconds if stats.elapsed_seconds else 0.0
    parts = {
        "engine.bounds": stats.bound_seconds * share,
        "core.extract": stats.extract_seconds * share,
        "core.matching": stats.matching_seconds * share,
        "dtw": stats.dp_seconds * share,
    }
    return dict(parts, **{
        "loadgen": lag,
        "server.overhead": client - result.trace.total_seconds,
        "server.scatter": result.trace.total_seconds - critical,
        "service.query": max(0.0, critical - result.generation_seconds - engine),
        "indexing.query": result.generation_seconds,
        "engine.query": engine - sum(parts.values()),
    })


SPLIT_METRICS = {
    "dtw.dp_ms": "dtw",
    "engine.self_ms": "engine.query",
    "engine.bounds_ms": "engine.bounds",
    "core.extract_ms": "core.extract",
    "core.matching_ms": "core.matching",
    "indexing.generation_ms": "indexing.query",
    "service.query_self_ms": "service.query",
    "server.overhead_ms": "server.overhead",
    "server.scatter_ms": "server.scatter",
}


def shard_counters(sharded) -> dict:
    """Snapshot and cache counters summed over in-process shards."""
    totals = {"derived": 0.0, "rebuilt": 0.0, "cand_hit": 0.0, "cand_miss": 0.0,
              "post_hit": 0.0, "post_miss": 0.0}
    # ShardedWorkspace exposes no public shard list; the in-process
    # shards are plain Workspaces with their own metrics registries.
    for shard in sharded._shards:
        metrics = shard.metrics_to_dict()
        counters, gauges = metrics["counters"], metrics["gauges"]
        snapshots = counters["repro_snapshots_total"]["values"]
        totals["derived"] += snapshots.get("kind=derived", 0.0)
        totals["rebuilt"] += snapshots.get("kind=rebuilt", 0.0)
        cache = counters["repro_candidate_cache_requests_total"]["values"]
        totals["cand_hit"] += cache.get("outcome=hit", 0.0)
        totals["cand_miss"] += cache.get("outcome=miss", 0.0)
        totals["post_hit"] += gauges["repro_postings_cache_hits"]["values"].get("", 0.0)
        totals["post_miss"] += gauges["repro_postings_cache_misses"]["values"].get("", 0.0)
    return totals


def ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


def layers(traced: List[dict], setup: dict, counters: dict,
           refused: float) -> tuple:
    from tracer import central_ops

    splits = {op["index"]: op_split(op) for op in traced}
    latency = {op["index"]: op["latency_s"] for op in traced}
    band = central_ops(latency)
    metrics = {
        name: 1000.0 * sum(splits[i].get(key, 0.0) for i in band) / len(band)
        for name, key in SPLIT_METRICS.items()
    }
    layer_sum = 1000.0 * sum(sum(splits[i].values()) for i in band) / len(band)
    queries = [op for op in traced if op["kind"] == "query" and op.get("ok")]
    writes = [op for op in traced if op["kind"] != "query"]
    after_write = [
        op for prev, op in zip(traced, traced[1:])
        if prev["kind"] != "query" and op["kind"] == "query" and op.get("ok")
    ]
    stats = [op["result"].stats for op in queries]
    cells = sum(s.cells_filled for s in stats)
    refined = sum(s.dtw_computed + s.dtw_abandoned for s in stats)
    lags = [op["sent"] - op["due"] for op in traced]
    metrics.update({
        "dtw.cells_per_op": cells / len(stats),
        "dtw.cells_per_s": cells / sum(s.dp_seconds for s in stats),
        "engine.prune_rate": sum(s.pruned for s in stats) / sum(s.candidates for s in stats),
        "engine.cell_fraction": cells / sum(s.total_cells for s in stats),
        "engine.abandon_ratio": sum(s.dtw_abandoned for s in stats) / refined,
        "indexing.candidates_per_query": float(np.mean(
            [op["result"].candidates_generated for op in queries])),
        "indexing.candidate_cache_hit_ratio": ratio(counters["cand_hit"],
                                                    counters["cand_miss"]),
        "indexing.postings_cache_hit_ratio": ratio(counters["post_hit"],
                                                   counters["post_miss"]),
        "indexing.build_s": float(np.median(setup["build_s"])),
        "service.write_ms": 1000.0 * float(np.mean(
            [op["done"] - op["sent"] for op in writes])),
        "service.first_read_after_write_ms": 1000.0 * float(np.mean(
            [op["done"] - op["sent"] for op in after_write])),
        "service.snapshots_derived": counters["derived"],
        "service.snapshots_rebuilt": counters["rebuilt"],
        "service.save_open_s": float(np.median(setup["save_s"])) + setup["open_s"],
        "server.rejected": refused,
        "loadgen.lag_p90_ms": 1000.0 * float(np.percentile(lags, 90)),
    })
    return metrics, layer_sum


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #
def run(*, seed: int, seconds: float, trace: bool, spec: dict, root,
        state_dir) -> dict:
    from repro.server import split_workspace
    from repro.service import Workspace

    inputs = make_inputs(seed, spec)
    servers: List[ServerProcess] = []
    try:
        client, server, directory, setup = start(inputs, spec, seed, root,
                                                 state_dir, servers)

        # Quality, outside set-up and the timed phase: served probe answers
        # must equal the in-process sharded answers; recall@k is measured
        # against exact ac,aw answers.
        mark = time.perf_counter()
        reference = Workspace.open(directory)
        setup["open_s"] = time.perf_counter() - mark
        sharded = split_workspace(reference, spec["shards"])
        k, candidates = spec["k"], spec["candidates"]
        phases = {"probes_s": -time.perf_counter()}
        recalls, identical = [], True
        for i in range(spec["probes"]):
            base = inputs["bases"][i % len(inputs["bases"])]
            probe = perturb(base, spec["data_seed"], 1, i, spec["noise_std"])
            served = client.query(probe, k, mode="indexed", candidates=candidates)
            local = sharded.query(probe, k, mode="indexed", candidates=candidates)
            exact = reference.query(probe, k, mode="exact")
            identical = identical and (served.ids == local.ids
                                       and served.distances == local.distances)
            recalls.append(len(set(served.ids) & set(exact.ids)) / k)

        for i in range(spec["warmup_queries"]):
            base = inputs["bases"][i % len(inputs["bases"])]
            client.query(perturb(base, seed, 2, i, spec["noise_std"]), k,
                         mode="indexed", candidates=candidates)

        phases["probes_s"] += time.perf_counter()
        ops = schedule(inputs, spec, seed, seconds, phase=0)
        wall_s = open_loop(client, ops, spec, trace=False)
        rss = server.peak_rss_mb()
        phases["replay_s"] = -time.perf_counter()
        unchecked = check_answers(sharded, ops, spec)
        phases["replay_s"] += time.perf_counter()
        result = {
            "setup_s": setup["setup_s"],
            "ops": ops,
            "wall_s": wall_s,
            "recall": float(np.mean(recalls)),
            "peak_rss_mb": rss,
        }
        if trace:
            refused_before = client.stats()["server"]["refused_total"]
            traced = schedule(inputs, spec, seed, seconds, phase=1)
            open_loop(client, traced, spec, trace=True)
            refused = client.stats()["server"]["refused_total"] - refused_before
            before = shard_counters(sharded)
            unchecked += check_answers(sharded, traced, spec)
            after = shard_counters(sharded)
            # Postings-cache counts are per index shard and restart when a
            # compaction swaps shards in, so they are read as they stand.
            counters = {key: after[key] - before[key] for key in after}
            counters.update(post_hit=after["post_hit"], post_miss=after["post_miss"])
            metrics, layer_sum = layers(traced, setup, counters, refused)
            result.update({
                "layers": metrics,
                "layer_sum_ms": layer_sum,
                "traced_latencies_s": [op["latency_s"] for op in traced if op["ok"]],
            })
        failures = [op["error"] for op in ops if not op["ok"] and "error" in op]
        result["correct"] = identical and bool(recalls)
        result["notes"] = {
            "rate_per_s": spec["rate_per_s"],
            "repeat_rate": spec["repeat_rate"],
            "ops_scheduled": len(ops),
            "writes": sum(1 for op in ops if op["kind"] != "query"),
            "probe_answers_identical": identical,
            "queries_overlapping_a_write": unchecked,
            "setup_runs_s": setup["setup_s"],
            "phases_s": phases,
            "lag_p90_ms": 1000.0 * float(np.percentile(
                [op["sent"] - op["due"] for op in ops], 90)),
            "failures": failures[:5],
        }
        client.close()
        sharded.close()
        reference.close()
        return result
    finally:
        for server in servers:
            server.stop()
