"""Command-line interface.

Two entry points are installed:

* ``repro-sdtw`` (or ``python -m repro``) with sub-commands:

  - ``workspace init | add | query | stats | compact`` — the service
    front door: create a persistent :class:`~repro.service.Workspace`,
    add data-set series to it (optionally building the inverted index),
    answer k-NN queries in ``auto`` / ``exact`` / ``indexed`` mode,
    inspect the workspace state, and fold the index's delta shards and
    tombstones into its base shards.
  - ``workspace doctor | profile | flight-record`` — the diagnostics
    surfaces: run the invariant checker (exit 1 on any FAIL), record a
    sampling-profiler window over replayed queries, or dump the flight
    record (recent events + traces + metrics + config) as JSON.
  - ``serve`` — expose a workspace over HTTP/JSON (``/query``, ``/add``,
    ``/remove``, ``/stats``, ``/healthz``, ``/metrics``), optionally
    hash-partitioned across in-process shards with scatter-gather
    merge.  Speaks the same versioned query-result wire schema as
    ``workspace query --format json`` (see ``docs/API.md``).
  - ``version`` (also ``--version``) — package version plus the
    on-disk workspace / index / feature-store format versions.
  - ``experiment <id>`` — run one of the table/figure reproductions and
    print the resulting table (optionally also write CSV).
  - ``distance <dataset> <i> <j>`` — compute the distance between two
    series of a registered data set under one or more constraints.
  - ``engine <dataset>`` — run a batch k-NN retrieval through the cascaded
    distance engine (served through an in-memory Workspace) and print the
    per-stage pruning / time breakdown.
  - ``stream`` — generate a synthetic stream with embedded pattern
    occurrences and monitor it online through the streaming subsystem
    (SPRING subsequence matching or cascaded sliding windows), reporting
    matches against ground truth plus per-pattern pruning statistics.
  - ``datasets`` — list the registered data sets.

Error handling: every intentional library failure derives from
:class:`~repro.exceptions.ReproError` and is reported as a one-line
``error: ...`` message with exit code 2; operating-system failures
(unwritable output paths, missing files) exit 3 the same way.  Tracebacks
only escape for genuine bugs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.sdtw import SDTW
from .core.config import SDTWConfig
from .datasets.registry import available_datasets, load_dataset
from .engine.backends import BACKENDS
from .exceptions import ExperimentError, ReproError


def _version_string() -> str:
    """Package version plus every on-disk format version a release pins."""
    from . import __version__
    from .analysis import CHECKER_SET_VERSION as checker_set
    from .indexing.store import FORMAT_VERSION as index_format
    from .retrieval.feature_store import STORE_FORMAT_VERSION as store_format
    from .service.workspace import FORMAT_VERSION as workspace_format

    return (
        f"repro-sdtw {__version__} "
        f"(workspace format v{workspace_format}, "
        f"index format v{index_format}, "
        f"feature-store format v{store_format}, "
        f"analysis checker set v{checker_set})"
    )


def _query_flags_parent(
    *,
    default_mode: str = "auto",
    default_k: Optional[int] = 5,
) -> argparse.ArgumentParser:
    """The query flags shared verbatim by ``serve``, ``workspace query``
    and ``engine``.

    One parent parser is the single spelling of ``--mode``/``--k``/
    ``--trace`` — same names, choices and help text everywhere, so the
    three front doors to the query contract cannot drift apart.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--mode", default=default_mode,
        choices=["auto", "exact", "indexed"],
        help="query mode: auto picks indexed when a fresh index exists, "
             "exact scans every stored series (default: %(default)s)")
    parent.add_argument(
        "--k", type=int, default=default_k,
        help="neighbours per query (default: "
             + ("the workspace's configured default"
                if default_k is None else "%(default)s") + ")")
    parent.add_argument(
        "--trace", action="store_true",
        help="attach the per-stage telemetry trace to each query")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sdtw",
        description="sDTW reproduction (Candan et al., VLDB 2012): "
                    "experiments and distance computations.",
    )
    parser.add_argument("--version", action="version",
                        version=_version_string())
    subparsers = parser.add_subparsers(dest="command")

    exp = subparsers.add_parser("experiment", help="run a table/figure reproduction")
    exp.add_argument("experiment_id",
                     help="one of: table1, table2, fig13, fig14, fig15, fig16, "
                          "fig17, fig18")
    exp.add_argument("--num-series", type=int, default=None,
                     help="series sampled per data set (default: experiment-specific)")
    exp.add_argument("--seed", type=int, default=7, help="generation/sampling seed")
    exp.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the rows to a CSV file")

    dist = subparsers.add_parser("distance",
                                 help="compute the distance between two series")
    dist.add_argument("dataset", help="registered data-set name or UCR file path")
    dist.add_argument("first", type=int, help="index of the first series")
    dist.add_argument("second", type=int, help="index of the second series")
    dist.add_argument("--constraint", action="append", default=None,
                      help="constraint label (repeatable); defaults to all")
    dist.add_argument("--seed", type=int, default=7, help="generation seed")

    eng = subparsers.add_parser(
        "engine",
        parents=[_query_flags_parent(default_mode="exact")],
        help="batch k-NN retrieval through the cascaded distance engine")
    eng.add_argument("dataset", help="registered data-set name or UCR file path")
    eng.add_argument("--constraint", default="fc,fw",
                     help="refinement constraint: full, fc,fw, itakura, "
                          "fc,aw, ac,fw, ac,aw, ac2,aw (default: fc,fw)")
    eng.add_argument("--backend", default="serial",
                     choices=BACKENDS,
                     help="execution backend (default: serial)")
    eng.add_argument("--workers", type=int, default=None,
                     help="worker processes for the multiprocessing backend")
    eng.add_argument("--num-queries", type=int, default=5,
                     help="how many stored series to replay as queries")
    eng.add_argument("--num-series", type=int, default=None,
                     help="subsample the collection to this many series")
    eng.add_argument("--no-cascade", action="store_true",
                     help="disable the LB_Kim/LB_Keogh pruning stages")
    eng.add_argument("--no-abandon", action="store_true",
                     help="disable early-abandoning refinement")
    eng.add_argument("--seed", type=int, default=7, help="generation/sampling seed")

    stream = subparsers.add_parser(
        "stream",
        help="online pattern monitoring over a synthetic stream")
    stream.add_argument("--length", type=int, default=4000,
                        help="stream length in samples (default: 4000)")
    stream.add_argument("--patterns", type=int, default=2,
                        help="number of registered query patterns (default: 2)")
    stream.add_argument("--pattern-length", type=int, default=96,
                        help="query pattern length (default: 96)")
    stream.add_argument("--occurrences", type=int, default=3,
                        help="embedded occurrences per pattern (default: 3)")
    stream.add_argument("--mode", default="sliding",
                        choices=["spring", "sliding"],
                        help="matching mode (default: sliding)")
    stream.add_argument("--constraint", default="fc,fw",
                        help="sliding-mode constraint: full, fc,fw, itakura, "
                             "fc,aw, ac,fw, ac,aw, ac2,aw (default: fc,fw)")
    stream.add_argument("--threshold", type=float, default=None,
                        help="match threshold (default: auto-calibrated from "
                             "the embedded occurrences)")
    stream.add_argument("--no-cascade", action="store_true",
                        help="disable the LB_Kim/LB_Keogh pruning stages")
    stream.add_argument("--no-abandon", action="store_true",
                        help="disable early-abandoning refinement")
    stream.add_argument("--seed", type=int, default=7, help="generation seed")

    workspace = subparsers.add_parser(
        "workspace",
        help="persistent Workspace service (init / add / query / stats)")
    ws_sub = workspace.add_subparsers(dest="workspace_command")

    ws_init = ws_sub.add_parser(
        "init", help="create a new workspace directory")
    ws_init.add_argument("workspace_dir", help="directory to create")
    ws_init.add_argument("--constraint", default="fc,fw",
                         help="engine constraint: full, fc,fw, itakura, "
                              "fc,aw, ac,fw, ac,aw, ac2,aw (default: fc,fw)")
    ws_init.add_argument("--backend", default="serial",
                         choices=BACKENDS,
                         help="execution backend (default: serial)")
    ws_init.add_argument("--codewords", type=int, default=256,
                         help="index codebook size (default: 256)")
    ws_init.add_argument("--shards", type=int, default=4,
                         help="index postings shards (default: 4)")
    ws_init.add_argument("--candidates", type=int, default=100,
                         help="indexed-query candidate budget (default: 100)")
    ws_init.add_argument("--slow-query-threshold", type=float, default=None,
                         metavar="SECONDS",
                         help="log a slow_query event with the full trace "
                              "of queries at least this slow to events.jsonl "
                              "(0 captures every query; default: disabled)")

    ws_add = ws_sub.add_parser(
        "add", help="add a data set's series to a workspace")
    ws_add.add_argument("workspace_dir", help="workspace written by 'workspace init'")
    ws_add.add_argument("dataset", help="registered data-set name or UCR file path")
    ws_add.add_argument("--num-series", type=int, default=None,
                        help="subsample the data set to this many series")
    ws_add.add_argument("--seed", type=int, default=7,
                        help="generation/sampling seed")
    ws_add.add_argument("--build-index", action="store_true",
                        help="(re)build the inverted index after adding")

    ws_query = ws_sub.add_parser(
        "query", parents=[_query_flags_parent()],
        help="answer k-NN queries against a workspace")
    ws_query.add_argument("workspace_dir", help="workspace written by 'workspace init'")
    ws_query.add_argument("--candidates", type=int, default=None,
                          help="candidate budget override (indexed mode)")
    ws_query.add_argument("--num-queries", type=int, default=5,
                          help="how many stored series to replay as queries")
    ws_query.add_argument("--format", default="table",
                          choices=["table", "json"], dest="output_format",
                          help="result format: a table, or one query-result "
                               "wire payload per line — exactly the schema "
                               "'repro serve' answers /query with (see "
                               "docs/API.md; default: table)")
    ws_query.add_argument("--profile", action="store_true",
                          help="sample this thread's stacks while the "
                               "queries run and print the hottest frames")

    ws_stats = ws_sub.add_parser(
        "stats", help="print a workspace's state summary (or its metrics)")
    ws_stats.add_argument("workspace_dir", help="workspace written by 'workspace init'")
    ws_stats.add_argument("--metrics", action="store_true",
                          help="export the telemetry metrics registry instead "
                               "of the state summary")
    ws_stats.add_argument("--format", default="json", choices=["json", "prom"],
                          help="metrics export format: structured JSON or "
                               "Prometheus text exposition (default: json)")
    ws_stats.add_argument("--probe", type=int, default=0, metavar="N",
                          help="replay up to N stored series as queries first "
                               "so latency histograms are populated "
                               "(default: 0)")

    ws_compact = ws_sub.add_parser(
        "compact",
        help="fold the index's delta shards and tombstones into its base "
             "shards (bit-identical to a from-scratch postings rebuild)")
    ws_compact.add_argument("workspace_dir",
                            help="workspace written by 'workspace init'")

    ws_doctor = ws_sub.add_parser(
        "doctor",
        help="check workspace invariants (manifest, index accounting, "
             "logs) and report OK / WARN / FAIL per check")
    ws_doctor.add_argument("workspace_dir",
                           help="workspace written by 'workspace init'")
    ws_doctor.add_argument("--no-probe", action="store_true",
                           help="skip the active probes (live query and "
                                "telemetry-overhead measurement)")
    ws_doctor.add_argument("--json", action="store_true",
                           help="emit the report as JSON instead of a table")

    ws_profile = ws_sub.add_parser(
        "profile",
        help="replay stored series as queries under the sampling profiler "
             "and print the hottest stacks")
    ws_profile.add_argument("workspace_dir",
                            help="workspace written by 'workspace init'")
    ws_profile.add_argument("--num-queries", type=int, default=5,
                            help="stored series replayed as queries "
                                 "(default: 5)")
    ws_profile.add_argument("--repeat", type=int, default=1,
                            help="replay passes over those queries "
                                 "(default: 1)")
    ws_profile.add_argument("--mode", default="auto",
                            choices=["auto", "exact", "indexed"],
                            help="query mode (default: auto)")
    ws_profile.add_argument("--interval", type=float, default=0.005,
                            metavar="SECONDS",
                            help="sampling interval (default: 0.005)")
    ws_profile.add_argument("--top", type=int, default=15,
                            help="hottest frames printed (default: 15)")
    ws_profile.add_argument("--output", metavar="PATH", default=None,
                            help="also write the collapsed stacks "
                                 "(flame-graph input) to this file")

    ws_flight = ws_sub.add_parser(
        "flight-record",
        help="dump the flight record (recent events, traces, slow queries, "
             "metrics, config) as one JSON blob")
    ws_flight.add_argument("workspace_dir",
                           help="workspace written by 'workspace init'")
    ws_flight.add_argument("--events", type=int, default=200,
                           help="recent events included (default: 200)")
    ws_flight.add_argument("--output", metavar="PATH", default=None,
                           help="write the record to this file instead of "
                                "stdout")

    serve = subparsers.add_parser(
        "serve",
        parents=[_query_flags_parent(default_k=None)],
        help="serve a workspace over HTTP/JSON (query / add / remove / "
             "stats / healthz / metrics)")
    serve.add_argument("workspace_dir",
                       help="workspace written by 'workspace init'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: %(default)s)")
    serve.add_argument("--shards", type=int, default=1,
                       help="hash-partition the workspace across this many "
                            "in-process shards and answer queries by "
                            "scatter-gather merge; shard contents live in "
                            "memory, so /add and /remove do not persist to "
                            "the workspace directory (default: %(default)s)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="workspace calls executing concurrently "
                            "(default: %(default)s)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="requests allowed to wait for a worker before "
                            "new arrivals get 503 (default: %(default)s)")

    lint = subparsers.add_parser(
        "lint",
        help="run the zero-dependency static-analysis checkers "
             "(lock discipline, telemetry/null-object, float64 "
             "accumulation, pyflakes-subset hygiene)")
    lint.add_argument("paths", nargs="*", default=["."],
                      help="files or directories to check (default: .)")
    lint.add_argument("--select", action="append", default=None,
                      metavar="IDS",
                      help="comma-separated checker IDs or prefixes to "
                           "run (repeatable; e.g. RPR1 for the lock "
                           "family)")
    lint.add_argument("--ignore", action="append", default=None,
                      metavar="IDS",
                      help="comma-separated checker IDs or prefixes to "
                           "skip (repeatable)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text", dest="output_format",
                      help="report format (default: text)")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="reviewed baseline file; matching findings "
                           "do not gate")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current findings to --baseline "
                           "and exit 0")
    lint.add_argument("--doctor-map", action="store_true",
                      help="print which checkers have a runtime "
                           "'workspace doctor' counterpart and exit")

    subparsers.add_parser("datasets", help="list the registered data sets")
    subparsers.add_parser(
        "version",
        help="print the package version and on-disk format versions")
    return parser


def _run_experiment(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    key = args.experiment_id.lower()
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(f"unknown experiment {key!r}; known: {known}")
    kwargs = {"seed": args.seed}
    if args.num_series is not None:
        kwargs["num_series"] = args.num_series
    result = EXPERIMENTS[key](**kwargs)
    print(result.to_text())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result.to_csv())
        print(f"CSV written to {args.csv}")
    return 0


def _run_distance(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed)
    constraints = args.constraint or [
        "full", "fc,fw", "fc,aw", "ac,fw", "ac,aw", "ac2,aw"
    ]
    for index in (args.first, args.second):
        if not 0 <= index < len(dataset):
            raise ExperimentError(
                f"series index {index} out of range for {dataset.name} "
                f"({len(dataset)} series)"
            )
    x = dataset[args.first].values
    y = dataset[args.second].values
    engine = SDTW(SDTWConfig())
    print(f"Data set {dataset.name}: series {args.first} vs {args.second} "
          f"(lengths {x.size} and {y.size})")
    for constraint in constraints:
        result = engine.distance(x, y, constraint=constraint)
        print(f"  {constraint:8s} distance={result.distance:10.4f} "
              f"cells={result.cells_filled:8d}/{result.total_cells:<8d} "
              f"savings={result.cell_savings:6.1%}")
    return 0


def _run_engine(args: argparse.Namespace) -> int:
    from .service import EngineConfig, Workspace, WorkspaceConfig
    from .utils.rng import rng_from_seed
    from .utils.tables import format_table

    dataset = load_dataset(args.dataset, seed=args.seed)
    if args.num_series is not None and args.num_series < len(dataset):
        rng = rng_from_seed(args.seed)
        dataset = dataset.sample(args.num_series, rng,
                                 name=f"{dataset.name}-n{args.num_series}")
    num_queries = max(1, min(args.num_queries, len(dataset)))

    # The batch retrieval path is served through an (in-memory) Workspace:
    # same cascade, one front door.
    workspace = Workspace(WorkspaceConfig(engine=EngineConfig(
        constraint=args.constraint,
        backend=args.backend,
        num_workers=args.workers,
        prune=not args.no_cascade,
        early_abandon=not args.no_abandon,
    )))
    identifiers = workspace.add_dataset(dataset)
    engine = workspace.engine

    if args.mode != "exact" or args.trace:
        # Non-default mode or tracing goes through the per-query
        # workspace path — the same contract 'workspace query' and
        # 'serve' answer with (indexed mode builds the index first).
        return _run_engine_per_query(args, workspace, dataset, num_queries)

    queries = [dataset[i].values for i in range(num_queries)]
    result = workspace.knn(queries, k=args.k,
                           exclude_identifiers=identifiers[:num_queries])
    stats = result.stats

    print(f"Batch k-NN over {dataset.name}: {len(dataset)} series, "
          f"{num_queries} queries, k={args.k}")
    print(f"constraint={engine.constraint} backend={engine.backend}"
          + (f" workers={args.workers}" if args.workers else ""))
    print()
    print(format_table(["stage", "count", "note"], stats.cascade_rows(),
                       title="Pruning cascade"))
    print()
    timing_rows = [
        ["lower bounds", stats.bound_seconds],
        ["feature extraction (a)", stats.extract_seconds],
        ["matching + pruning (b)", stats.matching_seconds],
        ["dynamic programming (c)", stats.dp_seconds],
        ["batch wall-clock", result.elapsed_seconds],
    ]
    print(format_table(["phase", "seconds"], timing_rows,
                       float_format=".6f", title="Time breakdown (Figure 17)"))
    print()
    correct = 0
    labelled = 0
    for qi, query_result in enumerate(result.results):
        top = query_result.hits[0] if query_result.hits else None
        label = dataset[qi].label
        if top is not None and label is not None:
            labelled += 1
            correct += int(top.label == label)
        if top is not None:
            print(f"query {qi}: nearest={top.identifier} "
                  f"distance={top.distance:.4f}")
    if labelled:
        print(f"top-1 label agreement: {correct}/{labelled}")
    return 0


def _run_engine_per_query(args, workspace, dataset, num_queries: int) -> int:
    from .utils.tables import format_table

    if args.mode in ("auto", "indexed"):
        workspace.build_index()
    identifiers = workspace.identifiers
    print(f"Per-query k-NN over {dataset.name}: {len(dataset)} series, "
          f"{num_queries} queries, mode={args.mode}, k={args.k}")
    rows = []
    traces = []
    for qi in range(num_queries):
        result = workspace.query(
            dataset[qi].values, args.k,
            mode=args.mode, exclude_identifier=identifiers[qi],
        )
        top = result.hits[0] if result.hits else None
        rows.append([
            identifiers[qi],
            result.mode if result.mode == "exact"
            else f"{result.mode} C={result.candidates_generated}",
            top.identifier if top else "-",
            round(top.distance, 4) if top else "-",
            f"{result.elapsed_seconds * 1000:.2f} ms",
        ])
        if args.trace:
            traces.append((identifiers[qi], result.trace))
    print(format_table(["query", "mode", "nearest", "distance", "time"],
                       rows, title=f"Top-1 of k={args.k}"))
    _print_traces(traces)
    return 0


def _run_stream(args) -> int:
    import time

    from .core.config import DescriptorConfig, SDTWConfig
    from .datasets.generators import embed_pattern_stream, make_stream_patterns
    from .streaming import StreamMonitor
    from .streaming.offline import calibrate_thresholds
    from .utils.rng import rng_from_seed
    from .utils.tables import format_table

    rng = rng_from_seed(args.seed)
    patterns = make_stream_patterns(args.patterns, args.pattern_length, rng)
    values, truth = embed_pattern_stream(
        args.length, patterns, rng, occurrences_per_pattern=args.occurrences
    )
    # Short descriptors keep adaptive-band construction CLI-friendly.
    config = SDTWConfig(descriptor=DescriptorConfig(num_bins=16))
    if args.threshold is not None:
        thresholds = {index: args.threshold for index in range(len(patterns))}
    else:
        thresholds = calibrate_thresholds(
            values, patterns, truth, config,
            mode=args.mode, constraint=args.constraint,
        )

    monitor = StreamMonitor(
        config, prune=not args.no_cascade, early_abandon=not args.no_abandon
    )
    monitor.add_stream("stream", capacity=2 * args.pattern_length + 64)
    names = []
    for index, pattern in enumerate(patterns):
        names.append(monitor.add_pattern(
            pattern, name=f"pattern-{index}", threshold=thresholds[index],
            mode=args.mode, constraint=args.constraint,
        ))

    started = time.perf_counter()
    matches = monitor.extend("stream", values)
    matches += monitor.finalize("stream")
    elapsed = time.perf_counter() - started

    print(f"Monitored {args.length} samples for {len(patterns)} patterns "
          f"(mode={args.mode}"
          + (f", constraint={args.constraint}" if args.mode == "sliding" else "")
          + f", seed={args.seed})")
    throughput = args.length / elapsed if elapsed > 0 else float("inf")
    print(f"throughput: {throughput:,.0f} points/sec "
          f"({elapsed:.3f}s wall-clock)")
    print()

    detected = set()
    rows = []
    for match in sorted(matches, key=lambda m: m.start):
        hit = ""
        for ti, occ in enumerate(truth):
            if (occ.hit_by(match.start, match.end)
                    and f"pattern-{occ.pattern_index}" == match.pattern):
                hit = f"occurrence {ti}"
                detected.add(ti)
                break
        rows.append([match.pattern, match.start, match.end,
                     round(match.distance, 4), hit or "(background)"])
    if rows:
        print(format_table(["pattern", "start", "end", "distance", "ground truth"],
                           rows, title="Reported matches"))
    else:
        print("No matches reported.")
    print()
    print(f"detected {len(detected)}/{len(truth)} embedded occurrences")
    print()
    for index, name in enumerate(names):
        stats = monitor.stats(name)
        print(format_table(
            ["stage", "count", "note"], stats.rows(),
            title=f"{name} (threshold {thresholds[index]:.3f})"))
        print()
    return 0


def _run_workspace(args: argparse.Namespace) -> int:
    if args.workspace_command is None:
        print("error: 'workspace' needs a subcommand: init, add, query, "
              "stats, compact, doctor, profile or flight-record",
              file=sys.stderr)
        return 2
    if args.workspace_command == "init":
        return _run_workspace_init(args)
    if args.workspace_command == "add":
        return _run_workspace_add(args)
    if args.workspace_command == "query":
        return _run_workspace_query(args)
    if args.workspace_command == "compact":
        return _run_workspace_compact(args)
    if args.workspace_command == "doctor":
        return _run_workspace_doctor(args)
    if args.workspace_command == "profile":
        return _run_workspace_profile(args)
    if args.workspace_command == "flight-record":
        return _run_workspace_flight_record(args)
    return _run_workspace_stats(args)


def _run_workspace_init(args: argparse.Namespace) -> int:
    from .service import (
        EngineConfig, IndexConfig, ServingConfig, Workspace, WorkspaceConfig,
    )

    config = WorkspaceConfig(
        engine=EngineConfig(constraint=args.constraint, backend=args.backend),
        index=IndexConfig(
            num_codewords=args.codewords,
            num_shards=args.shards,
            candidate_budget=args.candidates,
        ),
        serving=ServingConfig(slow_query_threshold=args.slow_query_threshold),
    )
    workspace = Workspace.create(args.workspace_dir, config)
    print(f"Created workspace at {workspace.path}")
    print(f"constraint={args.constraint} backend={args.backend} "
          f"codewords={args.codewords} shards={args.shards}")
    if args.slow_query_threshold is not None:
        print(f"slow-query capture: queries >= {args.slow_query_threshold}s "
              f"are logged as slow_query events in events.jsonl")
    return 0


def _run_workspace_add(args: argparse.Namespace) -> int:
    import time

    from .service import Workspace
    from .utils.rng import rng_from_seed

    dataset = load_dataset(args.dataset, seed=args.seed)
    if args.num_series is not None and args.num_series < len(dataset):
        rng = rng_from_seed(args.seed)
        dataset = dataset.sample(args.num_series, rng,
                                 name=f"{dataset.name}-n{args.num_series}")
    started = time.perf_counter()
    with Workspace.open(args.workspace_dir) as workspace:
        identifiers = workspace.add_dataset(dataset)
        if args.build_index:
            workspace.build_index()
        size = len(workspace)
        has_index = workspace.has_index
    elapsed = time.perf_counter() - started
    print(f"Added {len(identifiers)} series of {dataset.name} in {elapsed:.2f}s "
          f"(workspace now holds {size})")
    print(f"index: {'built' if has_index else 'none (queries run exact scans)'}")
    return 0


def _run_workspace_query(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import Workspace
    from .utils.tables import format_table

    from .exceptions import WorkspaceError

    with Workspace.open(args.workspace_dir) as workspace:
        if not len(workspace):
            raise WorkspaceError(
                "the workspace holds no series; run 'workspace add' first"
            )
        num_queries = max(1, min(args.num_queries, len(workspace)))
        replay = workspace.identifiers[:num_queries]
        rows = []
        traces = []
        profiler = None
        if args.profile:
            import threading

            from .telemetry import SamplingProfiler

            # Pin the sampler to this thread: the query loop below is
            # what the operator asked to attribute, not the whole
            # process.
            profiler = SamplingProfiler(
                threads=[threading.get_ident()]
            ).start()
        try:
            for identifier in replay:
                result = workspace.query(
                    workspace.series_of(identifier), args.k,
                    mode=args.mode, candidates=args.candidates,
                    exclude_identifier=identifier,
                )
                if args.output_format == "json":
                    # One wire payload per line — byte-for-byte the
                    # schema 'repro serve' answers /query with.
                    print(json_module.dumps(
                        result.to_dict(include_trace=args.trace),
                        separators=(",", ":"),
                    ))
                    continue
                top = result.hits[0] if result.hits else None
                rows.append([
                    identifier,
                    result.mode if result.mode == "exact"
                    else f"{result.mode} C={result.candidates_generated}",
                    top.identifier if top else "-",
                    round(top.distance, 4) if top else "-",
                    f"{result.elapsed_seconds * 1000:.2f} ms",
                ])
                if args.trace:
                    traces.append((identifier, result.trace))
        finally:
            profile = profiler.stop() if profiler is not None else None
        if args.output_format != "json":
            print(f"Workspace at {args.workspace_dir}: {len(workspace)} "
                  f"series, mode={args.mode}, k={args.k}")
            print(format_table(
                ["query", "mode", "nearest", "distance", "time"],
                rows, title=f"Top-1 of k={args.k}"))
            _print_traces(traces)
        if profile is not None:
            print()
            _print_profile(profile, top=10)
    return 0


def _print_traces(traces) -> None:
    """Print (identifier, trace) pairs as per-stage tables."""
    from .utils.tables import format_table

    for identifier, trace in traces:
        print()
        if trace is None:
            print(f"trace of {identifier}: telemetry is disabled for "
                  f"this workspace")
            continue
        stage_rows = [
            [stage.name, f"{stage.seconds * 1000:.3f} ms",
             ", ".join(f"{key}={value}" for key, value
                       in sorted(stage.attributes.items()))]
            for stage in trace.stages
        ]
        print(format_table(
            ["stage", "time", "detail"], stage_rows,
            title=(f"Trace of {identifier} ({trace.mode}, "
                   f"{trace.total_seconds * 1000:.2f} ms)")))


def _print_profile(report, top: int) -> None:
    """Print a :class:`~repro.telemetry.ProfileReport` summary table."""
    from .utils.tables import format_table

    print(f"profiler: {report.num_samples} samples over "
          f"{report.duration_seconds:.2f}s "
          f"(interval {report.interval_seconds * 1000:.1f} ms, "
          f"coverage {report.coverage:.1%}, "
          f"sampler overhead {report.sampler_overhead:.1%})")
    if not report.num_samples:
        print("no samples captured (the window was shorter than the "
              "sampling interval)")
        return
    rows = [
        [frame, count, f"{count / report.num_samples:.1%}"]
        for frame, count in report.self_seconds()[: max(1, top)]
    ]
    print(format_table(["frame", "samples", "self"], rows,
                       title="Hottest frames (self time)"))


def _run_workspace_compact(args: argparse.Namespace) -> int:
    import time

    from .service import Workspace

    with Workspace.open(args.workspace_dir) as workspace:
        before = workspace.stats()["index"]
        started = time.perf_counter()
        workspace.compact_index()
        elapsed = time.perf_counter() - started
        after = workspace.stats()["index"]
    if not before["delta_shards"] and not before["tombstones"]:
        print(f"Index of {args.workspace_dir} has no delta shards or "
              f"tombstones; nothing to compact")
        return 0
    print(f"Compacted {before['delta_shards']} delta shards and "
          f"{before['tombstones']} tombstones in {elapsed:.2f}s")
    print(f"postings: {after['num_postings']} over {after['num_live']} series")
    return 0


def _run_workspace_doctor(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import Workspace, run_doctor
    from .utils.tables import format_table

    with Workspace.open(args.workspace_dir) as workspace:
        report = run_doctor(workspace, probe=not args.no_probe)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(f"Doctor report for {args.workspace_dir}")
        print(format_table(["check", "status", "detail"], report.rows(),
                           title="Invariant checks"))
        counts = report.counts
        print(f"{counts['OK']} ok, {counts['WARN']} warnings, "
              f"{counts['FAIL']} failures -> "
              f"{'healthy' if report.healthy else 'UNHEALTHY'}")
        statics = report.static_checkers()
        if statics:
            pairs = "; ".join(f"{name}: {', '.join(ids)}"
                              for name, ids in statics.items())
            print(f"statically checked by 'repro lint' "
                  f"(docs/INVARIANTS.md): {pairs}")
    return 0 if report.healthy else 1


def _run_workspace_profile(args: argparse.Namespace) -> int:
    from .exceptions import WorkspaceError
    from .service import Workspace
    from .telemetry import SamplingProfiler

    with Workspace.open(args.workspace_dir) as workspace:
        if not len(workspace):
            raise WorkspaceError(
                "the workspace holds no series; run 'workspace add' first"
            )
        num_queries = max(1, min(args.num_queries, len(workspace)))
        replay = workspace.identifiers[:num_queries]
        executed = 0
        with SamplingProfiler(interval_seconds=args.interval) as profiler:
            for _ in range(max(1, args.repeat)):
                for identifier in replay:
                    workspace.query(
                        workspace.series_of(identifier),
                        mode=args.mode, exclude_identifier=identifier,
                    )
                    executed += 1
        report = profiler.stop()
    print(f"Profiled {executed} {args.mode} queries over "
          f"{num_queries} stored series at {args.workspace_dir}")
    _print_profile(report, top=args.top)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            collapsed = report.collapsed()
            handle.write(collapsed + ("\n" if collapsed else ""))
        print(f"collapsed stacks written to {args.output}")
    return 0


def _run_workspace_flight_record(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import Workspace

    with Workspace.open(args.workspace_dir) as workspace:
        record = workspace.dump_flight_record(events=max(0, args.events))
    text = json_module.dumps(record, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"Flight record written to {args.output}")
    else:
        print(text)
    return 0


def _run_workspace_stats(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import Workspace

    with Workspace.open(args.workspace_dir) as workspace:
        if args.metrics:
            # Optionally replay stored series as queries first so the
            # latency/cascade histograms have content to export.
            for identifier in workspace.identifiers[: max(0, args.probe)]:
                workspace.query(
                    workspace.series_of(identifier),
                    exclude_identifier=identifier,
                )
            if args.format == "prom":
                output = workspace.metrics_prometheus()
                print(output, end="" if output.endswith("\n") else "\n")
            else:
                print(json_module.dumps(workspace.metrics_to_dict(), indent=2))
            return 0
        summary = workspace.stats()
    print(f"Workspace at {args.workspace_dir}")
    print(f"series: {summary['num_series']}  "
          f"lengths: [{summary['min_length']}, {summary['max_length']}]")
    print(f"constraint: {summary['constraint']}  "
          f"backend: {summary['backend']}  "
          f"telemetry: {'on' if summary['telemetry'] else 'off'}")
    index = summary["index"]
    if index is None:
        print("index: none (queries run exact scans)")
    else:
        state = "stale (rebuild with 'workspace add --build-index')" if (
            index["stale"]) else "fresh"
        print(f"index: {index['num_postings']} postings over "
              f"{index['num_codewords']} codewords ({state})")
        print(f"index slots: {index['num_live']} live of "
              f"{index['num_slots']}  delta shards: {index['delta_shards']}  "
              f"tombstones: {index['tombstones']}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from .server import WorkspaceServer, split_workspace
    from .service import Workspace

    workspace = Workspace.open(args.workspace_dir)
    try:
        target = workspace
        if args.shards > 1:
            target = split_workspace(workspace, args.shards)
            print(f"Partitioned {len(workspace)} series across "
                  f"{args.shards} in-process shards (scatter-gather "
                  f"merge; mutations stay in memory)")
        server = WorkspaceServer(
            target,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_pending=args.max_pending,
            default_mode=args.mode,
            default_k=args.k,
            default_trace=args.trace,
        )
        server.start()
        try:
            # start() has bound the socket, so the URL is live (and
            # accurate even with --port 0).
            print(f"Serving workspace {args.workspace_dir} on {server.url}")
            print("routes: POST /query /add /remove; GET /stats /healthz "
                  "/metrics  (Ctrl-C to stop)")
            while server.join(timeout=1.0):
                pass
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.stop()
        return 0
    finally:
        workspace.close()


def _run_datasets() -> int:
    for name in available_datasets():
        print(name)
    return 0


def _split_selectors(values: Optional[Sequence[str]]) -> Optional[list]:
    if values is None:
        return None
    selectors = [part.strip().upper()
                 for value in values
                 for part in value.split(",") if part.strip()]
    return selectors or None


def _run_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .analysis import (
        CHECKER_SET_VERSION,
        all_checkers,
        apply_baseline,
        check_paths,
        count_by_checker,
        doctor_counterparts,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )
    from .exceptions import AnalysisError

    if args.doctor_map:
        counterparts = doctor_counterparts()
        print("checker  invariant                     "
              "runtime doctor check")
        for entry in all_checkers():
            runtime = entry.doctor_check or "-"
            print(f"{entry.id}   {entry.name:<29} {runtime}")
        print()
        print("doctor checks with static counterparts:")
        for name, ids in counterparts.items():
            print(f"  {name}: {', '.join(ids)}")
        return 0

    select = _split_selectors(args.select)
    ignore = _split_selectors(args.ignore)
    findings = check_paths(args.paths, select=select, ignore=ignore)

    if args.write_baseline:
        if args.baseline is None:
            raise AnalysisError("--write-baseline requires --baseline PATH")
        write_baseline(Path(args.baseline), findings)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    matched = 0
    stale = False
    unused = ()
    if args.baseline is not None:
        result = apply_baseline(findings,
                                load_baseline(Path(args.baseline)))
        findings = list(result.new)
        matched = result.matched
        stale = result.stale
        unused = result.unused

    if args.output_format == "json":
        extra = {
            "new": len(findings),
            "baselined": matched,
            "stale_baseline": stale,
            "unused_baseline_entries": [list(key) for key in unused],
        }
        print(json.dumps(render_json(findings,
                                     checker_set=CHECKER_SET_VERSION,
                                     extra=extra), indent=2))
    else:
        if findings:
            print(render_text(findings))
            counts = count_by_checker(findings)
            summary = ", ".join(f"{checker_id}: {count}"
                                for checker_id, count in counts.items())
            print(f"{len(findings)} finding(s) ({summary})")
        else:
            print("clean: no findings")
        if matched:
            print(f"{matched} finding(s) matched the baseline")
        for key in unused:
            print(f"warning: unused baseline entry: {key[0]} {key[1]}: "
                  f"{key[2]}")
        if stale:
            print("warning: baseline was written under a different "
                  "checker-set version "
                  f"(current: v{CHECKER_SET_VERSION}); re-review it "
                  "with --write-baseline")
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "experiment":
            return _run_experiment(args)
        if args.command == "distance":
            return _run_distance(args)
        if args.command == "engine":
            return _run_engine(args)
        if args.command == "stream":
            return _run_stream(args)
        if args.command == "workspace":
            return _run_workspace(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "datasets":
            return _run_datasets()
        if args.command == "lint":
            return _run_lint(args)
        if args.command == "version":
            print(_version_string())
            return 0
    except ReproError as exc:
        # Every intentional library failure derives from ReproError; the
        # CLI contract is a clean one-line message, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Filesystem failures (unwritable output paths, missing files)
        # are environment errors, not bugs: same clean message, own code.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 1


if __name__ == "__main__":
    sys.exit(main())
