"""Layer-attributed SQL benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload read_point --seed 1 --seconds 20 --trace 0

The process repeats episodes of the workload (see ``episode.py``) until
their timed phases add up to ``--seconds`` and at least ``MIN_EPISODES``
have run. Every episode rebuilds its inputs from ``--seed``, so all of
them issue the same statements and must produce the same exact counts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced episode for reference, then traced
episodes, and reports the per-layer metrics. Report lines go to standard
output with unit, scope and sample count; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
report (and, when traced, the last episode's spans) is written under
``perfbench/out/``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Episodes every run makes at least, so set-up and recovery times are
#: medians of several samples.
MIN_EPISODES = 3
#: No further episode starts once a run has taken this long (s).
WALL_BUDGET_S = 120.0


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was there to divide by."""
    return num / den if den else 0.0


def _run_episodes(episode_mod, workload_cls, seed, seconds, tracer=None,
                  min_episodes=MIN_EPISODES):
    """Episodes until their timed phases cover ``seconds`` (and at least
    ``min_episodes``), starting none after ``WALL_BUDGET_S``."""
    episodes = []
    started = time.perf_counter()
    while len(episodes) < min_episodes or (
        sum(ep.phase_s for ep in episodes) < seconds
        and time.perf_counter() - started < WALL_BUDGET_S
    ):
        gc.collect()
        if tracer is not None:
            tracer.reset()
        ep = episode_mod.run_episode(workload_cls(seed), OUT_DIR, tracer)
        if tracer is not None:
            ep.spans = tracer.analyze()
        episodes.append(ep)
    return episodes


def _count_mismatches(episodes):
    """Names of exact counts that differ between episodes."""
    first = episodes[0].counts
    return sorted(
        name for ep in episodes[1:] for name in set(first) | set(ep.counts)
        if first.get(name) != ep.counts.get(name)
    )


def _source_digest() -> str:
    """Hash of the program and benchmark sources: runs of identical code
    share it, so their exact counts must agree."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def _earlier_run_mismatches(workload: str, seed: int, counts) -> list:
    """Exact counts that differ from an earlier run of the same code and seed.

    The first run of a (code, workload, seed) triple records its counts
    under ``OUT_DIR``; every later one is compared with them.
    """
    path = os.path.join(OUT_DIR, f"counts-{workload}-seed{seed}-{_source_digest()}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    with open(path) as fh:
        earlier = json.load(fh)
    return sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))


def _latency_report(episodes, kinds):
    """Per statement type: p50 and p99 in us with the sample count."""
    out = {}
    for kind in kinds:
        values = sorted(v for ep in episodes for v in ep.latency_ns[kind])
        if values:
            out[kind] = {
                "p50_us": _percentile(values, 50) / 1e3,
                "p99_us": _percentile(values, 99) / 1e3,
                "n": len(values),
            }
    return out


def end_to_end(episodes, latency):
    """The end-to-end metrics: value, scope and sample count each.

    ``latency`` is ``_latency_report`` of the same episodes. The statement
    types' mix differs per workload, so latency is gated as the middle
    type's p50: a p50 over the pooled mix can fall between two types and
    jump between runs.
    """
    c = episodes[0].counts
    n_ep = len(episodes)
    return {
        "setup_s": (statistics.median(ep.setup_s for ep in episodes),
                    f"per episode: server construction, preload, session open; "
                    f"median of {n_ep} episodes", n_ep),
        "stmts_per_s": (sum(ep.statements for ep in episodes)
                        / sum(ep.phase_s for ep in episodes),
                        f"all timed phases pooled ({n_ep} episodes)", n_ep),
        "type_p50_us": (statistics.median(row["p50_us"] for row in latency.values()),
                        "per statement: median over statement types of each "
                        "type's p50 service time",
                        sum(ep.statements for ep in episodes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "per process", 1),
        "recovery_s": (statistics.mean(ep.recovery_s for ep in episodes),
                       f"per crash at episode end, mean of {n_ep} episodes", n_ep),
        "wal_bytes_per_row_byte": (
            c["episode.wal_bytes"] / c["episode.row_bytes_written"],
            "per episode: WAL bytes written over encoded row bytes written, "
            "preload included (exact)", 1),
        "space_bytes_per_row_byte": (
            c["end.space_bytes"] / c["end.live_row_bytes"],
            "per episode end: tablespace bytes over live encoded row bytes (exact)", 1),
    }


def per_layer(episodes, reference):
    """The per-layer metrics of the traced episodes."""
    from tracing import merged

    summary = merged([ep.spans for ep in episodes])
    c = episodes[0].counts
    stmts = sum(ep.statements for ep in episodes)
    per_stmt = c["phase.statements"]
    commits = c["phase.commits"]

    def self_us(prefix):
        return summary.by_layer(summary.self_ns, prefix) / stmts / 1e3

    def calls(prefix):
        return summary.by_layer(summary.calls, prefix)

    hits, misses = c["phase.pool.hits"], c["phase.pool.misses"]
    dispatch_ns = sum(sum(lat) for ep in episodes for lat in ep.latency_ns.values())
    claimed_ns = sum(summary.self_ns)
    traced_sps = statistics.median(ep.stmts_per_s for ep in episodes)
    metrics = {
        "server.frontend.self_us": self_us("server.frontend:"),
        "server.server.self_us": self_us("server.server:"),
        "sql.lexer.self_us": self_us("sql.lexer:"),
        "sql.lexer.calls": calls("sql.lexer:") / per_stmt,
        "sql.parser.self_us": self_us("sql.parser:"),
        "memory.heap.self_us": self_us("memory.heap:"),
        "memory.heap.allocs_per_stmt":
            summary.of(summary.calls, "memory.heap:BumpArena.alloc") / per_stmt,
        "memory.heap.bytes_per_stmt":
            summary.of(summary.measure_sum, "memory.heap:BumpArena.alloc") / per_stmt,
        "sql.digest.self_us": self_us("sql.digest:"),
        "sql.digest.calls": calls("sql.digest:") / per_stmt,
        "server.performance_schema.self_us": self_us("server.performance_schema:"),
        "engine.query_logs.self_us": self_us("engine.query_logs:"),
        "sql.planner.self_us": self_us("sql.planner:"),
        "server.executor.self_us": self_us("server.executor:"),
        "server.executor.rows_examined_per_row":
            _ratio(c["phase.rows_examined"], c["phase.rows_sent_or_affected"]),
    }
    for op in ("begin", "commit", "get", "range", "full_scan", "insert", "update"):
        metrics[f"engine.engine.{op}.self_us"] = self_us(
            f"engine.engine:StorageEngine.{op}"
        )
    metrics.update({
        "engine.mvcc.self_us": self_us("engine.mvcc:"),
        "engine.mvcc.max_chain_len":
            summary.of(summary.measure_max, "engine.mvcc:MVCCManager.record_write"),
        "engine.mvcc.conflicts":
            summary.of(summary.errors, "engine.mvcc:MVCCManager.check_write"),
        "server.sharding.self_us": self_us("server.sharding:"),
        "server.sharding.shards_per_txn": _ratio(
            summary.shard_commits, calls("server.sharding:ShardedEngine.commit")
        ),
        "storage.paged.table.self_us": self_us("storage.paged.table:"),
        "storage.paged.table.fetches_per_lookup":
            _ratio(summary.table_fetches, calls("storage.paged.table:")),
        "storage.paged.buffer_pool.self_us": self_us("storage.paged.buffer_pool:"),
        "storage.paged.buffer_pool.hit_ratio": _ratio(hits, hits + misses),
        "storage.paged.buffer_pool.misses": misses,
        "storage.paged.buffer_pool.evictions": c["phase.pool.evictions"],
        "storage.paged.buffer_pool.writebacks": c["phase.pool.writebacks"],
        "storage.paged.page_file.self_us": self_us("storage.paged.page_file:"),
        "storage.paged.page_file.reads": calls("storage.paged.page_file:PageFile.read_page"),
        "storage.paged.page_file.writes":
            calls("storage.paged.page_file:PageFile.write_page"),
        "wal.log_manager.append_self_us": self_us("wal.log_manager.append:"),
        "wal.log_manager.flush_self_us": self_us("wal.log_manager.flush:"),
        "wal.log_manager.fsync_us": self_us("wal.log_manager.fsync:"),
        "wal.log_manager.syncs_per_commit": _ratio(c["phase.wal.syncs"], commits),
        "wal.log_manager.flushes_per_commit": _ratio(c["phase.wal.flushes"], commits),
        "wal.log_manager.bytes_per_commit": _ratio(c["phase.wal.bytes_written"], commits),
        "wal.recovery.self_s": summary.by_layer(summary.recovery_self_ns, "wal.recovery:")
            / len(episodes) / 1e9,
        "wal.recovery.records_scanned": c["recovery.records_scanned"],
        "wal.recovery.redo_applied": c["recovery.redo_applied"],
        "wal.recovery.undo_applied": c["recovery.undo_applied"],
        "trace.unattributed_frac": _ratio(dispatch_ns - claimed_ns, dispatch_ns),
        "trace.overhead_frac": reference.stmts_per_s / traced_sps - 1.0,
    })
    return {name: (value, _layer_scope(name), stmts) for name, value in metrics.items()}


def _layer_scope(name: str) -> str:
    if name.endswith(("self_us", "fsync_us")) or "per_stmt" in name or name.endswith(".calls"):
        return "per statement of the traced timed phases"
    if "per_commit" in name:
        return "per committed transaction of one timed phase (exact)"
    if name.startswith("wal.recovery.self_s"):
        return "per crash recovery, mean of the traced episodes"
    if name.startswith("wal.recovery."):
        return "per crash recovery (exact)"
    if name.startswith("trace."):
        return "whole traced run"
    return "per timed phase of one episode (exact)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        _fail(f"no program sources at {os.path.join(ROOT, 'src')}; run from a "
              "full checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import episode as episode_mod
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = None
    if args.trace:
        reference = _run_episodes(episode_mod, workload_cls, args.seed, 0,
                                  min_episodes=1)
        tracer = Tracer()
        tracer.install()
        try:
            episodes = _run_episodes(episode_mod, workload_cls, args.seed,
                                     args.seconds, tracer, min_episodes=2)
        finally:
            tracer.uninstall()
        runs = reference + episodes
        latency = _latency_report(reference, workload_cls.kinds)
        values = per_layer(episodes, reference[0])
        wanted = spec["per_layer"]
    else:
        runs = episodes = _run_episodes(episode_mod, workload_cls, args.seed, args.seconds)
        latency = _latency_report(episodes, workload_cls.kinds)
        values = end_to_end(episodes, latency)
        wanted = spec["end_to_end"]

    problems = [p for ep in runs for p in ep.problems]
    mismatched = _count_mismatches(runs)
    if args.trace:
        traced_counts = [ep.spans.counts() for ep in episodes]
        mismatched += sorted(
            name for other in traced_counts[1:] for name in traced_counts[0]
            if traced_counts[0][name] != other[name]
        )
    if mismatched:
        problems.append("exact counts differ between episodes of one seed: "
                        + ", ".join(mismatched[:10]))
    mismatched = _earlier_run_mismatches(args.workload, args.seed, runs[0].counts)
    if mismatched:
        problems.append("exact counts differ from an earlier run of this code "
                        "and seed: " + ", ".join(mismatched[:10]))
    attempted = sum(ep.statements for ep in runs)
    failed = sum(ep.failed for ep in runs)
    correct = not problems and failed == 0

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(values):
        _fail(f"metrics and BENCHMARK.json disagree: {sorted(set(units) ^ set(values))}")

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"episodes {len(runs)}  statements {attempted}  failed {failed}  "
          f"failed_frac {_ratio(failed, attempted):.6f}")
    for name in units:
        value, scope, samples = values[name]
        print(f"{name:44s} {value:14.6f} {units[name]:14s} n={samples:<7d} {scope}")
    for kind, row in latency.items():
        print(f"# {kind:8s} p50 {row['p50_us']:10.1f} us  p99 {row['p99_us']:10.1f} us  "
              f"n={row['n']}  (report only, untraced)")
    print("# exact counts of one episode (count, not timing; equal in every episode):")
    for name, value in sorted(runs[0].counts.items()):
        print(f"#   {name} = {value}")
    for problem in problems[:20]:
        print(f"# CHECK FAILED: {problem}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "episodes": len(runs), "attempted": attempted, "failed": failed,
        "failed_frac": _ratio(failed, attempted), "problems": problems,
        "metrics": {name: {"value": values[name][0], "unit": units[name],
                           "scope": values[name][1], "n": values[name][2]}
                    for name in units},
        "latency_by_type": latency,
        "exact_counts": {"kind": "count", "per_episode": runs[0].counts},
    }
    if args.trace:
        report["exact_counts"]["traced_calls"] = episodes[0].spans.counts()
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.txt.gz"))
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
