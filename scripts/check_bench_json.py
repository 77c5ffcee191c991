#!/usr/bin/env python3
"""Bench/observability JSON schema check for the perf trajectory.

Runs the bench smoke targets, then validates every BENCH_*.json they
emit: the file must parse, every number must be finite, every key
ending in "sweep" (or named in REQUIRED below) must be a non-empty
list, and per-file required keys must be present.  CI uploads the
validated JSONs as workflow artifacts, so a silently malformed bench
report fails the pipeline instead of poisoning the perf history.

The script also validates serving_sim observability output:

--trace FILE    a Chrome trace-event JSON (serving_sim --trace-out):
                must parse, contain only finite numbers, spans per
                track must be properly nested (sorted by start, a
                later span never starts before the enclosing one
                ends unless fully contained), and timestamps must be
                non-negative.
--metrics FILE  a metrics JSON (serving_sim --metrics-json): the
                report object must carry the busy-time breakdown and
                its prefix_cache and kv_scheme objects, and prefill +
                decode + comm + codebook upload must equal
                busy_time_us within tolerance.  Given both --trace and
                --metrics, the trace's per-category span durations are
                checked against the report's breakdown too.

Usage:
    check_bench_json.py [--build-dir BUILD] [--no-run] [--skip-bench]
                        [--trace FILE] [--metrics FILE]

--no-run skips executing the benches and only validates the JSON files
already present in the build directory.  --skip-bench skips the bench
JSON validation entirely (observability-only mode).
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

# Bench targets to execute (relative to the build dir) and the JSON
# files they are expected to leave behind.
SMOKE_TARGETS = [
    (["./bench_serving", "--smoke"], "BENCH_serving.json"),
    (["./bench_fleet", "--smoke"], "BENCH_fleet.json"),
    (["./bench_host_throughput"], "BENCH_host.json"),
]

# Per-file required keys: path of nested keys that must exist.  A
# trailing list marker "[]" requires a non-empty list whose entries all
# carry the listed fields.
REQUIRED = {
    "BENCH_serving.json": {
        "plan_cache": ["cold_ms", "cached_ms", "speedup",
                       "cold_hit_rate", "cached_hit_rate"],
        "tp_sweep[]": ["scheme", "degree", "tokens_per_sec",
                       "tbt_p95_ms", "ttft_p95_ms", "comm_fraction",
                       "kv_capacity_gb", "busy_us", "prefill_us",
                       "decode_us", "comm_us", "codebook_upload_us"],
        "prefix_sweep[]": ["scheme", "prefix_cache", "seed", "qps",
                           "ttft_mean_ms", "ttft_p95_ms", "tbt_p95_ms",
                           "prefill_us", "busy_us", "tokens_saved",
                           "prompt_tokens", "prefix_len", "hit_rate",
                           "cow_forks", "preemptions", "completed"],
        "kv_sweep[]": ["weight_scheme", "kv_scheme", "kv_scale",
                       "bytes_per_token", "capacity_multiplier",
                       "pool_bytes", "peak_running", "dequant_us",
                       "max_qps_slo", "qps", "tokens_per_sec",
                       "ttft_p95_ms", "tbt_p95_ms", "completed"],
    },
    "BENCH_fleet.json": {
        "fleet_sweep[]": ["replicas", "router", "disaggregated",
                          "prefill_replicas", "weight_scheme",
                          "kv_scheme", "qps", "ttft_p95_ms",
                          "tbt_p95_ms", "fleet_tokens_per_sec",
                          "completed", "rejected", "handoffs",
                          "handoff_rejects", "kv_transfer_bytes",
                          "kv_transfer_us", "util_min", "util_max",
                          "util_imbalance", "max_qps_slo"],
        "router_sweep[]": ["router", "replicas", "arrival", "qps",
                           "ttft_p95_ms", "tbt_p95_ms",
                           "fleet_tokens_per_sec", "completed",
                           "rejected", "util_min", "util_max",
                           "util_imbalance"],
    },
    "BENCH_host.json": {
        "workloads[]": ["name", "serial_ms", "parallel_ms", "speedup",
                        "rate", "rate_unit"],
    },
}


def fail(msg: str) -> None:
    print(f"check_bench_json: ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def check_finite(node, path: str) -> None:
    """Every number in the document must be finite (printf'ing a NaN or
    inf into a report is exactly the silent corruption this guards)."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            fail(f"non-finite number at {path}: {node}")
    elif isinstance(node, dict):
        for key, value in node.items():
            check_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            check_finite(value, f"{path}[{i}]")


def check_sweeps_non_empty(node, path: str) -> None:
    """Any key ending in 'sweep' must be a non-empty list — an empty
    sweep means the bench silently skipped its measurements."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("sweep"):
                if not isinstance(value, list) or not value:
                    fail(f"sweep {path}.{key} is empty or not a list")
            check_sweeps_non_empty(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            check_sweeps_non_empty(value, f"{path}[{i}]")


def check_required(doc: dict, name: str) -> None:
    for key, fields in REQUIRED.get(name, {}).items():
        if key.endswith("[]"):
            key = key[:-2]
            entries = doc.get(key)
            if not isinstance(entries, list) or not entries:
                fail(f"{name}: required list '{key}' missing or empty")
            for i, entry in enumerate(entries):
                for field in fields:
                    if field not in entry:
                        fail(f"{name}: {key}[{i}] lacks '{field}'")
        else:
            obj = doc.get(key)
            if not isinstance(obj, dict):
                fail(f"{name}: required object '{key}' missing")
            for field in fields:
                if field not in obj:
                    fail(f"{name}: {key} lacks '{field}'")


def check_prefix_sweep(doc: dict, name: str) -> None:
    """Semantic checks on the shared-prefix sweep: rates in range,
    cache-off rows save nothing, and per (scheme, seed, qps) pair the
    cache-on run must save tokens and prefill no more than the
    cache-off run on its identical arrival trace."""
    entries = doc.get("prefix_sweep")
    if entries is None:
        return
    pairs = {}
    for i, e in enumerate(entries):
        where = f"{name}: prefix_sweep[{i}]"
        if not 0.0 <= e["hit_rate"] <= 1.0:
            fail(f"{where} hit_rate {e['hit_rate']} outside [0, 1]")
        # Each admission matches at most the request's prefix, and
        # every preemption recompute may legitimately re-match it, so
        # the sound ceiling is the trace's prompt tokens plus one
        # prefix per preemption.
        bound = e["prompt_tokens"] + e["preemptions"] * e["prefix_len"]
        if e["tokens_saved"] > bound:
            fail(f"{where} saved {e['tokens_saved']} tokens; ceiling "
                 f"is {bound} ({e['prompt_tokens']} prompt tokens + "
                 f"{e['preemptions']} preemption re-matches)")
        if not e["prefix_cache"]:
            if e["tokens_saved"] != 0 or e["hit_rate"] != 0:
                fail(f"{where} is cache-off but reports savings "
                     f"({e['tokens_saved']} tokens, hit rate "
                     f"{e['hit_rate']})")
        key = (e["scheme"], e["seed"], e["qps"], bool(e["prefix_cache"]))
        if key in pairs:
            fail(f"{where} duplicates cell {key}")
        pairs[key] = e
    for (scheme, seed, qps, cache), e in pairs.items():
        if not cache:
            continue
        off = pairs.get((scheme, seed, qps, False))
        if off is None:
            fail(f"{name}: prefix_sweep cache-on cell ({scheme}, seed "
                 f"{seed}, {qps} QPS) has no cache-off twin")
        if e["tokens_saved"] == 0:
            fail(f"{name}: prefix_sweep ({scheme}) cache-on saved no "
                 f"tokens on a shared-prefix trace")
        # Identical trace, strictly less prefill work: conservation.
        if e["prefill_us"] > off["prefill_us"] * (1 + 1e-9):
            fail(f"{name}: prefix_sweep ({scheme}) cache-on prefilled "
                 f"{e['prefill_us']} us, more than cache-off's "
                 f"{off['prefill_us']} us on the same trace")
    if entries:
        print(f"check_bench_json: prefix_sweep OK "
              f"({len(entries)} cells)")


def check_kv_sweep(doc: dict, name: str) -> None:
    """Semantic checks on the KV-scheme sweep: the FP16-KV baseline row
    must be a true identity cell (scale 1, multiplier 1, zero attn
    delta), every compressed row must have an FP16-KV twin at equal
    pool bytes and load, the reported capacity multiplier must match
    its byte ratio, and the VQ rows must demonstrate the capacity win
    the sweep exists to measure: at least 2x the baseline's peak
    concurrently-running sequences (and, when the full-mode SLO
    bisections ran, at least the baseline's max QPS)."""
    entries = doc.get("kv_sweep")
    if entries is None:
        return
    baselines = {}
    for i, e in enumerate(entries):
        if e["kv_scheme"] == "fp16":
            baselines[(e["pool_bytes"], e["qps"])] = e
    for i, e in enumerate(entries):
        where = f"{name}: kv_sweep[{i}] ({e['kv_scheme']})"
        if not 0.0 < e["kv_scale"] <= 1.0:
            fail(f"{where} kv_scale {e['kv_scale']} outside (0, 1]")
        if e["bytes_per_token"] <= 0 or e["pool_bytes"] <= 0:
            fail(f"{where} has non-positive KV byte counts")
        # bytes_per_token is floor(fp16_bpt * scale), so the reported
        # multiplier sits at or slightly above 1/scale.
        want = 1.0 / e["kv_scale"]
        if not want * (1 - 1e-3) <= e["capacity_multiplier"] \
                <= want * (1 + 1e-2):
            fail(f"{where} capacity_multiplier "
                 f"{e['capacity_multiplier']} inconsistent with scale "
                 f"{e['kv_scale']} (want ~{want:.4f})")
        if e["max_qps_slo"] < 0:
            fail(f"{where} negative max_qps_slo {e['max_qps_slo']}")
        if e["kv_scheme"] == "fp16":
            if e["kv_scale"] != 1.0 or e["capacity_multiplier"] != 1.0 \
                    or e["dequant_us"] != 0:
                fail(f"{where} FP16-KV baseline is not an identity "
                     f"cell (scale {e['kv_scale']}, multiplier "
                     f"{e['capacity_multiplier']}, attn delta "
                     f"{e['dequant_us']} us)")
            continue
        base = baselines.get((e["pool_bytes"], e["qps"]))
        if base is None:
            fail(f"{where} has no FP16-KV twin at pool_bytes "
                 f"{e['pool_bytes']} and {e['qps']} QPS")
        if e["kv_scheme"].startswith("vq"):
            if e["capacity_multiplier"] < 2.0:
                fail(f"{where} capacity_multiplier "
                     f"{e['capacity_multiplier']} below 2x")
            if e["peak_running"] < 2 * base["peak_running"]:
                fail(f"{where} peak_running {e['peak_running']} is "
                     f"under 2x the FP16-KV baseline's "
                     f"{base['peak_running']} at equal pool bytes")
            if base["max_qps_slo"] > 0 and \
                    e["max_qps_slo"] < base["max_qps_slo"]:
                fail(f"{where} max_qps_slo {e['max_qps_slo']} below "
                     f"the FP16-KV baseline's {base['max_qps_slo']}")
    if entries:
        print(f"check_bench_json: kv_sweep OK ({len(entries)} cells)")


def check_fleet_sweep(doc: dict, name: str) -> None:
    """Semantic checks on the fleet capacity sweep: utilization
    fractions in range and consistent with the reported spread,
    aggregated rows transfer no KV, disaggregated rows always hand
    off, every disaggregated cell has an aggregated twin at equal
    (replicas, router, qps), and — when the full-mode SLO bisections
    ran — the disaggregated fleet sustains strictly more QPS than the
    aggregated same-hardware baseline (the headline the sweep exists
    to demonstrate)."""
    entries = doc.get("fleet_sweep")
    if entries is None:
        return
    cells = {}
    for i, e in enumerate(entries):
        where = f"{name}: fleet_sweep[{i}]"
        if e["replicas"] < 1:
            fail(f"{where} has {e['replicas']} replicas")
        for field in ("util_min", "util_max"):
            if not 0.0 <= e[field] <= 1.0:
                fail(f"{where} {field} {e[field]} outside [0, 1]")
        if e["util_max"] < e["util_min"]:
            fail(f"{where} util_max below util_min")
        if not close(e["util_imbalance"],
                     e["util_max"] - e["util_min"]):
            fail(f"{where} util_imbalance {e['util_imbalance']} is not "
                 f"util_max - util_min")
        if e["max_qps_slo"] < 0:
            fail(f"{where} negative max_qps_slo {e['max_qps_slo']}")
        if e["completed"] <= 0:
            fail(f"{where} completed no requests")
        if not e["disaggregated"]:
            if e["handoffs"] != 0 or e["kv_transfer_bytes"] != 0 \
                    or e["prefill_replicas"] != 0:
                fail(f"{where} is aggregated but reports handoffs "
                     f"({e['handoffs']}, {e['kv_transfer_bytes']} B, "
                     f"{e['prefill_replicas']} prefill replicas)")
        else:
            if e["replicas"] < 2:
                fail(f"{where} is disaggregated with one replica")
            if not 1 <= e["prefill_replicas"] < e["replicas"]:
                fail(f"{where} prefill_replicas "
                     f"{e['prefill_replicas']} out of range")
            if e["handoffs"] == 0 or e["kv_transfer_bytes"] == 0 \
                    or e["kv_transfer_us"] <= 0:
                fail(f"{where} is disaggregated but never handed off")
        key = (e["replicas"], e["router"], e["qps"],
               bool(e["disaggregated"]))
        if key in cells:
            fail(f"{where} duplicates cell {key}")
        cells[key] = e
    for (replicas, router, qps, disagg), e in cells.items():
        if not disagg:
            continue
        agg = cells.get((replicas, router, qps, False))
        if agg is None:
            fail(f"{name}: fleet_sweep disaggregated cell ({replicas} "
                 f"replicas, {router}) has no aggregated twin")
        if e["max_qps_slo"] > 0 and agg["max_qps_slo"] > 0 and \
                e["max_qps_slo"] <= agg["max_qps_slo"]:
            fail(f"{name}: fleet_sweep ({replicas} replicas, {router}) "
                 f"disaggregated max_qps_slo {e['max_qps_slo']} does "
                 f"not beat the aggregated baseline's "
                 f"{agg['max_qps_slo']}")
    if entries:
        print(f"check_bench_json: fleet_sweep OK ({len(entries)} cells)")


def check_router_sweep(doc: dict, name: str) -> None:
    """Semantic checks on the router sweep: utilization fractions in
    range, every policy completed work under the bursty load."""
    entries = doc.get("router_sweep")
    if entries is None:
        return
    seen = set()
    for i, e in enumerate(entries):
        where = f"{name}: router_sweep[{i}]"
        for field in ("util_min", "util_max"):
            if not 0.0 <= e[field] <= 1.0:
                fail(f"{where} {field} {e[field]} outside [0, 1]")
        if not close(e["util_imbalance"],
                     e["util_max"] - e["util_min"]):
            fail(f"{where} util_imbalance inconsistent")
        if e["completed"] <= 0:
            fail(f"{where} completed no requests")
        if e["router"] in seen:
            fail(f"{where} duplicates router '{e['router']}'")
        seen.add(e["router"])
    if entries:
        print(f"check_bench_json: router_sweep OK "
              f"({len(entries)} cells)")


# Categories whose tid-0 spans tile each iteration exactly; their sums
# reproduce the report's busy-time breakdown.
BREAKDOWN_CATS = {
    "prefill": "prefill_us",
    "decode": "decode_us",
    "comm": "comm_us",
    "codebook": "codebook_upload_us",
}


def close(a: float, b: float, rel: float = 1e-6,
          abs_tol: float = 1e-3) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def check_trace(trace_path: pathlib.Path):
    """Validate a Chrome trace-event JSON; returns per-category span
    duration sums over track 0 for cross-checking against metrics."""
    try:
        doc = json.loads(trace_path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{trace_path.name} does not parse: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{trace_path.name}: traceEvents missing or empty")
    check_finite(events, f"{trace_path.name}.traceEvents")

    spans_by_tid = {}
    tids_named = set()
    cat_us = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                tids_named.add(ev.get("tid"))
            continue
        if ph not in ("X", "i"):
            fail(f"{trace_path.name}: event {i} has unknown ph '{ph}'")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{trace_path.name}: event {i} has bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"{trace_path.name}: span {i} has bad dur {dur!r}")
            tid = ev.get("tid", 0)
            spans_by_tid.setdefault(tid, []).append((ts, dur, i))
            if tid == 0 and ev.get("cat") in BREAKDOWN_CATS:
                cat_us[ev["cat"]] = cat_us.get(ev["cat"], 0.0) + dur

    if not spans_by_tid:
        fail(f"{trace_path.name}: no spans recorded")

    # Per-track spans must nest: sorted by (start, -dur), every span is
    # either disjoint from or fully contained in the enclosing one.
    tol = 1e-6
    for tid, spans in spans_by_tid.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for ts, dur, i in spans:
            end = ts + dur
            while stack and stack[-1] <= ts * (1 + tol) + tol:
                stack.pop()
            if stack and end > stack[-1] * (1 + tol) + tol:
                fail(f"{trace_path.name}: span {i} on tid {tid} "
                     f"overlaps its enclosing span "
                     f"(ends {end}, enclosing ends {stack[-1]})")
            stack.append(end)

    print(f"check_bench_json: {trace_path.name} OK "
          f"({sum(len(s) for s in spans_by_tid.values())} spans on "
          f"{len(spans_by_tid)} tracks, {len(tids_named)} named)")
    return cat_us


def check_metrics(metrics_path: pathlib.Path, cat_us) -> None:
    """Validate a serving_sim --metrics-json document; cross-check the
    trace's category sums against the report breakdown when given."""
    try:
        doc = json.loads(metrics_path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{metrics_path.name} does not parse: {e}")
    check_finite(doc, metrics_path.name)
    report = doc.get("report")
    if not isinstance(report, dict):
        fail(f"{metrics_path.name}: 'report' object missing")
    for key in ("busy_time_us", "prefill_us", "decode_us", "comm_us",
                "codebook_upload_us", "sim_time_us", "tp_degree"):
        if key not in report:
            fail(f"{metrics_path.name}: report lacks '{key}'")
    for key in ("prefix_cache", "kv_scheme"):
        if not isinstance(report.get(key), dict):
            fail(f"{metrics_path.name}: report lacks the '{key}' object")
    busy = report["busy_time_us"]
    parts = (report["prefill_us"] + report["decode_us"] +
             report["comm_us"] + report["codebook_upload_us"])
    if not close(parts, busy):
        fail(f"{metrics_path.name}: breakdown sums to {parts}, "
             f"busy_time_us is {busy}")
    if not isinstance(doc.get("metrics"), dict):
        fail(f"{metrics_path.name}: 'metrics' registry object missing")
    if cat_us is not None:
        for cat, field in BREAKDOWN_CATS.items():
            want = report[field]
            got = cat_us.get(cat, 0.0)
            if not close(got, want):
                fail(f"{metrics_path.name}: trace category '{cat}' "
                     f"sums to {got}, report {field} is {want}")
        print("check_bench_json: trace category sums match the "
              "report breakdown")
    print(f"check_bench_json: {metrics_path.name} OK "
          f"(busy {busy / 1e6:.3f} s)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--no-run", action="store_true",
                        help="validate existing JSONs without running "
                             "the benches")
    parser.add_argument("--skip-bench", action="store_true",
                        help="skip bench JSON validation entirely")
    parser.add_argument("--trace", type=pathlib.Path,
                        help="validate a serving_sim --trace-out JSON")
    parser.add_argument("--metrics", type=pathlib.Path,
                        help="validate a serving_sim --metrics-json "
                             "JSON")
    args = parser.parse_args()

    cat_us = None
    if args.trace:
        if not args.trace.is_file():
            fail(f"trace file '{args.trace}' does not exist")
        cat_us = check_trace(args.trace)
    if args.metrics:
        if not args.metrics.is_file():
            fail(f"metrics file '{args.metrics}' does not exist")
        check_metrics(args.metrics, cat_us)

    if args.skip_bench:
        print("check_bench_json: bench validation skipped")
        return

    build = pathlib.Path(args.build_dir)
    if not build.is_dir():
        fail(f"build dir '{build}' does not exist")

    if not args.no_run:
        for cmd, _ in SMOKE_TARGETS:
            exe = build / cmd[0]
            if not exe.exists():
                fail(f"bench target '{exe}' not built")
            print(f"check_bench_json: running {' '.join(cmd)}")
            proc = subprocess.run(cmd, cwd=build,
                                  stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                fail(f"{' '.join(cmd)} exited {proc.returncode}")

    expected = {json_name for _, json_name in SMOKE_TARGETS}
    found = {p.name for p in build.glob("BENCH_*.json")}
    missing = expected - found
    if missing:
        fail(f"expected bench JSONs not emitted: {sorted(missing)}")

    for path in sorted(build.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            fail(f"{path.name} does not parse: {e}")
        if not isinstance(doc, dict) or not doc:
            fail(f"{path.name}: top level must be a non-empty object")
        check_finite(doc, path.name)
        check_sweeps_non_empty(doc, path.name)
        check_required(doc, path.name)
        check_prefix_sweep(doc, path.name)
        check_kv_sweep(doc, path.name)
        check_fleet_sweep(doc, path.name)
        check_router_sweep(doc, path.name)
        print(f"check_bench_json: {path.name} OK "
              f"({len(doc)} top-level keys)")
    print("check_bench_json: all bench JSONs valid")


if __name__ == "__main__":
    main()
