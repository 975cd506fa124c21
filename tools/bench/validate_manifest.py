#!/usr/bin/env python3
"""Validate an atmsim run-provenance manifest.

Structural validation of the `atmsim-run-manifest-v2` schema written
by obs::RunManifest::writeJson (documented in docs/OBSERVABILITY.md):
required keys, value types, and internal consistency (phase entries,
metric snapshot entries, counter values, build provenance, fleet
worker records). Pure stdlib so it runs in CI without extra packages.

Usage: validate_manifest.py <manifest.json> [...]
Exit status is nonzero when any manifest fails validation.
"""

from __future__ import annotations

import json
import sys

SCHEMA = "atmsim-run-manifest-v2"

NUMBER = (int, float)


class ValidationError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def check_type(obj: dict, key: str, types, allow_none: bool = False):
    require(key in obj, f"missing required key '{key}'")
    value = obj[key]
    if value is None and allow_none:
        return value
    require(
        isinstance(value, types) and not isinstance(value, bool),
        f"key '{key}' has type {type(value).__name__}, "
        f"expected {types}",
    )
    return value


def validate_phase(phase: dict, where: str) -> None:
    require(isinstance(phase, dict), f"{where}: phase is not an object")
    name = check_type(phase, "name", str)
    require(name != "", f"{where}: empty phase name")
    wall_ns = check_type(phase, "wall_ns", NUMBER)
    require(wall_ns >= 0, f"{where}: negative wall_ns")
    calls = check_type(phase, "calls", int)
    require(calls >= 0, f"{where}: negative calls")


def validate_metric(name: str, entry: dict) -> None:
    require(isinstance(entry, dict), f"metric '{name}' is not an object")
    kind = check_type(entry, "kind", str)
    require(
        kind in ("counter", "gauge", "histogram"),
        f"metric '{name}' has unknown kind '{kind}'",
    )
    require("value" in entry, f"metric '{name}' has no value")
    value = entry["value"]
    if kind == "counter":
        require(
            isinstance(value, int) and not isinstance(value, bool),
            f"counter '{name}' value is not an integer",
        )
    elif kind == "gauge":
        require(
            isinstance(value, NUMBER) and not isinstance(value, bool),
            f"gauge '{name}' value is not a number",
        )
    else:
        require(
            isinstance(value, dict),
            f"histogram '{name}' value is not an object",
        )
        for key in ("count", "sum", "mean", "min", "max", "underflow",
                    "overflow"):
            check_type(value, key, NUMBER)
        layout = check_type(value, "layout", str)
        require(
            layout in ("linear", "edges"),
            f"histogram '{name}' has unknown layout '{layout}'",
        )
        if layout == "linear":
            check_type(value, "lo", NUMBER)
            width = check_type(value, "width", NUMBER)
            require(width > 0, f"histogram '{name}': width must be "
                               "positive for a linear layout")
        buckets = check_type(value, "buckets", list)
        binned = 0
        for i, bucket in enumerate(buckets):
            where = f"histogram '{name}' bucket {i}"
            require(isinstance(bucket, dict), f"{where}: not an object")
            lo = check_type(bucket, "lo", NUMBER)
            hi = check_type(bucket, "hi", NUMBER)
            require(hi > lo, f"{where}: edges not ascending")
            hits = check_type(bucket, "hits", int)
            require(hits >= 0, f"{where}: negative hits")
            binned += hits
        total = binned + value["underflow"] + value["overflow"]
        require(
            total == value["count"],
            f"histogram '{name}': bucket hits + under/overflow "
            f"({total}) != count ({value['count']})",
        )


def validate_build(build: dict) -> None:
    require(isinstance(build, dict), "build is not an object")
    compiler = check_type(build, "compiler", str, allow_none=True)
    require(
        compiler is None or compiler != "",
        "build.compiler is an empty string",
    )
    require("assertions" in build, "missing required key 'assertions'")
    require(
        isinstance(build["assertions"], bool),
        "build.assertions is not a boolean",
    )
    commit = check_type(build, "git_commit", str, allow_none=True)
    require("git_dirty" in build, "missing required key 'git_dirty'")
    dirty = build["git_dirty"]
    require(
        dirty is None or isinstance(dirty, bool),
        "build.git_dirty is neither a boolean nor null",
    )
    require(
        (commit is None) == (dirty is None),
        "build: git_commit and git_dirty must be set (or null) "
        "together",
    )
    if commit is not None:
        require(
            len(commit) == 40
            and all(c in "0123456789abcdef" for c in commit),
            "build.git_commit is not a 40-digit hex sha",
        )
    requested = check_type(build, "jobs_requested", int, allow_none=True)
    require(
        requested is None or requested >= 1,
        "build.jobs_requested must be >= 1 when present",
    )
    resolved = check_type(build, "jobs_resolved", int)
    require(resolved >= 1, "build.jobs_resolved must be >= 1")
    require(
        requested is None or requested == resolved,
        "build: an explicit --jobs request must equal jobs_resolved",
    )


def validate_worker(worker: dict, where: str) -> None:
    require(isinstance(worker, dict), f"{where}: not an object")
    for key in ("worker", "pid", "shards_completed", "chips_observed",
                "obs_messages", "span_events", "spans_dropped"):
        value = check_type(worker, key, int)
        require(value >= 0, f"{where}.{key} is negative")
    require("partial" in worker, f"{where}: missing 'partial'")
    partial = worker["partial"]
    if partial is None:
        return
    require(isinstance(partial, dict), f"{where}.partial: not an object")
    shards = check_type(partial, "shards", list)
    require(
        all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
            for s in shards),
        f"{where}.partial.shards contains invalid shard indices",
    )
    require(len(shards) >= 1, f"{where}.partial lists no shards")
    chips = check_type(partial, "chips_observed", int)
    require(chips >= 0, f"{where}.partial.chips_observed is negative")
    metrics = check_type(partial, "metrics", dict)
    for name, entry in metrics.items():
        validate_metric(f"{where}.partial:{name}", entry)


def validate_fleet(fleet: dict) -> None:
    require(isinstance(fleet, dict), "fleet is not an object")
    for key in ("shards_total", "shards_completed", "shards_failed",
                "chips_total", "chips_done", "chips_skipped",
                "retries", "checkpoints_written"):
        value = check_type(fleet, key, int)
        require(value >= 0, f"fleet.{key} is negative")
    require(
        "resumed" in fleet and isinstance(fleet["resumed"], bool),
        "fleet.resumed is not a boolean",
    )
    require(
        fleet["shards_completed"] + fleet["shards_failed"]
        <= fleet["shards_total"],
        "fleet: completed + failed shards exceed shards_total",
    )
    require(
        fleet["chips_done"] + fleet["chips_skipped"]
        <= fleet["chips_total"],
        "fleet: done + skipped chips exceed chips_total",
    )
    retries = check_type(fleet, "shard_retries", dict)
    for shard, count in retries.items():
        require(
            shard.isdigit(),
            f"fleet.shard_retries key '{shard}' is not a shard index",
        )
        require(
            isinstance(count, int) and not isinstance(count, bool)
            and count >= 1,
            f"fleet.shard_retries['{shard}'] is not a positive int",
        )
    failed = check_type(fleet, "failed_shards", list)
    require(
        all(isinstance(s, int) and not isinstance(s, bool)
            for s in failed),
        "fleet.failed_shards contains non-integer entries",
    )
    require(
        len(failed) == fleet["shards_failed"],
        f"fleet: failed_shards lists {len(failed)} shards but "
        f"shards_failed says {fleet['shards_failed']}",
    )
    configured = check_type(fleet, "workers_configured", int)
    require(configured >= 0, "fleet.workers_configured is negative")
    workers = check_type(fleet, "workers", list)
    seen = set()
    partial_shards = []
    for i, worker in enumerate(workers):
        validate_worker(worker, f"fleet.workers[{i}]")
        slot = worker["worker"]
        require(
            slot not in seen,
            f"fleet.workers lists slot {slot} twice",
        )
        seen.add(slot)
        if worker["partial"] is not None:
            partial_shards.extend(worker["partial"]["shards"])
    require(
        len(partial_shards) == len(set(partial_shards)),
        "fleet: a shard appears in more than one workers[].partial",
    )
    require(
        all(s in failed for s in partial_shards),
        "fleet: workers[].partial covers a shard not in failed_shards",
    )


def validate_manifest(manifest: dict) -> None:
    require(isinstance(manifest, dict), "manifest is not a JSON object")
    schema = check_type(manifest, "schema", str)
    require(
        schema == SCHEMA,
        f"schema is '{schema}', expected '{SCHEMA}'",
    )
    tool = check_type(manifest, "tool", str)
    require(tool != "", "empty tool name")
    check_type(manifest, "chip", str, allow_none=True)
    seed = check_type(manifest, "seed", int)
    require(seed >= 0, "negative seed")
    jobs = check_type(manifest, "jobs", int)
    require(jobs >= 1, "jobs must be at least 1")

    args = check_type(manifest, "args", list)
    require(
        all(isinstance(a, str) for a in args),
        "args contains non-string entries",
    )
    check_type(manifest, "fault_campaign", str, allow_none=True)

    config = check_type(manifest, "config", dict)
    require(
        all(isinstance(v, str) for v in config.values()),
        "config contains non-string values",
    )
    validate_build(check_type(manifest, "build", dict))
    wall = check_type(manifest, "wall_seconds", NUMBER)
    require(wall >= 0, "negative wall_seconds")

    engine = check_type(manifest, "engine", dict)
    runs = check_type(engine, "runs", int)
    steps = check_type(engine, "steps", int)
    require(runs >= 0 and steps >= 0, "negative engine totals")
    check_type(engine, "wall_seconds", NUMBER)
    check_type(engine, "sim_ns", NUMBER)
    check_type(engine, "steps_per_sec", NUMBER)
    mode = check_type(engine, "mode", str)
    require(
        mode in ("soa", "sampled"),
        f"unknown engine mode '{mode}'",
    )
    fast_forwarded = check_type(engine, "fast_forwarded_steps", int)
    require(fast_forwarded >= 0, "negative fast_forwarded_steps")
    require(
        fast_forwarded <= steps,
        "fast_forwarded_steps exceeds engine steps",
    )
    require(
        mode == "sampled" or fast_forwarded == 0,
        f"fast_forwarded_steps nonzero in '{mode}' mode",
    )
    speedup = check_type(engine, "speedup", NUMBER)
    require(speedup >= 1.0, "fast-forward speedup below 1.0")
    phases = check_type(engine, "phases", list)
    for i, phase in enumerate(phases):
        validate_phase(phase, f"engine.phases[{i}]")
    if runs > 0:
        require(steps > 0, "engine ran but advanced no steps")

    counters = check_type(manifest, "counters", dict)
    for name, value in counters.items():
        require(
            isinstance(value, NUMBER) and not isinstance(value, bool),
            f"counter '{name}' is not a number",
        )

    metrics = check_type(manifest, "metrics", dict)
    for name, entry in metrics.items():
        validate_metric(name, entry)

    if "interrupted" in manifest:
        require(
            isinstance(manifest["interrupted"], bool),
            "interrupted is not a boolean",
        )
    if "fleet" in manifest:
        validate_fleet(manifest["fleet"])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            validate_manifest(manifest)
        except (OSError, json.JSONDecodeError, ValidationError) as err:
            print(f"validate_manifest: {path}: {err}", file=sys.stderr)
            status = 1
            continue
        engine = manifest["engine"]
        print(
            f"validate_manifest: {path}: OK "
            f"(tool={manifest['tool']}, runs={engine['runs']}, "
            f"steps={engine['steps']}, "
            f"metrics={len(manifest['metrics'])})"
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
