#!/usr/bin/env python3
"""Validate spp.attribution.v1 documents emitted by --attribution runs.

    check_attribution.py FILE [FILE ...]

Structural schema check: required fields, rank ordering, score
consistency, totals vs. per-entry accounting. Exits non-zero with a
message on the first violation; prints a one-line summary per file
on success. Used by the CI attribution-smoke job.

Stdlib only; no third-party dependencies.
"""

import json
import sys

ATTR_SCHEMA = "spp.attribution.v1"
STAT_FIELDS = (
    "correct", "over", "under", "unpredicted", "wasted_bytes",
    "under_ticks", "messages", "noc_bytes", "score",
)
ENTRY_FIELDS = (
    "rank", "sync", "sync_type", "sync_static", "sync_epoch",
    "region", "core", "stats",
)


def fail(msg):
    print(f"check_attribution: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_stats(stats, where):
    for f in STAT_FIELDS:
        if f not in stats:
            fail(f"{where}: missing stats field '{f}'")
        if not isinstance(stats[f], (int, float)) or stats[f] < 0:
            fail(f"{where}: stats field '{f}' not a non-negative "
                 f"number: {stats[f]!r}")
    want = (stats["wasted_bytes"] + stats["noc_bytes"]
            + stats["under_ticks"])
    if stats["score"] != want:
        fail(f"{where}: score {stats['score']} != wasted_bytes + "
             f"noc_bytes + under_ticks = {want}")


def validate_attribution(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != ATTR_SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {ATTR_SCHEMA!r}")
    opts = doc.get("options")
    if not isinstance(opts, dict):
        fail("missing 'options' object")
    for k in ("top_k", "region_bytes"):
        if not isinstance(opts.get(k), (int, float)) or opts[k] <= 0:
            fail(f"options.{k} missing or non-positive")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        fail("missing 'entries' array")
    if len(entries) > opts["top_k"]:
        fail(f"{len(entries)} entries exceed top_k={opts['top_k']}")
    prev_score = None
    for i, e in enumerate(entries):
        where = f"entries[{i}]"
        for f in ENTRY_FIELDS:
            if f not in e:
                fail(f"{where}: missing field '{f}'")
        if e["rank"] != i + 1:
            fail(f"{where}: rank {e['rank']} != {i + 1}")
        for f in ("region", "sync_static"):
            if not str(e[f]).startswith("0x"):
                fail(f"{where}: {f} not a hex string: {e[f]!r}")
        check_stats(e["stats"], where)
        score = e["stats"]["score"]
        if prev_score is not None and score > prev_score:
            fail(f"{where}: score {score} out of order "
                 f"(previous {prev_score})")
        prev_score = score
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail("missing 'totals' object")
    check_stats(totals, "totals")
    # Entries plus overflow must account for every decision and byte.
    acc = {f: 0 for f in STAT_FIELDS}
    for e in entries:
        for f in STAT_FIELDS:
            acc[f] += e["stats"][f]
    overflow = doc.get("overflow")
    if overflow is not None:
        if not isinstance(overflow.get("keys"), (int, float)):
            fail("overflow.keys missing")
        check_stats(overflow["stats"], "overflow")
        for f in STAT_FIELDS:
            acc[f] += overflow["stats"][f]
    for f in STAT_FIELDS:
        if f == "score":
            continue
        if acc[f] != totals[f]:
            fail(f"entries+overflow {f} = {acc[f]} != totals "
                 f"{totals[f]}")
    print(f"check_attribution: OK: {path}: {len(entries)} entries, "
          f"{int(totals['messages'])} messages, "
          f"{int(totals['wasted_bytes'])} wasted bytes")


def main():
    if len(sys.argv) < 2 or sys.argv[1] in ("-h", "--help"):
        print("usage: check_attribution.py FILE [FILE ...]",
              file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        validate_attribution(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
