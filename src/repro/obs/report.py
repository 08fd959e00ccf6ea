"""Trace-file aggregation: JSONL spans -> self/total time-per-stage.

The ``repro-partition trace-report`` command reads a trace written by
:mod:`repro.obs.trace` (possibly by several processes appending to the
same file) and renders the classic profiler table: for every span
*name*, how many spans ran, their **total** wall time, and their
**self** time — total minus the time covered by their direct children
— so an end-to-end number decomposes into attributable stages.

Readers follow the journal contract: a torn final line (a worker
killed mid-write) is skipped, unknown record kinds are ignored, and a
span whose parent record is missing is attributed to the trace root
rather than dropped, so a partial trace still aggregates.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, List, Optional

__all__ = [
    "read_trace",
    "aggregate_trace",
    "render_report",
    "count_events",
    "StageRow",
]


def read_trace(path: str) -> Iterator[dict]:
    """Yield span records from a trace JSONL file, tolerating torn
    lines and skipping non-span records (e.g. a metrics dump)."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
            if isinstance(rec, dict) and "span" in rec and "t0" in rec:
                yield rec


class StageRow:
    """Aggregate for one span name."""

    __slots__ = ("name", "count", "total", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


def aggregate_trace(records: Iterable[dict]) -> List[StageRow]:
    """Fold span records into per-name rows, sorted by self time.

    Self time is a span's duration minus the summed durations of its
    *direct* children.  Concurrent children (parallel subtree jobs)
    can overlap, so self time is clamped at zero rather than allowed
    to go negative — the table stays a decomposition, not a ledger.
    """
    spans = {}
    for rec in records:
        if rec.get("t1") is None:
            continue  # never closed (should not happen; be tolerant)
        spans[rec["span"]] = rec

    child_time = {}
    for rec in spans.values():
        parent = rec.get("parent")
        if parent in spans:
            dur = rec["t1"] - rec["t0"]
            child_time[parent] = child_time.get(parent, 0.0) + dur

    rows = {}
    for rec in spans.values():
        row = rows.get(rec["name"])
        if row is None:
            row = rows[rec["name"]] = StageRow(rec["name"])
        dur = rec["t1"] - rec["t0"]
        row.count += 1
        row.total += dur
        row.self_time += max(0.0, dur - child_time.get(rec["span"], 0.0))

    return sorted(rows.values(), key=lambda r: -r.self_time)


def render_report(rows: List[StageRow],
                  events: Optional[dict] = None) -> str:
    """Monospace table: stage, count, total s, self s, self %."""
    if not rows:
        return "trace is empty (no completed spans)\n"
    total_self = sum(r.self_time for r in rows) or 1.0
    name_w = max(5, max(len(r.name) for r in rows))
    lines = [
        f"{'stage':<{name_w}}  {'count':>7}  {'total s':>9}  "
        f"{'self s':>9}  {'self %':>6}",
        f"{'-' * name_w}  {'-' * 7}  {'-' * 9}  {'-' * 9}  {'-' * 6}",
    ]
    for r in rows:
        lines.append(
            f"{r.name:<{name_w}}  {r.count:>7}  {r.total:>9.3f}  "
            f"{r.self_time:>9.3f}  {100.0 * r.self_time / total_self:>5.1f}%"
        )
    if events:
        lines.append("")
        lines.append("events:")
        for name in sorted(events):
            lines.append(f"  {name}: {events[name]}")
    return "\n".join(lines) + "\n"


def count_events(records: Iterable[dict]) -> dict:
    """Tally span events by name (retries, kills, degradations).

    An event with a ``where`` attribute — a ``deadline`` stop — is
    tallied under ``name[where]`` (``deadline[match]``), so the report
    shows where a deadline stopped the run.
    """
    out: dict = {}
    for rec in records:
        for ev in rec.get("events", ()):
            name = ev.get("name")
            if name:
                if "where" in ev:
                    name = f"{name}[{ev['where']}]"
                out[name] = out.get(name, 0) + 1
    return out
