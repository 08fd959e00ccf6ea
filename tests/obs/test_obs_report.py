"""Unit tests for trace aggregation (:mod:`repro.obs.report`)."""

import json

from repro.obs.report import (
    aggregate_trace,
    count_events,
    read_trace,
    render_report,
)


def _rec(span, name, t0, t1, parent=None, events=()):
    return {
        "trace": "t", "span": span, "parent": parent, "name": name,
        "t0": t0, "t1": t1, "pid": 1, "attrs": {}, "events": list(events),
    }


class TestAggregate:
    def test_self_time_subtracts_direct_children(self):
        records = [
            _rec("a", "outer", 0.0, 10.0),
            _rec("b", "inner", 1.0, 4.0, parent="a"),
            _rec("c", "inner", 5.0, 7.0, parent="a"),
        ]
        rows = {r.name: r for r in aggregate_trace(records)}
        assert rows["outer"].count == 1
        assert rows["outer"].total == 10.0
        assert rows["outer"].self_time == 5.0  # 10 - (3 + 2)
        assert rows["inner"].count == 2
        assert rows["inner"].total == 5.0
        assert rows["inner"].self_time == 5.0  # leaves keep everything

    def test_grandchildren_only_charge_their_parent(self):
        records = [
            _rec("a", "outer", 0.0, 10.0),
            _rec("b", "mid", 0.0, 8.0, parent="a"),
            _rec("c", "leaf", 0.0, 6.0, parent="b"),
        ]
        rows = {r.name: r for r in aggregate_trace(records)}
        assert rows["outer"].self_time == 2.0
        assert rows["mid"].self_time == 2.0
        assert rows["leaf"].self_time == 6.0

    def test_overlapping_children_clamp_at_zero(self):
        # Parallel subtree jobs overlap; self time must not go negative.
        records = [
            _rec("a", "outer", 0.0, 4.0),
            _rec("b", "job", 0.0, 4.0, parent="a"),
            _rec("c", "job", 0.0, 4.0, parent="a"),
        ]
        rows = {r.name: r for r in aggregate_trace(records)}
        assert rows["outer"].self_time == 0.0

    def test_missing_parent_is_kept_not_dropped(self):
        # A watchdog-killed worker can leave a completed child whose
        # ancestor never closed; the row still appears.
        records = [_rec("b", "survivor", 1.0, 2.0, parent="gone")]
        rows = aggregate_trace(records)
        assert [r.name for r in rows] == ["survivor"]
        assert rows[0].total == 1.0

    def test_unclosed_span_is_skipped(self):
        records = [
            _rec("a", "closed", 0.0, 1.0),
            _rec("b", "open", 0.0, None),
        ]
        rows = aggregate_trace(records)
        assert [r.name for r in rows] == ["closed"]

    def test_rows_sorted_by_self_time(self):
        records = [
            _rec("a", "small", 0.0, 1.0),
            _rec("b", "big", 0.0, 5.0),
        ]
        assert [r.name for r in aggregate_trace(records)] == ["big", "small"]


class TestReadTrace:
    def test_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            json.dumps(_rec("a", "good", 0.0, 1.0)),
            json.dumps({"metrics": {"repro_x_total": 1}}),  # metrics dump
            "",                                             # blank line
            '{"span": "torn", "t0": 0.0',                   # torn tail
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        recs = list(read_trace(str(path)))
        assert [r["name"] for r in recs] == ["good"]


class TestRender:
    def test_empty_trace(self):
        assert "empty" in render_report([])

    def test_table_and_events(self):
        records = [
            _rec("a", "partition", 0.0, 2.0),
            _rec("b", "fm.pass", 0.0, 1.0, parent="a",
                 events=[{"name": "retry", "t": 0.5},
                         {"name": "retry", "t": 0.8}]),
        ]
        text = render_report(aggregate_trace(records),
                             events=count_events(records))
        assert "stage" in text and "self %" in text
        assert "partition" in text and "fm.pass" in text
        assert "retry: 2" in text

    def test_percentages_sum_to_about_hundred(self):
        records = [
            _rec("a", "x", 0.0, 3.0),
            _rec("b", "y", 0.0, 1.0),
        ]
        text = render_report(aggregate_trace(records))
        pcts = [float(tok.rstrip("%")) for tok in text.split()
                if tok.endswith("%") and tok != "%"]
        assert abs(sum(pcts) - 100.0) < 0.3


class TestCountEvents:
    def test_tallies_by_name(self):
        records = [
            _rec("a", "x", 0.0, 1.0,
                 events=[{"name": "retry", "t": 0.1},
                         {"name": "kill", "t": 0.2}]),
            _rec("b", "y", 0.0, 1.0, events=[{"name": "retry", "t": 0.3}]),
            _rec("c", "z", 0.0, 1.0),
        ]
        assert count_events(records) == {"retry": 2, "kill": 1}

    def test_deadline_stops_are_tallied_by_where(self):
        records = [
            _rec("a", "multilevel.coarsen", 0.0, 1.0,
                 events=[{"name": "deadline", "t": 0.1, "where": "match",
                          "visited": 256}]),
            _rec("b", "fm.pass", 0.0, 1.0,
                 events=[{"name": "deadline", "t": 0.2, "where": "fm"},
                         {"name": "retry", "t": 0.3}]),
        ]
        assert count_events(records) == {
            "deadline[match]": 1, "deadline[fm]": 1, "retry": 1,
        }
