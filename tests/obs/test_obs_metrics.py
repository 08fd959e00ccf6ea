"""Unit tests for the metrics registry (:mod:`repro.obs.metrics`)."""

import json
import math
import re
import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, reg):
        c = reg.counter("runs_total", "Runs.")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, reg):
        c = reg.counter("runs_total", "Runs.")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_are_independent_children(self, reg):
        c = reg.counter("events_total", "Events.", ("event",))
        c.labels(event="hit").inc(3)
        c.labels(event="miss").inc()
        assert c.labels(event="hit").value == 3
        assert c.labels(event="miss").value == 1
        # Same combination -> same child object.
        assert c.labels(event="hit") is c.labels(event="hit")
        assert c.labels("hit") is c.labels(event="hit")

    def test_label_arity_checked(self, reg):
        c = reg.counter("events_total", "Events.", ("event",))
        with pytest.raises(ValueError):
            c.labels("a", "b")
        with pytest.raises(TypeError):
            c.labels("a", event="b")

    def test_reserved_label_name_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("bad_total", "Bad.", ("le",))


class TestGauge:
    def test_set_inc_dec(self, reg):
        g = reg.gauge("inflight", "In-flight requests.")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0


class TestHistogram:
    def test_observations_land_in_correct_buckets(self, reg):
        h = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        h.observe(0.05)   # <= 0.1
        h.observe(0.5)    # <= 1.0
        h.observe(0.1)    # boundary is inclusive (le semantics)
        h.observe(30.0)   # overflow -> +Inf only
        samples = {
            (suffix, labels): value
            for suffix, labels, value in h._samples()
        }
        # Bucket counts are cumulative, Prometheus-style.
        assert samples[("_bucket", (("le", "0.1"),))] == 2
        assert samples[("_bucket", (("le", "1"),))] == 3
        assert samples[("_bucket", (("le", "+Inf"),))] == 4
        assert samples[("_count", ())] == 4
        assert samples[("_sum", ())] == pytest.approx(30.65)

    def test_default_buckets_are_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)

    def test_empty_buckets_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.histogram("h", "H.", buckets=())


class TestRegistry:
    def test_reregistration_is_idempotent(self, reg):
        a = reg.counter("runs_total", "Runs.")
        b = reg.counter("runs_total", "Runs.")
        assert a is b

    def test_cross_kind_collision_raises(self, reg):
        reg.counter("x_total", "X.")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "X.")

    def test_reset_zeroes_in_place(self, reg):
        # Instrumented modules hold references at import time; reset
        # must zero those same objects, not replace them.
        c = reg.counter("runs_total", "Runs.")
        lc = reg.counter("events_total", "Events.", ("event",))
        h = reg.histogram("lat_seconds", "Latency.")
        c.inc(7)
        lc.labels(event="hit").inc(2)
        h.observe(0.2)
        reg.reset()
        assert c.value == 0
        assert lc.labels(event="hit").value == 0
        assert h.count == 0 and h.sum == 0.0
        assert reg.counter("runs_total", "Runs.") is c

    def test_get(self, reg):
        c = reg.counter("runs_total", "Runs.")
        assert reg.get("runs_total") is c
        assert reg.get("absent") is None

    def test_snapshot_shape(self, reg):
        c = reg.counter("events_total", "Events.", ("event",))
        c.labels(event="hit").inc(2)
        snap = reg.snapshot()
        assert snap["events_total"]["kind"] == "counter"
        (sample,) = snap["events_total"]["samples"]
        assert sample == {
            "suffix": "", "labels": {"event": "hit"}, "value": 2.0,
        }

    def test_concurrent_increments_do_not_lose_updates(self, reg):
        c = reg.counter("runs_total", "Runs.")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


# A minimal structural validator for the Prometheus text exposition
# format (0.0.4): HELP/TYPE headers, then sample lines whose metric
# name extends the family name, with well-formed label sets.
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' (?P<value>[0-9eE.+-]+|\+Inf|-Inf|NaN)$'
)


def parse_prometheus(text):
    """Parse exposition text into {family: {"type":..., "samples":[...]}};
    raises AssertionError on any structural violation."""
    families = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"help": help_text, "type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name == current, "TYPE must follow its HELP"
            assert kind in ("counter", "gauge", "histogram", "untyped")
            families[name]["type"] = kind
        else:
            m = _SAMPLE_RE.match(line)
            assert m, f"malformed sample line: {line!r}"
            assert current and m.group("name").startswith(current), (
                f"sample {m.group('name')} outside family {current}"
            )
            families[current]["samples"].append(
                (m.group("name"), m.group("labels") or "",
                 float(m.group("value").replace("+Inf", "inf")))
            )
    return families


class TestPrometheusRendering:
    def test_render_is_valid_exposition_text(self, reg):
        c = reg.counter("repro_events_total", "Lifecycle events.", ("event",))
        c.labels(event="hit").inc(3)
        reg.gauge("repro_inflight", "In-flight.").set(2)
        h = reg.histogram("repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        h.observe(0.05)
        text = reg.render()
        assert text.endswith("\n")
        fams = parse_prometheus(text)
        assert fams["repro_events_total"]["type"] == "counter"
        assert fams["repro_inflight"]["type"] == "gauge"
        assert fams["repro_lat_seconds"]["type"] == "histogram"
        samples = dict(
            (name + labels, value)
            for name, labels, value in fams["repro_events_total"]["samples"]
        )
        assert samples['repro_events_total{event="hit"}'] == 3.0

    def test_histogram_series_complete(self, reg):
        h = reg.histogram("repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        h.observe(0.5)
        fams = parse_prometheus(reg.render())
        names = [n + l for n, l, _ in fams["repro_lat_seconds"]["samples"]]
        assert names == [
            'repro_lat_seconds_bucket{le="0.1"}',
            'repro_lat_seconds_bucket{le="1"}',
            'repro_lat_seconds_bucket{le="+Inf"}',
            "repro_lat_seconds_sum",
            "repro_lat_seconds_count",
        ]

    def test_label_values_escaped(self, reg):
        c = reg.counter("repro_events_total", "Events.", ("event",))
        c.labels(event='he said "hi"\\').inc()
        fams = parse_prometheus(reg.render())
        (name_labels,) = [
            n + l for n, l, _ in fams["repro_events_total"]["samples"]
        ]
        assert '\\"hi\\"' in name_labels
        assert "\\\\" in name_labels

    def test_integer_values_render_without_decimal(self, reg):
        reg.counter("repro_n_total", "N.").inc(5)
        assert "\nrepro_n_total 5\n" in "\n" + reg.render()

    def test_infinity_formatting(self):
        from repro.obs.metrics import _fmt_value

        assert _fmt_value(math.inf) == "+Inf"
        assert _fmt_value(2.0) == "2"
        assert _fmt_value(0.25) == "0.25"


class TestModuleRegistry:
    def test_default_registry_roundtrip(self):
        # The module-level conveniences must target the shared REGISTRY
        # that the daemon endpoint renders.
        from repro.obs import metrics as m

        c = m.counter("repro_test_module_total", "Module-level test counter.")
        assert m.REGISTRY.get("repro_test_module_total") is c
        before = c.value
        c.inc()
        assert f"repro_test_module_total {int(before) + 1}" in m.render_prometheus()
        assert "repro_test_module_total" in m.snapshot()

    def test_instrumented_modules_register_expected_names(self):
        # Importing the instrumented layers must (idempotently) leave
        # their instruments in the default registry.
        import repro.core.kway  # noqa: F401
        import repro.eval.sweep  # noqa: F401
        import repro.partitioner.fm  # noqa: F401
        import repro.partitioner.multilevel  # noqa: F401
        import repro.serve.daemon  # noqa: F401
        import repro.utils.executor  # noqa: F401
        from repro.obs import metrics as m

        for name in (
            "repro_fm_passes_total",
            "repro_coarsen_levels_total",
            "repro_executor_tasks_total",
            "repro_sweep_chunks_total",
            "repro_serve_events_total",
            "repro_serve_request_seconds",
        ):
            assert m.REGISTRY.get(name) is not None, name

    def test_prebound_hot_path_children_reset_and_render(self):
        # The FM, coarsening and V-cycle counters bind their label
        # children once at import; a registry reset must zero those
        # very objects in place, and they must keep rendering.
        from repro.obs import metrics as m
        from repro.partitioner import fm, multilevel, vcycle

        prebound = {
            ("repro_fm_passes_total", "kind", "bi"): fm._FM_PASSES_BI,
            ("repro_fm_moves_total", "kind", "bi"): fm._FM_MOVES_BI,
            ("repro_fm_moves_tried_total", "kind", "bi"): fm._FM_TRIED_BI,
            ("repro_fm_gain_total", "kind", "bi"): fm._FM_GAIN_BI,
            ("repro_fm_passes_total", "kind", "kway"): fm._FM_PASSES_KWAY,
            ("repro_fm_moves_total", "kind", "kway"): fm._FM_MOVES_KWAY,
            ("repro_fm_moves_tried_total", "kind", "kway"):
                fm._FM_TRIED_KWAY,
            ("repro_fm_gain_total", "kind", "kway"): fm._FM_GAIN_KWAY,
            ("repro_coarsen_levels_total", "engine", "bi"):
                multilevel._COARSEN_LEVELS_BI,
            ("repro_coarsen_levels_total", "engine", "kway"):
                multilevel._COARSEN_LEVELS_KWAY,
            ("repro_vcycle_cycles_total", "kind", "bi"):
                vcycle._VCYCLE_CYCLES_BI,
            ("repro_vcycle_cycles_total", "kind", "kway"):
                vcycle._VCYCLE_CYCLES_KWAY,
            ("repro_vcycle_keep_best_total", "decision", "improved"):
                vcycle._VCYCLE_IMPROVED,
            ("repro_vcycle_keep_best_total", "decision", "kept"):
                vcycle._VCYCLE_KEPT,
        }
        for (name, label, value), child in prebound.items():
            assert m.REGISTRY.get(name).labels(**{label: value}) is child
            child.inc(3)
        m.REGISTRY.reset()
        fams = parse_prometheus(m.render_prometheus())
        for (name, label, value), child in prebound.items():
            assert child.value == 0
            samples = {
                n + lbl: v for n, lbl, v in fams[name]["samples"]
            }
            assert samples[f'{name}{{{label}="{value}"}}'] == 0.0
            child.inc()
        fams = parse_prometheus(m.render_prometheus())
        for (name, label, value), _ in prebound.items():
            samples = {
                n + lbl: v for n, lbl, v in fams[name]["samples"]
            }
            assert samples[f'{name}{{{label}="{value}"}}'] == 1.0


class TestFMMoveAccounting:
    """Every FM pass reports the moves it tried before its rollback."""

    @staticmethod
    def _pass_spans(path):
        spans = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("name") in ("fm.pass", "kway_fm.pass"):
                    spans.append(rec)
        return spans

    def test_tried_at_least_moved_on_every_pass(self, tmp_path):
        from repro import bipartition, load_instance, partition
        from repro.obs import trace
        from repro.partitioner import fm

        counters = (
            fm._FM_MOVES_BI, fm._FM_TRIED_BI,
            fm._FM_MOVES_KWAY, fm._FM_TRIED_KWAY,
        )
        before = [c.value for c in counters]
        path = str(tmp_path / "fm.jsonl")
        trace.enable(path)
        matrix = load_instance("sym_grid2d_s")
        bipartition(matrix, method="mediumgrain", refine=True, seed=3)
        partition(matrix, 4, algo="kway", seed=3, jobs=1)
        trace.disable()

        spans = self._pass_spans(path)
        kinds = {s["name"] for s in spans}
        assert kinds == {"fm.pass", "kway_fm.pass"}
        for s in spans:
            attrs = s["attrs"]
            assert attrs["tried"] >= attrs["moved"] >= 0, attrs
        # Some pass tried moves that its rollback then undid.
        assert any(s["attrs"]["tried"] > s["attrs"]["moved"] for s in spans)

        moves_bi, tried_bi, moves_kw, tried_kw = (
            c.value - b for c, b in zip(counters, before)
        )
        for kind, moves, tried in (
            ("fm.pass", moves_bi, tried_bi),
            ("kway_fm.pass", moves_kw, tried_kw),
        ):
            of_kind = [s["attrs"] for s in spans if s["name"] == kind]
            assert moves == sum(a["moved"] for a in of_kind)
            assert tried == sum(a["tried"] for a in of_kind)
            assert tried >= moves > 0

    def test_pass_spans_carry_level_size(self, tmp_path):
        """``nverts`` on both pass spans and ``k`` on the k-way one, so
        pass time can be split by level size."""
        from repro import bipartition, load_instance, partition
        from repro.obs import trace

        path = str(tmp_path / "fm.jsonl")
        trace.enable(path)
        matrix = load_instance("sym_grid2d_s")
        bipartition(matrix, method="mediumgrain", refine=True, seed=3)
        partition(matrix, 4, algo="kway", seed=3, jobs=1)
        trace.disable()

        spans = self._pass_spans(path)
        sizes = {}
        for name in ("fm.pass", "kway_fm.pass"):
            sizes[name] = {
                s["attrs"]["nverts"] for s in spans if s["name"] == name
            }
            assert sizes[name]
            assert all(isinstance(n, int) and n > 0 for n in sizes[name])
        # The multilevel bisection refines on several levels.
        assert len(sizes["fm.pass"]) > 1, sizes
        assert {
            s["attrs"]["k"] for s in spans if s["name"] == "kway_fm.pass"
        } == {4}
        assert all("k" not in s["attrs"] for s in spans
                   if s["name"] == "fm.pass")
