"""Tests for trace aggregation (repro.obs.trace_report)."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import load_spans, render_trace_report, trace_report


def _span(name, span_id, parent_id, duration, start=0.0):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "thread": 1,
        "start": start,
        "duration": duration,
        "attrs": {},
    }


@pytest.fixture()
def spans():
    return [
        _span("build", 1, None, 1.0),
        _span("round", 2, 1, 0.6),
        _span("round", 3, 1, 0.3),
        _span("score", 4, 2, 0.2),
        # an unfinished span (interrupted run) must be dropped
        {"name": "round", "span_id": 5, "parent_id": 1, "start": 0.9},
    ]


class TestLoadSpans:
    def test_reads_jsonl(self, tmp_path, spans):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(span) + "\n" for span in spans),
            encoding="utf8",
        )
        assert load_spans(str(path)) == spans

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a"}\n\n{"name": "b"}\n', encoding="utf8")
        assert [span["name"] for span in load_spans(str(path))] == ["a", "b"]

    def test_junk_line_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a"}\nnot json\n', encoding="utf8")
        with pytest.raises(ReproError, match=":2:"):
            load_spans(str(path))

    def test_record_without_name_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"span_id": 1}\n', encoding="utf8")
        with pytest.raises(ReproError, match="'name'"):
            load_spans(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_spans(str(tmp_path / "nope.jsonl"))


class TestTraceReport:
    def test_self_time_subtracts_direct_children(self, spans):
        report = trace_report(spans)
        assert report.spans == 4  # the unfinished span is dropped
        assert report.wall == 1.0
        by_name = {kind.name: kind for kind in report.kinds}
        assert by_name["build"].self_time == pytest.approx(0.1)
        assert by_name["round"].self_time == pytest.approx(0.7)
        assert by_name["score"].self_time == pytest.approx(0.2)
        assert by_name["round"].count == 2
        assert by_name["round"].total == pytest.approx(0.9)
        assert by_name["round"].mean == pytest.approx(0.45)
        assert by_name["round"].max == pytest.approx(0.6)

    def test_kinds_ordered_by_self_time(self, spans):
        report = trace_report(spans)
        assert [kind.name for kind in report.kinds] == [
            "round",
            "score",
            "build",
        ]

    def test_critical_path_follows_longest_children(self, spans):
        report = trace_report(spans)
        assert [
            (hop.name, hop.span_id, hop.depth)
            for hop in report.critical_path
        ] == [("build", 1, 0), ("round", 2, 1), ("score", 4, 2)]

    def test_longest_root_wins(self, spans):
        spans = spans + [_span("other", 9, None, 2.0)]
        report = trace_report(spans)
        assert report.wall == 2.0
        assert report.critical_path[0].name == "other"

    def test_empty_trace(self):
        report = trace_report([])
        assert report.spans == 0
        assert report.wall == 0.0
        assert report.critical_path == ()

    def test_to_dict_round_trips_through_json(self, spans):
        payload = json.loads(json.dumps(trace_report(spans).to_dict()))
        assert payload["spans"] == 4
        assert payload["kinds"][0]["name"] == "round"
        assert payload["critical_path"][0]["depth"] == 0


class TestRender:
    def test_render_contains_table_and_path(self, spans):
        text = render_trace_report(trace_report(spans))
        assert "4 spans, wall 1000.0ms" in text
        assert "critical path" in text
        assert "100% of wall" in text

    def test_top_limits_rows(self, spans):
        text = render_trace_report(trace_report(spans), top=1)
        assert "... 2 more span kind(s)" in text
        assert "score" not in text.split("critical path")[0]

    def test_empty_report_renders(self):
        text = render_trace_report(trace_report([]))
        assert "(no finished root span)" in text
