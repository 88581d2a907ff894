"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import _parse_query, main
from repro.doc import build_tree, write_file
from repro.query import parse_for_clause, parse_path, twig


@pytest.fixture(scope="module")
def xml_file(tmp_path_factory):
    tree = build_tree(
        (
            "bib",
            [
                (
                    "author",
                    [
                        ("name", "A", []),
                        ("paper", [("year", 2001, []), "title", "keyword"]),
                        ("paper", [("year", 1999, []), "title"]),
                    ],
                ),
                ("author", [("name", "B", []), ("paper", [("year", 2003, []), "title"])]),
            ],
        )
    )
    path = tmp_path_factory.mktemp("cli") / "bib.xml"
    write_file(tree, path)
    return str(path)


class TestStats:
    def test_stats_output(self, xml_file, capsys):
        assert main(["stats", xml_file]) == 0
        out = capsys.readouterr().out
        assert "elements:" in out
        assert "coarsest synopsis:" in out

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.xml")]) == 2
        assert "error:" in capsys.readouterr().err


class TestBuild:
    def test_build_reports_inventory(self, xml_file, capsys):
        assert main(["build", xml_file, "--budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "synopsis" in out
        assert "nodes:" in out


class TestEstimate:
    def test_estimate_with_exact(self, xml_file, capsys):
        code = main(
            [
                "estimate",
                xml_file,
                "--query",
                "for a in author, p in a/paper[year > 2000]",
                "--budget",
                "2",
                "--exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated selectivity:" in out
        assert "exact selectivity:" in out

    def test_estimate_path_syntax(self, xml_file, capsys):
        code = main(
            ["estimate", xml_file, "--query", "author/paper/title",
             "--budget", "1"]
        )
        assert code == 0
        assert "estimated selectivity:" in capsys.readouterr().out

    def test_bad_query_is_error(self, xml_file, capsys):
        assert main(["estimate", xml_file, "--query", "a[[", "--budget", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_value_containing_in_is_a_path(self, tmp_path, capsys):
        tree = build_tree((
            "imdb",
            [
                ("movie", [("title", "Love in Paris", [])]),
                ("movie", [("title", "Heat", [])]),
            ],
        ))
        path = tmp_path / "movies.xml"
        write_file(tree, path)
        code = main([
            "estimate", str(path), "--query",
            '//movie/title{="Love in Paris"}', "--budget", "1", "--exact",
        ])
        assert code == 0
        assert "exact selectivity:     1\n" in capsys.readouterr().out


def _as_path(text):
    return twig(parse_path(text))


class TestQueryShape:
    """A query is a ``for`` clause when it opens with an optional ``for``,
    a variable and ``in``; any other text is a path."""

    @pytest.mark.parametrize("text, parse", [
        ('//movie/title{="Love in Paris"}', _as_path),
        ("author/paper/title", _as_path),
        ("for a in author, p in a/paper[year > 2000]", parse_for_clause),
        ("FOR a in author, p in a/paper", parse_for_clause),
        ("a in author, t in a/paper/title", parse_for_clause),
        ("$a in author", parse_for_clause),
    ])
    def test_parse_query_decides_by_clause_shape(self, text, parse):
        assert _parse_query(text).key == parse(text).key


class TestWorkload:
    def test_workload_stats(self, xml_file, capsys):
        assert main(["workload", xml_file, "--queries", "3", "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert "avg result:" in out
        assert out.count("t0 in") == 2


class TestDemo:
    def test_demo_runs_on_builtin_dataset(self, capsys):
        code = main(["demo", "--scale", "1500", "--budget", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated selectivity:" in out
        assert "exact selectivity:" in out


class TestPersistenceFlow:
    def test_build_save_then_estimate_from_synopsis(self, xml_file, tmp_path, capsys):
        synopsis_path = str(tmp_path / "synopsis.json")
        assert main(
            ["build", xml_file, "--budget", "2", "--out", synopsis_path]
        ) == 0
        assert "saved to" in capsys.readouterr().out
        code = main(
            [
                "estimate",
                xml_file,
                "--query",
                "author/paper",
                "--synopsis",
                synopsis_path,
                "--exact",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated selectivity:" in out


class TestObservability:
    def test_estimate_explain_prints_trail(self, xml_file, capsys):
        code = main([
            "estimate", xml_file,
            "--query", "for a in author, p in a/paper",
            "--budget", "2", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "--- explain ---" in out
        assert "query:" in out
        assert "embedding:" in out

    def test_build_trace_writes_jsonl(self, xml_file, tmp_path, capsys):
        trace = tmp_path / "build.jsonl"
        code = main([
            "build", xml_file, "--budget", "2", "--trace", str(trace),
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        spans = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert spans
        assert {"xbuild.build", "xbuild.round"} <= {
            span["name"] for span in spans
        }

    def test_metrics_command_exports_valid_json(self, tmp_path, capsys):
        from repro.obs import validate_payload

        out_path = tmp_path / "metrics.json"
        code = main([
            "metrics", "--dataset", "paperfig",
            "--budget", "2", "--queries", "4",
            "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert validate_payload(payload) == []
        names = {metric["name"] for metric in payload["metrics"]}
        assert {
            "build_rounds_total",
            "estimator_lookups_total",
            "serve_request_seconds",
            "serve_breaker_state",
        } <= names

    def test_metrics_command_prometheus_stdout(self, capsys):
        code = main([
            "metrics", "--dataset", "paperfig",
            "--budget", "2", "--queries", "2",
            "--format", "prometheus",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE build_rounds_total counter" in out
        assert "serve_breaker_state{" in out

    def test_serve_eval_metrics_json_envelope(self, tmp_path, capsys):
        from repro.obs import validate_payload

        out_path = tmp_path / "serve.json"
        code = main([
            "serve-eval", "--dataset", "paperfig",
            "--budget", "2", "--queries", "4",
            "--metrics-json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "breakers:" in out and "twig=closed" in out
        payload = json.loads(out_path.read_text())
        assert validate_payload(payload) == []
        assert len(payload["requests"]) == 4
        for request in payload["requests"]:
            assert request["tier"] in {"twig", "path", "cst", "uniform"}
            assert isinstance(request["warnings"], list)
        assert payload["breakers"]["twig"] == "closed"


class TestParallelFlags:
    def test_build_with_workers(self, tmp_path, capsys):
        """``build`` scores serially and has no ``--workers`` flag."""
        out_path = tmp_path / "build.json"
        code = main([
            "build", "--dataset", "paperfig", "--budget", "2",
            "--metrics-json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "refinements)" in out
        with pytest.raises(SystemExit):
            main(["build", "--dataset", "paperfig", "--workers", "2"])
        from repro.obs import validate_payload

        payload = json.loads(out_path.read_text())
        assert validate_payload(payload) == []
        by_name = {metric["name"]: metric for metric in payload["metrics"]}
        cache = by_name["build_oracle_cache_total"]
        hits = sum(
            series["value"]
            for series in cache["series"]
            if series["labels"].get("outcome") == "hit"
        )
        assert hits > 0

    def test_serve_eval_batch(self, capsys):
        """``serve-eval`` serves in the calling thread; it has no
        ``--workers`` flag."""
        code = main([
            "serve-eval", "--dataset", "paperfig",
            "--budget", "2", "--queries", "4", "--batch",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "breakers:" in out and "twig=closed" in out
        with pytest.raises(SystemExit):
            main(["serve-eval", "--dataset", "paperfig", "--workers", "2"])


class TestTraceReport:
    def test_report_from_build_trace(self, xml_file, tmp_path, capsys):
        trace = tmp_path / "build.jsonl"
        assert main([
            "build", xml_file, "--budget", "2", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "xbuild.build" in out

    def test_report_json(self, xml_file, tmp_path, capsys):
        trace = tmp_path / "build.jsonl"
        assert main([
            "build", xml_file, "--budget", "2", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] > 0
        names = {kind["name"] for kind in payload["kinds"]}
        assert "xbuild.round" in names

    def test_missing_trace_is_error(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "no.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
