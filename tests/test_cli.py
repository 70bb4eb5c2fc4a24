"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def suite_done(capsys, *argv):
    """Run ``repro suite`` and parse its ``suite done:`` stderr line."""
    code, _ = run_cli("suite", *argv)
    assert code == 0
    (line,) = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("suite done: ")
    ]
    return dict(field.split("=") for field in line.split()[2:])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "BFS-citation"])
        assert args.scheme == "spawn"
        assert args.seed == 1
        assert args.stream_policy == "per-child"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_list(self):
        code, text = run_cli("list")
        assert code == 0
        assert "BFS-graph500" in text
        assert "SA-thaliana" in text

    def test_config(self):
        code, text = run_cli("config")
        assert code == 0
        assert "13 SMXs" in text
        assert "1721" in text

    def test_run_flat(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "flat")
        assert code == 0
        assert "makespan" in text
        assert "speedup_vs_flat" not in text

    def test_run_spawn_reports_speedup(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "spawn")
        assert code == 0
        assert "speedup_vs_flat" in text

    def test_run_unknown_benchmark_fails_cleanly(self):
        code, _ = run_cli("run", "not-a-benchmark")
        assert code == 1

    def test_run_bad_scheme_fails_cleanly(self):
        code, _ = run_cli("run", "GC-citation", "--scheme", "bogus")
        assert code == 1

    def test_sweep(self):
        code, text = run_cli("sweep", "GC-citation")
        assert code == 0
        assert "THRESHOLD" in text
        assert "*" in text

    def test_experiment_table(self):
        code, text = run_cli("experiment", "table2")
        assert code == 0
        assert "GPU configuration" in text

    def test_experiment_unknown_id(self):
        code, _ = run_cli("experiment", "fig99")
        assert code == 2

    def test_experiment_fig01(self):
        code, text = run_cli("experiment", "fig01")
        assert code == 0
        assert "imbalance" in text


class TestObservabilityCommands:
    def test_run_json_is_machine_readable(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "spawn", "--json")
        assert code == 0
        summary = json.loads(text)
        assert summary["makespan"] > 0
        assert "speedup_vs_flat" in summary
        assert "peak_ccqs_depth" in summary

    def test_run_speedup_is_of_the_configured_run(self):
        argv = ("run", "GC-citation", "--stream-policy", "per-parent-cta",
                "--json")
        code, text = run_cli(*argv, "--scheme", "spawn")
        assert code == 0
        spawn = json.loads(text)
        code, text = run_cli(*argv, "--scheme", "flat")
        assert code == 0
        flat = json.loads(text)
        assert spawn["speedup_vs_flat"] == flat["makespan"] / spawn["makespan"]

    def test_run_json_flat_has_no_speedup(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "flat", "--json")
        assert code == 0
        assert "speedup_vs_flat" not in json.loads(text)

    def test_run_trace_exports(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        code, _ = run_cli(
            "run", "GC-citation", "--scheme", "spawn",
            "--trace", str(jsonl), "--chrome-trace", str(chrome),
        )
        assert code == 0
        lines = jsonl.read_text().strip().splitlines()
        assert lines and all(json.loads(l)["kind"] for l in lines)
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_run_profile_prints_timings(self):
        code, text = run_cli("run", "GC-citation", "--scheme", "flat", "--profile")
        assert code == 0
        assert "harness wall-clock profile" in text
        assert "sim.run/GC-citation/flat" in text

    def test_run_profile_counts_one_invocation(self):
        # A second in-process run times only its own simulation.
        for _ in range(2):
            code, text = run_cli(
                "run", "GC-citation", "--scheme", "flat", "--profile"
            )
            assert code == 0
            timers = [
                line.split()[:2] for line in text.splitlines()
                if line.startswith("sim.run/")
            ]
            assert timers == [["sim.run/GC-citation/flat", "1"]]

    def test_audit_prints_prediction_error_table(self):
        code, text = run_cli("audit", "GC-citation", "--scheme", "spawn")
        assert code == 0
        assert "decision audit" in text
        assert "mean_err" in text
        assert "GC-citation" in text

    def test_audit_json(self):
        code, text = run_cli("audit", "GC-citation", "--json")
        assert code == 0
        stats = json.loads(text)["GC-citation"]
        assert stats["decisions"] > 0
        assert "mean_rel_error" in stats

    def test_audit_baseline_dp_has_no_error_columns(self):
        code, text = run_cli("audit", "GC-citation", "--scheme", "baseline-dp")
        assert code == 0
        assert "-" in text  # no prediction payload -> dashes

    def test_audit_unknown_benchmark_fails_cleanly(self):
        code, _ = run_cli("audit", "not-a-benchmark")
        assert code == 1


class TestSuiteCacheBench:
    def test_suite_parser_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.jobs is None
        assert args.experiments is None
        assert not args.no_store

    def test_suite_rejects_unknown_experiment(self):
        code, _ = run_cli("suite", "--experiments", "fig99", "--jobs", "1",
                          "--no-store")
        assert code == 2

    def test_suite_rejects_bad_jobs(self):
        code, _ = run_cli("suite", "--jobs", "0", "--no-store")
        assert code == 2

    def test_suite_subset_with_store(self, tmp_path):
        cache = tmp_path / "cache.db"
        code, text = run_cli(
            "suite", "--experiments", "fig19", "--jobs", "1",
            "--store", str(cache),
        )
        assert code == 0
        assert "fig19" in text
        assert cache.is_file()  # results were persisted

    def test_suite_summary_counts_one_invocation(self, capsys):
        argv = ("--experiments", "fig19", "--no-store", "--jobs", "1")
        first = suite_done(capsys, *argv)
        second = suite_done(capsys, *argv)
        assert second == first
        assert (second["fanned_out"], second["simulated_inline"],
                second["memory_hits"]) == ("2", "2", "2")

    def test_warm_suite_counts_store_hits(self, tmp_path, capsys):
        argv = ("--experiments", "fig19", "--jobs", "1",
                "--store", str(tmp_path / "results.db"))
        suite_done(capsys, *argv)
        warm = suite_done(capsys, *argv)
        assert warm["resumed"] == "2"
        assert warm["disk_hits"] == warm["resumed"]
        assert warm["fanned_out"] == warm["simulated_inline"] == "0"

    def test_cache_stats_and_clear(self, tmp_path):
        store = str(tmp_path / "results.db")
        code, text = run_cli("cache", "stats", "--store", store)
        assert code == 0
        assert "entries" in text
        code, text = run_cli("cache", "clear", "--store", store)
        assert code == 0
        assert "removed 0 entries" in text


class TestServe:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests is None
        assert args.jobs == 2
        assert args.max_batch == 8
        assert args.max_queue is None
        assert args.synthetic == 20
        assert not args.stats

    def test_serve_synthetic_traffic(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        code, text = run_cli(
            "serve", "--synthetic", "8", "--no-store",
            "--stats", "--stats-json", str(stats_path),
        )
        assert code == 0
        assert "service routing ledger" in text
        assert "service latency percentiles" in text
        stats = json.loads(stats_path.read_text())
        assert stats["submitted"] == 8
        assert stats["lost"] == 0
        assert stats["failed"] == 0
        assert stats["completed"] == 8
        latency = stats["latency"]
        for span in ("end_to_end", "queue_wait"):
            assert latency[span]["count"] > 0
            for key in ("p50", "p95", "p99"):
                assert latency[span][key] >= 0
        assert "routes" in latency

    def test_serve_scripted_request_file(self, tmp_path):
        requests = [
            {"benchmark": "GC-citation", "scheme": "flat"},
            {"benchmark": "GC-citation", "scheme": "flat"},  # coalesces
            {"benchmark": "MM-small", "scheme": "spawn", "seed": 2},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests))
        stats_path = tmp_path / "stats.json"
        code, _ = run_cli(
            "serve", str(path), "--no-store", "--jobs", "1",
            "--stats-json", str(stats_path),
        )
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["submitted"] == 3
        assert stats["coalesced"] == 1
        assert stats["lost"] == 0

    def test_serve_rejects_empty_traffic(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, _ = run_cli("serve", str(path), "--no-store")
        assert code == 2

    def test_serve_rejects_bad_synthetic_count(self):
        code, _ = run_cli("serve", "--synthetic", "0", "--no-store")
        assert code == 2

    def test_serve_unknown_benchmark_fails_cleanly(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps([{"benchmark": "nope", "scheme": "flat"}])
        )
        code, _ = run_cli("serve", str(path), "--no-store")
        assert code == 1  # ReproError -> clean CLI error, no traceback

    def test_serve_malformed_request_file_fails_cleanly(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps([{"benchmark": "GC-citation", "scheme": "flat",
                         "seed": "x"}])
        )
        code, _ = run_cli("serve", str(path), "--no-store")
        assert code == 1
        assert "error:" in capsys.readouterr().err
