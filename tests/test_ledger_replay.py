"""Tests for the latency digest that `repro serve --stats-json` writes.

The request ledger and `repro replay` are gone; the serve-side latency
percentiles they were judged against remain, and are checked here.
"""

from __future__ import annotations

import io
import json

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRecordReplayCli:
    def test_serve_stats_json_has_latency_percentiles(self, tmp_path):
        stats = tmp_path / "stats.json"
        code, output = run_cli(
            "serve", "--synthetic", "4", "--traffic-seed", "7",
            "--no-store", "--stats-json", str(stats),
        )
        assert code == 0, output
        payload = json.loads(stats.read_text())
        latency = payload["latency"]
        for span in ("end_to_end", "queue_wait"):
            assert latency[span]["count"] > 0
            for key in ("p50", "p95", "p99"):
                assert latency[span][key] >= 0
        assert "routes" in latency
