"""Error-path coverage for the CLI: every failure mode must exit with a
clean diagnostic (code 1/2 plus an ``error:`` line), never a traceback."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRunErrors:
    def test_unwritable_trace_path_exits_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "trace.jsonl"
        code, _ = run_cli(
            "run", "MM-small", "--scheme", "spawn", "--trace", str(target)
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_path_is_a_directory(self, tmp_path, capsys):
        code, _ = run_cli(
            "run", "MM-small", "--scheme", "spawn", "--trace", str(tmp_path)
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["GC-citation", "AMR"])
    def test_negative_seed(self, name, capsys):
        # AMR offsets its seed before numpy sees it, hiding small negatives.
        code, _ = run_cli("run", name, "--scheme", "flat", "--seed", "-1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: seed must be >= 0, got -1"]


class TestAuditErrors:
    def test_unknown_benchmark(self, capsys):
        code, _ = run_cli("audit", "no-such-benchmark")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_scheme(self, capsys):
        code, _ = run_cli("audit", "MM-small", "--scheme", "not-a-scheme")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCacheErrors:
    def test_stats_on_missing_dir(self, tmp_path):
        missing = tmp_path / "never-created" / "results.db"
        code, text = run_cli("cache", "stats", "--store", str(missing))
        assert code == 0
        assert "entries" in text and not missing.exists()
        assert not missing.parent.exists()

    def test_clear_on_empty_dir(self, tmp_path):
        store = tmp_path / "results.db"
        code, text = run_cli("cache", "clear", "--store", str(store))
        assert code == 0
        assert "removed 0 entries" in text and not store.exists()

    @pytest.mark.parametrize("url", ["redis://x", "dir://x"])
    def test_stats_on_another_scheme_fails_cleanly(self, url, capsys):
        code, _ = run_cli("cache", "stats", "--store", url)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestUnwritableStore:
    """A store under a regular file fails every operation; the run goes on
    uncached and exits as before, but the summary line counts the failures
    and a warning says results were not kept."""

    @staticmethod
    def store_under_a_file(tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        return str(blocker / "results.db")

    @staticmethod
    def summary(err, prefix):
        (line,) = [line for line in err.splitlines() if line.startswith(prefix)]
        return dict(field.split("=") for field in line.split() if "=" in field)

    def test_suite_reports_store_errors(self, tmp_path, capsys):
        code, _ = run_cli(
            "suite", "--experiments", "fig06", "--jobs", "1",
            "--store", self.store_under_a_file(tmp_path),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert int(self.summary(err, "suite done: ")["store_errors"]) > 0
        assert "warning: " in err and "not kept" in err

    def test_serve_reports_store_errors(self, tmp_path, capsys):
        code, _ = run_cli(
            "serve", "--synthetic", "3", "--jobs", "1",
            "--store", self.store_under_a_file(tmp_path),
        )
        assert code == 0
        err = capsys.readouterr().err
        counts = self.summary(err, "served ")
        assert counts["lost"] == "0"
        assert int(counts["store_errors"]) > 0
        assert "warning: " in err and "not kept" in err

    def test_working_store_reports_zero_and_no_warning(self, tmp_path, capsys):
        code, _ = run_cli(
            "serve", "--synthetic", "3", "--jobs", "1",
            "--store", str(tmp_path / "results.db"),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert self.summary(err, "served ")["store_errors"] == "0"
        assert "warning: " not in err


class TestCheckErrors:
    def test_unknown_benchmark_filter(self, capsys):
        code, _ = run_cli("check", "--benchmark", "no-such-benchmark")
        assert code == 2
        assert "not in the golden matrix" in capsys.readouterr().err

    def test_missing_golden_file(self, tmp_path, capsys):
        # An empty --golden-dir: the cell simulates cleanly but the stored
        # trace is absent, which must surface the regenerate hint.
        code, _ = run_cli(
            "check",
            "--benchmark", "BFS-citation",
            "--golden-dir", str(tmp_path),
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_update_golden_writes_files(self, tmp_path):
        code, text = run_cli(
            "check",
            "--update-golden",
            "--benchmark", "BFS-citation",
            "--golden-dir", str(tmp_path),
        )
        assert code == 0
        assert "wrote" in text
        assert list(tmp_path.glob("BFS-citation__*.jsonl.gz"))
        # And the freshly written goldens verify against a re-run.
        code, text = run_cli(
            "check",
            "--benchmark", "BFS-citation",
            "--golden-dir", str(tmp_path),
        )
        assert code == 0
        assert "matches golden" in text
