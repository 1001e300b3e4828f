"""Tests for repro.cli (the command-line interface)."""

import json
import re

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def crawl_db_path(tmp_path_factory):
    """A small crawled database produced through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "crawl.jsonl"
    exit_code = main(
        ["campaign", "--store", "demo", "--out", str(path), "--seed", "3"]
    )
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_campaign_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])


class TestCampaign(object):
    def test_creates_database(self, crawl_db_path):
        from repro.crawler.database import SnapshotDatabase

        database = SnapshotDatabase.load(crawl_db_path)
        assert database.stores() == ["demo"]
        assert len(database.days("demo")) > 1


class TestAnalyze:
    def test_all_sections(self, crawl_db_path, capsys):
        exit_code = main(
            ["analyze", "--db", str(crawl_db_path), "--store", "demo"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Zipf trunk" in captured.out
        assert "affinity" in captured.out

    def test_spam_section(self, crawl_db_path, capsys):
        exit_code = main(
            [
                "analyze",
                "--db",
                str(crawl_db_path),
                "--store",
                "demo",
                "--section",
                "spam",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "flagged" in captured.out

    def test_growth_section(self, crawl_db_path, capsys):
        exit_code = main(
            [
                "analyze",
                "--db",
                str(crawl_db_path),
                "--store",
                "demo",
                "--section",
                "growth",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "downloads/day" in captured.out
        assert "growth split" in captured.out

    def test_single_section(self, crawl_db_path, capsys):
        exit_code = main(
            [
                "analyze",
                "--db",
                str(crawl_db_path),
                "--store",
                "demo",
                "--section",
                "popularity",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "top 1%" in captured.out

    def test_unknown_store_fails(self, crawl_db_path, capsys):
        exit_code = main(
            ["analyze", "--db", str(crawl_db_path), "--store", "ghost"]
        )
        assert exit_code == 2

    def test_pricing_on_free_store_fails(self, crawl_db_path):
        exit_code = main(
            [
                "analyze",
                "--db",
                str(crawl_db_path),
                "--store",
                "demo",
                "--section",
                "pricing",
            ]
        )
        assert exit_code == 2


class TestFit:
    def test_fit_prints_models(self, crawl_db_path, capsys):
        exit_code = main(["fit", "--db", str(crawl_db_path), "--store", "demo"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "APP-CLUSTERING" in captured.out
        assert "ZIPF" in captured.out


class TestForecast:
    def test_forecast_reports_distance(self, crawl_db_path, capsys):
        exit_code = main(
            ["forecast", "--db", str(crawl_db_path), "--store", "demo"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "forecast day" in captured.out
        assert "distance" in captured.out


class TestWorkload:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        exit_code = main(
            [
                "workload",
                "--kind",
                "ZIPF",
                "--apps",
                "50",
                "--users",
                "20",
                "--downloads",
                "300",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "300" in captured.out

        from repro.workload.trace import read_trace

        spec, events = read_trace(out)
        assert spec is not None and spec.n_apps == 50
        assert sum(1 for _ in events) == 300


class TestExport:
    def test_writes_three_csvs(self, crawl_db_path, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        exit_code = main(
            ["export", "--db", str(crawl_db_path), "--prefix", prefix]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "snapshots.csv" in captured.out
        for suffix in ("snapshots", "comments", "apks"):
            assert (tmp_path / f"out_{suffix}.csv").exists()


class TestCache:
    def test_prints_hit_ratio_table(self, capsys):
        exit_code = main(
            ["cache", "--scale", "0.003", "--sizes", "0.05,0.20"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "LRU hit ratio" in captured.out
        assert "APP-CLUSTERING" in captured.out


class TestChaos:
    def test_crawl_report_is_replayable(self, tmp_path, capsys):
        def run(out):
            exit_code = main(
                [
                    "chaos",
                    "--plan",
                    "aggressive",
                    "--seed",
                    "7",
                    "--no-comments",
                    "--out",
                    str(out),
                ]
            )
            assert exit_code == 0
            return out.read_text(encoding="utf-8")

        first = run(tmp_path / "first.txt")
        second = run(tmp_path / "second.txt")
        captured = capsys.readouterr()
        assert first == second
        assert "dataset fingerprint: sha256:" in first
        assert "failure trace" in captured.out

    def test_replication_mode(self, capsys):
        exit_code = main(
            ["chaos", "--mode", "replication", "--plan", "mild", "--seed", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "chaos replication" in captured.out
        assert "counts fingerprint: sha256:" in captured.out

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--plan", "apocalyptic"])


class TestRunAliasAndMetrics:
    def test_run_is_a_campaign_alias(self, tmp_path):
        out = tmp_path / "crawl.jsonl"
        exit_code = main(
            ["run", "--store", "demo", "--out", str(out), "--seed", "3"]
        )
        assert exit_code == 0
        assert out.exists()

    def test_same_seed_metrics_byte_identical(self, tmp_path):
        """The determinism contract, end to end through the CLI: two
        identical invocations emit byte-identical metrics once the
        wall-clock record is stripped."""
        from repro.obs.manifest import strip_wall_clock

        out = tmp_path / "crawl.jsonl"

        def run(metrics_path):
            exit_code = main(
                [
                    "run",
                    "--store",
                    "demo",
                    "--out",
                    str(out),
                    "--seed",
                    "3",
                    "--emit-metrics",
                    str(metrics_path),
                ]
            )
            assert exit_code == 0
            return strip_wall_clock(metrics_path.read_text(encoding="utf-8"))

        first = run(tmp_path / "first.metrics.jsonl")
        second = run(tmp_path / "second.metrics.jsonl")
        assert first == second
        assert '"record":"manifest"' in first
        assert '"scheduler.days_crawled"' in first

    def test_metrics_check_and_summary(self, tmp_path, capsys):
        metrics_path = tmp_path / "run.metrics.jsonl"
        assert (
            main(
                [
                    "chaos",
                    "--plan",
                    "mild",
                    "--seed",
                    "2",
                    "--no-comments",
                    "--emit-metrics",
                    str(metrics_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["metrics", str(metrics_path), "--check"]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["metrics", str(metrics_path)]) == 0
        summary = capsys.readouterr().out
        assert "command 'chaos'" in summary
        assert "counters" in summary

    def test_metrics_check_fails_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["metrics", str(bad), "--check"]) == 1
        assert "error" in capsys.readouterr().err

    def test_metrics_strip_wall_clock(self, tmp_path, capsys):
        metrics_path = tmp_path / "run.metrics.jsonl"
        main(
            [
                "cache",
                "--scale",
                "0.003",
                "--sizes",
                "0.05",
                "--emit-metrics",
                str(metrics_path),
            ]
        )
        capsys.readouterr()
        assert main(["metrics", str(metrics_path), "--strip-wall-clock"]) == 0
        stripped = capsys.readouterr().out
        assert '"record":"wall_clock"' not in stripped
        assert '"record":"metrics"' in stripped
        assert '"cache.LRU.hits"' in stripped


class TestShardedCampaignCli:
    """`repro run --shards N` drives the sharded workload runner."""

    @staticmethod
    def _run(out, metrics=None, shards="2", extra=()):
        argv = [
            "run",
            "--shards",
            shards,
            "--kind",
            "APP-CLUSTERING",
            "--apps",
            "300",
            "--users",
            "2000",
            "--downloads",
            "12000",
            "--clusters",
            "10",
            "--block-size",
            "512",
            "--seed",
            "11",
            "--out",
            str(out),
        ]
        if metrics is not None:
            argv += ["--emit-metrics", str(metrics)]
        argv += list(extra)
        return main(argv)

    def test_writes_json_summary(self, tmp_path, capsys):
        import json

        out = tmp_path / "campaign.json"
        assert self._run(out) == 0
        printed = capsys.readouterr().out
        assert "counts fingerprint: sha256:" in printed
        summary = json.loads(out.read_text(encoding="utf-8"))
        assert summary["kind"] == "APP-CLUSTERING"
        assert summary["n_shards"] == 2
        assert summary["n_users"] == 2000
        assert summary["n_events"] > 0
        assert summary["counts_fingerprint"].startswith("sha256:")
        assert summary["events_unfilled"] == 0

    def test_sharded_matches_serial_fingerprint(self, tmp_path):
        """The CLI-level exactness check: --shards 4 == --shards 1."""
        import json

        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        assert self._run(serial_out, shards="1") == 0
        assert self._run(sharded_out, shards="4") == 0
        serial = json.loads(serial_out.read_text(encoding="utf-8"))
        sharded = json.loads(sharded_out.read_text(encoding="utf-8"))
        assert serial["counts_fingerprint"] == sharded["counts_fingerprint"]
        assert serial["n_events"] == sharded["n_events"]
        assert serial["n_shards"] == 1
        assert sharded["n_shards"] == 4

    def test_emit_metrics_with_shards(self, tmp_path):
        from repro.obs.manifest import strip_wall_clock

        def run(tag, shards):
            metrics = tmp_path / f"{tag}.metrics.jsonl"
            assert self._run(tmp_path / f"{tag}.json", metrics, shards) == 0
            stripped = strip_wall_clock(metrics.read_text(encoding="utf-8"))
            # The manifest records the invocation args (--shards, --out),
            # which legitimately differ; the metrics body must not.
            return [
                line
                for line in stripped.splitlines()
                if '"record":"manifest"' not in line
            ]

        first = run("first", "1")
        second = run("second", "3")
        assert first == second
        body = "\n".join(first)
        assert '"sharding.blocks"' in body
        assert '"engine.events_unfilled"' in body

    def test_rejects_nonpositive_shards(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert self._run(out, shards="0") == 2
        assert "--shards must be >= 1" in capsys.readouterr().err


class TestStoreDiff:
    @staticmethod
    def _records(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _write(path, records):
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        return path

    def test_packed_copy_is_identical(self, crawl_db_path, tmp_path, capsys):
        packed = tmp_path / "crawl.cstore"
        assert main(["store", "pack", "--db", str(crawl_db_path), "--out", str(packed)]) == 0
        capsys.readouterr()
        assert main(["store", "diff", str(crawl_db_path), str(packed)]) == 0
        assert capsys.readouterr().out.startswith("identical: sha256:")

    def test_names_a_one_row_change(self, crawl_db_path, tmp_path, capsys):
        records = self._records(crawl_db_path)
        days = sorted({r["day"] for r in records if r["kind"] == "snapshot"})
        day = days[len(days) // 2]
        row = next(
            r for r in records
            if r["kind"] == "snapshot" and r["day"] == day and r["app_id"] >= 10
        )
        before = row["total_downloads"]
        row["total_downloads"] += 1
        changed = self._write(tmp_path / "changed.jsonl", records)
        packed = tmp_path / "changed.cstore"
        assert main(["store", "pack", "--db", str(changed), "--out", str(packed)]) == 0
        capsys.readouterr()
        assert main(["store", "diff", str(crawl_db_path), str(packed)]) == 1
        assert capsys.readouterr().out == (
            f"first difference: snapshot store 'demo' day {day}, column "
            f"total_downloads, app {row['app_id']}: {crawl_db_path} {before}, "
            f"{packed} {before + 1}\n"
        )

    def test_names_a_removed_day(self, crawl_db_path, tmp_path, capsys):
        records = self._records(crawl_db_path)
        days = sorted({r["day"] for r in records if r["kind"] == "snapshot"})
        day = days[3]
        kept = [r for r in records if not (r["kind"] == "snapshot" and r["day"] == day)]
        rows = len(records) - len(kept)
        removed = self._write(tmp_path / "removed.jsonl", kept)
        assert main(["store", "diff", str(removed), str(crawl_db_path)]) == 1
        assert capsys.readouterr().out == (
            f"first difference: snapshot store 'demo' day {day}: {removed} "
            f"absent, {crawl_db_path} {rows:,} rows\n"
        )


class TestServeVerifyBatch:
    def test_mismatch_names_the_first_difference(self, monkeypatch, capsys):
        import repro.cli as cli

        crawl = cli.run_crawl_campaign

        def crawl_another_seed(profile, seed, **kwargs):
            return crawl(profile, seed=seed + 1, **kwargs)

        monkeypatch.setattr(cli, "run_crawl_campaign", crawl_another_seed)
        argv = ["serve", "--days", "1", "--clients", "1", "--seed", "0", "--verify-batch"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: fingerprint mismatch" in err
        assert re.search(
            r"\n  first difference: (apk|comment|snapshot) store 'demo'"
            r"(, column \w+, app \d+: serve .+, batch .+| day \d+: serve .+, batch .+)\n",
            err,
        ), err
