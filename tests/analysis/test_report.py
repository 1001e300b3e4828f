"""Tests for repro.analysis.report (the composite study report)."""

import pytest

from repro.analysis.report import full_report


class TestFullReport:
    def test_free_store_report(self, demo_campaign):
        text = full_report(demo_campaign.database, "demo", min_group_size=5)
        # Every section header appears.
        for heading in (
            "Dataset (Table 1)",
            "Popularity (Figures 2-3)",
            "Updates (Figure 4)",
            "Clustering effect (Figures 5-7)",
            "Model validation (Figures 8-9)",
            "Pricing and revenue (Figures 11-18)",
            "Forecast (Section 7 implication)",
        ):
            assert heading in text, heading
        # Free store: the pricing section is skipped with a note.
        assert "no paid apps" in text
        # The clustering section ran (comments were crawled).
        assert "affinity" in text

    def test_paid_store_report(self, slideme_campaign):
        text = full_report(
            slideme_campaign.database, "slideme-test", min_group_size=5
        )
        assert "paid apps" in text
        assert "Pearson" in text
        assert "per download" in text  # break-even line

    def test_unknown_store_rejected(self, demo_campaign):
        with pytest.raises(KeyError):
            full_report(demo_campaign.database, "nope")

    def test_report_is_plain_text(self, demo_campaign):
        text = full_report(demo_campaign.database, "demo", min_group_size=5)
        assert text.endswith("\n")
        assert len(text.splitlines()) > 20


class TestReportCli:
    def test_cli_report_command(self, demo_campaign, tmp_path, capsys):
        from repro.cli import main

        db_path = tmp_path / "crawl.jsonl"
        demo_campaign.database.save(db_path)
        out_path = tmp_path / "report.txt"
        exit_code = main(
            [
                "report",
                "--db",
                str(db_path),
                "--store",
                "demo",
                "--out",
                str(out_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Model validation" in captured.out
        assert out_path.exists()

    def test_cli_report_unknown_store(self, demo_campaign, tmp_path):
        from repro.cli import main

        db_path = tmp_path / "crawl.jsonl"
        demo_campaign.database.save(db_path)
        assert main(["report", "--db", str(db_path), "--store", "ghost"]) == 2


class TestNoRowReads:
    """The study reads snapshot columns: neither the report nor
    ``repro analyze`` builds one ``AppSnapshot`` per row."""

    @pytest.fixture
    def rows_refused(self, monkeypatch):
        from repro.crawler.database import SnapshotDatabase

        def refuse(*args, **kwargs):
            raise AssertionError("an analysis read snapshots one row at a time")

        monkeypatch.setattr(SnapshotDatabase, "snapshots_on", refuse)
        monkeypatch.setattr(SnapshotDatabase, "snapshot", refuse)

    def test_full_report(self, slideme_campaign, rows_refused):
        text = full_report(
            slideme_campaign.database, "slideme-test", min_group_size=5
        )
        assert "per download" in text  # the pricing section ran
        assert "affinity" in text  # and the clustering section

    def test_analyze_all_sections(
        self, slideme_campaign, rows_refused, tmp_path, capsys
    ):
        from repro.cli import main

        db_path = tmp_path / "crawl.cstore"
        slideme_campaign.database.pack(db_path)
        exit_code = main(["analyze", "--db", str(db_path), "--store", "slideme-test"])
        assert exit_code == 0
        assert "per download" in capsys.readouterr().out  # strategies ran
