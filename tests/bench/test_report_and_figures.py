"""Tests for the reporting layer and the figure harness (tiny scale)."""

import pytest

from repro.bench import (
    BenchScale,
    FigureData,
    FigureRunner,
    PAPER_ANCHORS,
    PAPER_SCALE,
    QUICK_SCALE,
    figure_table1,
    format_table,
    qualitative_claims,
)
from repro.storage import KB


class TestFigureData:
    def test_add_and_get(self):
        fig = FigureData("F1", "title", "x", [1, 2, 3])
        fig.add("s1", [10.0, 20.0, 30.0], unit="MB/s")
        assert fig.get("s1").values == [10.0, 20.0, 30.0]
        with pytest.raises(KeyError):
            fig.get("ghost")

    def test_length_mismatch_rejected(self):
        fig = FigureData("F1", "t", "x", [1, 2])
        with pytest.raises(ValueError):
            fig.add("bad", [1.0])

    def test_to_text_contains_everything(self):
        fig = FigureData("F1", "My Title", "workers", [1, 2])
        fig.add("alpha", [1.5, 2.5], unit="s")
        text = fig.to_text()
        assert "F1" in text and "My Title" in text
        assert "workers" in text and "alpha [s]" in text
        assert "1.500" in text and "2.500" in text

    def test_to_csv(self):
        fig = FigureData("F1", "t", "x", [1])
        fig.add("a", [2.0], unit="s")
        lines = fig.to_csv().strip().splitlines()
        assert lines[0] == "x,a [s]"
        assert lines[1] == "1,2.000"

    def test_format_table_alignment(self):
        rows = [["h1", "h2"], ["a", "1"], ["bbb", "22"]]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert len(set(len(l) for l in lines)) == 1  # aligned

    def test_format_empty(self):
        assert format_table([]) == ""


class TestPaperAnchors:
    def test_key_anchor_values(self):
        assert PAPER_ANCHORS["blob_max_download_mbps"].value == 165.0
        assert PAPER_ANCHORS["blob_max_upload_mbps"].value == 60.0
        assert PAPER_ANCHORS["blob_block_upload_mbps"].value == 21.0
        assert PAPER_ANCHORS["queue_usable_payload_bytes"].value == 49152.0

    def test_anchors_have_provenance(self):
        for anchor in PAPER_ANCHORS.values():
            assert anchor.quote and anchor.where and anchor.unit

    def test_qualitative_claims_exist(self):
        claims = qualitative_claims()
        assert "fig6_get_16k_anomaly" in claims
        assert len(claims) >= 10


class TestScales:
    def test_paper_scale_matches_paper(self):
        s = PAPER_SCALE
        assert s.blob_total_chunks == 100 and s.blob_repeats == 10
        assert s.queue_total_messages == 20_000
        assert s.table_entity_count == 500
        assert 96 in s.worker_counts
        assert s.queue_message_sizes == (4 * KB, 8 * KB, 16 * KB, 32 * KB,
                                         64 * KB)

    def test_quick_scale_is_smaller(self):
        assert QUICK_SCALE.blob_total_chunks < PAPER_SCALE.blob_total_chunks
        assert max(QUICK_SCALE.worker_counts) < max(PAPER_SCALE.worker_counts)


TINY = BenchScale(
    name="tiny",
    worker_counts=(1, 2),
    blob_total_chunks=8,
    blob_repeats=1,
    queue_total_messages=40,
    queue_message_sizes=(4 * KB, 16 * KB, 32 * KB),
    shared_total_transactions=40,
    shared_think_times=(0.5, 1.0),
    table_entity_count=10,
    table_entity_sizes=(4 * KB,),
)


class TestFigureRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return FigureRunner(TINY)

    def test_table1(self):
        fig = figure_table1()
        assert fig.x_values[0] == "Extra Small"
        assert fig.get("Storage").values[-1] == 2040

    def test_figure4_shapes(self, runner):
        thr, tim = runner.figure4()
        assert thr.x_values == [1, 2]
        assert {s.name for s in thr.series} == {
            "Page upload", "Block upload", "Page download", "Block download"}
        for s in thr.series:
            assert all(v > 0 for v in s.values)

    def test_figure5_shapes(self, runner):
        thr, tim = runner.figure5()
        assert {s.name for s in thr.series} == {
            "Page (random)", "Block (sequential)"}

    def test_figure6_panels(self, runner):
        figs = runner.figure6()
        assert set(figs) == {"Fig 6a", "Fig 6b", "Fig 6c"}
        for fig in figs.values():
            assert {s.name for s in fig.series} == {"4 KB", "16 KB", "32 KB"}

    def test_figure7_panels(self, runner):
        figs = runner.figure7()
        assert set(figs) == {"Fig 7a", "Fig 7b", "Fig 7c"}
        for fig in figs.values():
            assert {s.name for s in fig.series} == {"think 0.5s", "think 1s"}

    def test_figure8_panels(self, runner):
        figs = runner.figure8()
        assert set(figs) == {"Fig 8a", "Fig 8b", "Fig 8c", "Fig 8d"}

    def test_figure9(self, runner):
        fig = runner.figure9(queue_size=32 * KB, table_size=4 * KB)
        names = {s.name for s in fig.series}
        assert "queue put" in names and "table update" in names

    def test_sweeps_are_cached(self, runner):
        a = runner.blob_sweep()
        b = runner.blob_sweep()
        assert a is b
