"""The claims table checked as a table: one catalogue, no vacuous row, no
row that holds at one seed only, and docs that cite what exists."""

import copy
import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.bench.paper as paper
from repro.bench import (
    CLAIMS,
    FigureData,
    FigureRunner,
    QUICK_SCALE,
    compare_to_paper,
    comparison_table,
    figure_table1,
)
from repro.cli import main
from repro.storage import KB

from .test_compare import SMALL_SCALE

REPO = Path(__file__).resolve().parents[2]


def _failing(rows):
    return [r.key for r in rows if not r.holds]


class TestOneCatalogue:
    def test_every_catalogued_claim_is_audited(self, capsys, monkeypatch):
        """`repro claims` and `repro audit` print the same ids: nothing is
        catalogued but never evaluated (the parent printed 12 and checked 8)."""
        monkeypatch.setattr("repro.bench.QUICK_SCALE", SMALL_SCALE)
        assert main(["claims"]) == 0
        catalogued = re.findall(r"^  (\w+)  \(", capsys.readouterr().out, re.M)
        assert main(["audit"]) == 0
        audited = re.findall(r"^  (\w+) +(?:\d|\()", capsys.readouterr().out, re.M)
        assert catalogued == audited == [c.id for c in CLAIMS]
        assert len(set(catalogued)) == len(catalogued)

    def test_docs_and_table_agree(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        mentioned = set(re.findall(r"\b(?:fig\d|table1|blob)_[a-z0-9_]+\b", text))
        assert mentioned == {c.id for c in CLAIMS}

    def test_verdict_block_is_the_archived_audit(self):
        """EXPERIMENTS.md's verdict is `repro audit --full` output, the same
        lines `repro report --full` archived in results/full_report.txt."""
        text = (REPO / "EXPERIMENTS.md").read_text()
        verdict = text.split("## Reproduction verdict")[1]
        block = verdict.split("```")[1].strip("\n")
        assert "checks hold" in block
        assert block in (REPO / "results" / "full_report.txt").read_text()


class TestThinkTimeKeys:
    SCALE = dataclasses.replace(
        SMALL_SCALE, name="fractional-think", worker_counts=(1, 2),
        shared_think_times=(1.0, 1.4))

    def test_fractional_think_times_stay_distinct(self):
        runner = FigureRunner(self.SCALE)
        phases = runner.queue_shared_sweep()[2].phase_names()
        assert {"get_think1", "get_think1.4"} <= set(phases)
        get = runner.figure7()["Fig 7c"]
        assert [s.name for s in get.series] == ["think 1s", "think 1.4s"]
        assert get.get("think 1s").values != get.get("think 1.4s").values

    def test_duplicate_series_name_rejected(self):
        fig = FigureData("F1", "t", "x", [1, 2])
        fig.add("a", [1.0, 2.0])
        with pytest.raises(ValueError, match="already has a series 'a'"):
            fig.add("a", [3.0, 4.0])


class TestNotApplicable:
    @pytest.fixture(scope="class")
    def rows(self):
        scale = dataclasses.replace(
            SMALL_SCALE, name="no-16k", worker_counts=(1, 2),
            queue_message_sizes=(4 * KB, 64 * KB))
        return compare_to_paper(FigureRunner(scale))

    def test_unevaluable_claim_is_reported_not_dropped(self, rows):
        row = {r.key: r for r in rows}["fig6_get_16k_anomaly"]
        assert row.margin is None and row.holds
        assert "queue_message_sizes" in row.note
        text = comparison_table(rows)
        assert re.search(r"fig6_get_16k_anomaly .* n/a$", text, re.M)
        assert f"n/a fig6_get_16k_anomaly: {row.note}" in text

    def test_footer_counts_na_neither_way(self, rows):
        skipped = sum(r.margin is None for r in rows)
        assert skipped >= 2  # the anomaly and the 32 KB shared-vs-separate row
        assert comparison_table(rows).endswith(
            f"{len(rows) - skipped} checks hold, {skipped} n/a of {len(rows)}.")


@pytest.mark.parametrize("seed", (2012, 1, 7))
def test_table_holds_at_every_seed(seed):
    """Not calibration luck: every row holds or is n/a at three seeds."""
    runner = FigureRunner(dataclasses.replace(SMALL_SCALE, seed=seed))
    rows = compare_to_paper(runner)
    assert _failing(rows) == [], comparison_table(rows)


#: Per shape claim, the smallest edit of the regenerated figures that inverts
#: the paper's relation and no other: ``(panel, series, point or None for
#: the whole series, factor)``.
DOCTORS = {
    "fig4_upload_page_gt_block": [("4a", "Block upload", None, 1.5)],
    "fig5_block_gt_page": [("5a", "Block (sequential)", None, 0.8)],
    "fig6_peek_lt_put_lt_get": [("6b", "4 KB", None, 3.0)],
    "fig6_get_16k_anomaly": [("6c", "16 KB", None, 0.7)],
    "fig7_think_time_helps": [("7c", "think 5s", None, 3.0)],
    "fig8_query_cheapest_update_dearest": [("8b", "4 KB", None, 2.0)],
    "fig8_big_entities_blow_up": [("8c", "4 KB", -1, 1.5)],
    "fig9_queue_scales_better": [("9", "table update", -1, 0.7)],
    "fig4_throughput_rises": [("4a", "Page upload", 0, 3.5)],
    "fig4_download_fastest": [
        ("4a", "Page download", None, 0.15), ("4a", "Block download", None, 0.15),
        ("5a", "Page (random)", None, 0.15),
        ("5a", "Block (sequential)", None, 0.15)],
    "fig4_download_time_grows": [("4b", "Page download", -1, 0.3)],
    "fig4_upload_time_shrinks": [("4b", "Page upload", -1, 8.0)],
    "fig5_saturates": [("5a", "Page (random)", -2, 0.6)],
    "fig5_whole_gt_chunked": [("4a", "Block download", -1, 0.6)],
    "fig6_queue_scales": [(p, "4 KB", -1, 2.5) for p in ("6a", "6b", "6c")],
    "fig7_time_falls_with_workers": [("7a", "think 1s", -1, 12.0)],
    "fig8_flat_until_4": [("8c", "4 KB", 2, 1.3)],
    "fig9_queue_put_flat": [("9", "queue put", -1, 1.5)],
    "fig9_queue_peek_flat": [("9", "queue peek", -1, 2.2)],
}


class TestNoVacuousClaim:
    """Each shape claim flips to NO, alone, when its relation is inverted."""

    @pytest.fixture(scope="class")
    def runner(self):
        runner = FigureRunner(QUICK_SCALE)
        assert _failing(compare_to_paper(runner)) == []
        return runner

    def test_every_shape_claim_has_a_doctor(self):
        sweeps_or_static = {"fig7_shared_costs_more", "table1_vm_sizes"}
        assert set(DOCTORS) | sweeps_or_static == set(paper.qualitative_claims())

    @pytest.mark.parametrize("claim_id", DOCTORS)
    def test_inverted_figure_flips_exactly_its_claim(
            self, runner, monkeypatch, claim_id):
        real = runner.panels

        def doctored(number):
            figs = copy.deepcopy(real(number))
            for panel, series, point, factor in DOCTORS[claim_id]:
                for fig in figs:
                    if fig.figure_id == f"Fig {panel}":
                        values = fig.get(series).values
                        points = range(len(values)) if point is None else [point]
                        for k in points:
                            values[k] *= factor
            return figs

        monkeypatch.setattr(runner, "panels", doctored)
        assert _failing(compare_to_paper(runner)) == [claim_id]

    def test_cheap_shared_queue_flips_shared_costs_more(self, runner, monkeypatch):
        """This claim reads per-op cost off the sweep (Fig 7 plots per-worker
        time), so the sweep's top cell is what gets doctored."""
        sweep, top = runner.queue_shared_sweep(), QUICK_SCALE.worker_counts[-1]

        def cheap(name):
            stats = sweep[top].phase(name)
            return SimpleNamespace(mean_worker_time=stats.mean_worker_time,
                                   mean_op_time=stats.mean_op_time / 10)

        monkeypatch.setattr(runner, "queue_shared_sweep", lambda: {
            **sweep, top: SimpleNamespace(phase=cheap)})
        assert _failing(compare_to_paper(runner)) == ["fig7_shared_costs_more"]

    def test_wrong_table1_row_flips_table1(self, runner, monkeypatch):
        def shrunk():
            fig = figure_table1()
            fig.get("Memory").values[1] = 2.0  # Small has 1.75 GB
            return fig

        monkeypatch.setattr(paper, "figure_table1", shrunk)
        assert _failing(compare_to_paper(runner)) == ["table1_vm_sizes"]

