"""Tests for scalability analysis and ASCII charts."""

import numpy as np
import pytest

from repro.analysis import (
    ascii_chart,
    fit_usl,
    knee_point,
    saturation_point,
    sparkline,
    speedup,
)
from repro.bench import FigureData


class TestSpeedupEfficiency:
    def test_perfect_scaling(self):
        workers = [1, 2, 4, 8]
        times = [80.0, 40.0, 20.0, 10.0]
        assert speedup(workers, times) == pytest.approx([1, 2, 4, 8])

    def test_sublinear(self):
        workers = [1, 2, 4]
        times = [80.0, 50.0, 40.0]
        s = speedup(workers, times)
        assert s[1] < 2 and s[2] < 4

    def test_base_not_one_worker(self):
        # Starting the sweep at 2 workers still normalizes correctly.
        s = speedup([2, 4], [40.0, 20.0])
        assert s == pytest.approx([2, 4])

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup([1], [1.0])
        with pytest.raises(ValueError):
            speedup([1, 2], [1.0])
        with pytest.raises(ValueError):
            speedup([2, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            speedup([1, 2], [1.0, -2.0])
        with pytest.raises(ValueError):
            speedup([0, 2], [1.0, 2.0])


class TestSaturationKnee:
    def test_saturation_detected(self):
        workers = [1, 2, 4, 8, 16]
        thr = [10, 20, 38, 39, 40.5]
        assert saturation_point(workers, thr) == 4

    def test_no_saturation(self):
        assert saturation_point([1, 2, 4], [10, 20, 40]) is None

    def test_knee_detected(self):
        workers = [1, 4, 16, 48, 96]
        times = [10, 10.1, 10.3, 15, 30]
        assert knee_point(workers, times) == 48

    def test_flat_series_has_no_knee(self):
        assert knee_point([1, 2, 4], [10, 10.1, 10.2]) is None


class TestUSL:
    def test_fits_synthetic_usl(self):
        alpha, beta, gamma = 0.08, 0.0005, 12.0
        n = np.array([1, 2, 4, 8, 16, 32, 64, 96], dtype=float)
        thr = gamma * n / (1 + alpha * (n - 1) + beta * n * (n - 1))
        fit = fit_usl(n, thr)
        assert fit.alpha == pytest.approx(alpha, abs=0.02)
        assert fit.beta == pytest.approx(beta, abs=0.0005)
        assert fit.residual < 0.2
        # Predictions reproduce the data.
        assert fit.predict(32) == pytest.approx(float(thr[5]), rel=0.02)

    def test_peak_workers(self):
        fit = fit_usl([1, 2, 4, 8, 16, 32],
                      [10, 18, 29, 38, 39, 33])
        assert 8 < fit.peak_workers < 40

    def test_linear_scaling_has_no_peak(self):
        n = [1, 2, 4, 8]
        fit = fit_usl(n, [10, 20, 40, 80])
        assert fit.alpha < 0.01
        assert fit.peak_workers > 100 or fit.peak_workers == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_usl([1, 2], [1.0, 0.0])


class TestCharts:
    def make_fig(self):
        fig = FigureData("Fig X", "demo", "workers", [1, 2, 4, 8])
        fig.add("rising", [1.0, 2.0, 4.0, 8.0], unit="MB/s")
        fig.add("flat", [3.0, 3.0, 3.0, 3.0], unit="MB/s")
        return fig

    def test_chart_contains_labels_and_markers(self):
        text = ascii_chart(self.make_fig())
        assert "Fig X" in text
        assert "o rising" in text and "x flat" in text
        assert "(workers)" in text
        assert "8" in text  # top y label

    def test_chart_dimensions(self):
        text = ascii_chart(self.make_fig(), width=40, height=10)
        lines = text.splitlines()
        # title + 10 rows + axis + xlabels + legend
        assert len(lines) == 14

    def test_log_scale(self):
        fig = FigureData("Fig L", "log demo", "n", [1, 2, 3])
        fig.add("wide", [1.0, 100.0, 10000.0])
        text = ascii_chart(fig, logy=True)
        assert "1e+04" in text or "10000" in text

    def test_empty_and_tiny(self):
        fig = FigureData("Fig E", "t", "x", [1])
        assert "no series" in ascii_chart(fig)
        fig.add("s", [1.0])
        assert ">= 2 points" in ascii_chart(fig)

    def test_sparkline(self):
        s = sparkline([1, 2, 3, 4, 5])
        assert len(s) == 5
        assert s[0] != s[-1]
        assert sparkline([2, 2, 2]) == "▄▄▄"
        assert sparkline([]) == ""


class TestOnRealSweep:
    """The analysis tools applied to an actual benchmark sweep."""

    def test_fig4_analysis(self):
        from repro.core import (BlobBenchConfig, RunConfig,
                                PHASE_PAGE_UPLOAD, blob_bench_body,
                                sweep_workers)
        cfg = BlobBenchConfig(total_chunks=32, repeats=1)
        sweep = sweep_workers(lambda: blob_bench_body(cfg),
                              [1, 2, 4, 8, 16, 32], RunConfig(seed=5))
        workers = list(sweep)
        thr = [sweep[w].phase(PHASE_PAGE_UPLOAD).throughput_mb_per_s
               for w in workers]
        times = [sweep[w].phase(PHASE_PAGE_UPLOAD).mean_worker_time
                 for w in workers]
        # Upload times shrink -> speedup grows.
        s = speedup(workers, times)
        assert s[-1] > 3
        # Throughput saturates within the sweep.
        fit = fit_usl(workers, thr)
        assert fit.alpha > 0  # visible contention
