"""Tests for workload generators."""

import pytest

from repro.workloads import GISTile, gis_tiles


class TestGISTiles:
    def test_grid_layout(self):
        tiles = gis_tiles(grid=4, seed=0)
        assert len(tiles) == 16
        assert {(t.x, t.y) for t in tiles} == {(x, y) for x in range(4)
                                               for y in range(4)}

    def test_seeded(self):
        a = gis_tiles(grid=3, seed=5)
        b = gis_tiles(grid=3, seed=5)
        assert [(t.base_polygons, t.overlay_polygons) for t in a] == \
            [(t.base_polygons, t.overlay_polygons) for t in b]

    def test_hotspot_skew(self):
        """Density must be heavily skewed and spatially clustered."""
        tiles = gis_tiles(grid=8, seed=7)
        loads = sorted(t.base_polygons * t.overlay_polygons for t in tiles)
        assert loads[-1] > 20 * loads[len(loads) // 2]  # skew
        # Clustering: the top-4 densest tiles are near one another.
        top = sorted(tiles, key=lambda t: -t.base_polygons * t.overlay_polygons)[:4]
        xs = [t.x for t in top]
        ys = [t.y for t in top]
        assert max(xs) - min(xs) <= 4 and max(ys) - min(ys) <= 4

    def test_message_roundtrip(self):
        tile = gis_tiles(grid=2, seed=1)[3]
        assert GISTile.from_message(tile.to_message()) == tile

    def test_validation(self):
        with pytest.raises(ValueError):
            gis_tiles(grid=0)
