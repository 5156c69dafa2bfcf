"""The GIS polygon-overlay task set of the paper's Crayons example."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List

import numpy as np

from ..storage import KB

__all__ = ["gis_tiles", "GISTile"]


@dataclass(frozen=True)
class GISTile:
    """One tile of a Crayons-style GIS polygon-overlay job (paper [9]).

    ``base_polygons``/``overlay_polygons`` set the compute demand of the
    overlay; ``data_bytes`` the storage payload the worker must fetch.
    """

    tile_id: int
    x: int
    y: int
    base_polygons: int
    overlay_polygons: int
    data_bytes: int

    def to_message(self) -> bytes:
        return json.dumps({
            "tile_id": self.tile_id, "x": self.x, "y": self.y,
            "base_polygons": self.base_polygons,
            "overlay_polygons": self.overlay_polygons,
            "data_bytes": self.data_bytes,
        }).encode()

    @staticmethod
    def from_message(payload: bytes) -> "GISTile":
        d = json.loads(payload.decode())
        return GISTile(d["tile_id"], d["x"], d["y"], d["base_polygons"],
                       d["overlay_polygons"], d["data_bytes"])


def gis_tiles(grid: int = 8, *, mean_polygons: int = 400,
              seed: int = 0) -> List[GISTile]:
    """A ``grid x grid`` tiling with spatially clustered polygon density.

    GIS overlay workloads are famously load-imbalanced — urban tiles carry
    orders of magnitude more polygons than rural ones, and they *cluster*
    (a city spans adjacent tiles).  Density combines a lognormal draw with
    a Gaussian hotspot, so contiguous static partitions land entire hot
    regions on one worker — exactly why the paper's queue-based task pool
    (dynamic load balancing) beats static partitioning.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    rng = np.random.default_rng(seed)
    # Hotspot ("city center") somewhere in the interior of the map.
    cx = rng.uniform(grid * 0.25, grid * 0.75)
    cy = rng.uniform(grid * 0.25, grid * 0.75)
    sigma = max(1.0, grid / 6)
    tiles: List[GISTile] = []
    for tile_id in range(grid * grid):
        x, y = tile_id % grid, tile_id // grid
        boost = 1.0 + 20.0 * float(
            np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma ** 2)))
        base = int(rng.lognormal(np.log(mean_polygons), 0.6) * boost)
        over = int(rng.lognormal(np.log(mean_polygons), 0.6) * boost)
        data = 16 * KB + 64 * (base + over)
        tiles.append(GISTile(tile_id, x, y, base, over, data))
    return tiles
