"""Analysis utilities: scalability metrics and terminal charts."""

from .charts import ascii_chart, sparkline
from .scaling import (
    USLFit,
    fit_usl,
    knee_point,
    saturation_point,
    speedup,
)

__all__ = [
    "speedup",
    "saturation_point",
    "knee_point",
    "USLFit",
    "fit_usl",
    "ascii_chart",
    "sparkline",
]
