"""Virtual machine configurations of Windows Azure roles (paper Table I).

"Both web role and worker role processes can have different configurations
as shown in Table I."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "VMSize",
    "EXTRA_SMALL",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "EXTRA_LARGE",
    "TABLE_I",
]


@dataclass(frozen=True)
class VMSize:
    """One row of the paper's Table I.

    ``cpu_cores`` is ``None`` for the Extra Small instance, whose core is
    *shared* rather than dedicated.  ``nic_mbps`` is the era's documented
    network allocation per size (not part of Table I, used by the optional
    client-side bandwidth model).
    """

    name: str
    cpu_cores: Optional[int]
    memory_mb: int
    storage_gb: int
    nic_mbps: int

    @property
    def shared_core(self) -> bool:
        return self.cpu_cores is None

    @property
    def cores_display(self) -> str:
        return "Shared" if self.shared_core else str(self.cpu_cores)

    @property
    def memory_display(self) -> str:
        if self.memory_mb < 1024:
            return f"{self.memory_mb}MB"
        gb = self.memory_mb / 1024
        return f"{gb:g} GB"

    @property
    def nic_bytes_per_second(self) -> float:
        return self.nic_mbps * 1_000_000 / 8


EXTRA_SMALL = VMSize("Extra Small", None, 768, 20, 5)
SMALL = VMSize("Small", 1, 1792, 225, 100)
MEDIUM = VMSize("Medium", 2, 3584, 490, 200)
LARGE = VMSize("Large", 4, 7168, 1000, 400)
EXTRA_LARGE = VMSize("Extra Large", 8, 14336, 2040, 800)

#: The paper's Table I, in row order.
TABLE_I: List[VMSize] = [EXTRA_SMALL, SMALL, MEDIUM, LARGE, EXTRA_LARGE]
