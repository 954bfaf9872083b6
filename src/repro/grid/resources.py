"""Grid resources: nodes and clusters with 2004-era knobs.

The hardware in the paper:

* **TAM** — "5 nodes, each one a dual-600-MHz PIII processor nodes each
  with 1 GB of RAM" → :func:`tam_cluster`;
* **SQL** — "a Microsoft SQL Server 2000 cluster composed of 3 nodes,
  each one a dual 2.6 GHz Xeon with 2 GB of RAM" → :func:`sql_cluster`.

CPU speed enters the simulation as a scaling factor on measured task
times (Table 2's "the TAM CPU is about 4 times slower"), RAM as a hard
capacity check that reproduces the buffer-size compromise of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GridError


@dataclass(frozen=True)
class Node:
    """One grid compute node."""

    name: str
    cpu_mhz: float
    n_cpus: int = 1
    ram_mb: float = 1024.0
    disk_gb: float = 100.0

    def __post_init__(self) -> None:
        if self.cpu_mhz <= 0 or self.n_cpus <= 0 or self.ram_mb <= 0:
            raise GridError(f"node '{self.name}' has non-positive resources")

    @property
    def slots(self) -> int:
        """Schedulable job slots (one per CPU, the Condor convention)."""
        return self.n_cpus

    def cpu_scale(self, reference_mhz: float) -> float:
        """Runtime multiplier vs. a reference CPU (slower -> larger)."""
        if reference_mhz <= 0:
            raise GridError("reference CPU speed must be positive")
        return reference_mhz / self.cpu_mhz

    def fits_in_ram(self, bytes_needed: float) -> bool:
        """Would a working set fit in this node's memory?"""
        return bytes_needed <= self.ram_mb * 1024.0 * 1024.0


@dataclass(frozen=True)
class ClusterSpec:
    """A named collection of nodes."""

    name: str
    nodes: tuple[Node, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise GridError(f"cluster '{self.name}' has no nodes")

    @property
    def total_slots(self) -> int:
        return sum(node.slots for node in self.nodes)


def tam_cluster() -> ClusterSpec:
    """The Terabyte Analysis Machine: 5 x dual-600MHz PIII, 1 GB each.

    "The TAM cluster could process ten target fields in parallel."
    """
    return ClusterSpec(
        name="TAM",
        nodes=tuple(
            Node(f"tam{k}", cpu_mhz=600.0, n_cpus=2, ram_mb=1024.0)
            for k in range(5)
        ),
    )


def sql_cluster(n_nodes: int = 3) -> ClusterSpec:
    """The SQL Server cluster: dual 2.6 GHz Xeons with 2 GB RAM."""
    return ClusterSpec(
        name="SQL",
        nodes=tuple(
            Node(f"sql{k}", cpu_mhz=2600.0, n_cpus=2, ram_mb=2048.0)
            for k in range(n_nodes)
        ),
    )
