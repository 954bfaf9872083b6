"""Zone-range partitioning across servers (Section 2.4, Figure 6).

"Applying a zone strategy, P gets partitioned homogeneously among 3
servers: S1 provides 1 deg buffer on top, S2 on top and bottom, S3 on
bottom."  The declination-striped layout makes every server *completely
independent*: each gets its native stripe of the target plus a
duplicated skirt wide enough that all of its candidate evaluations and
cluster competitions can be answered locally.

The skirt must be **two** search radii (1 deg for the paper's 0.5 deg
buffer): a candidate at the native-stripe edge competes with candidates
up to one radius away (fIsCluster), and those rivals need *their* full
neighborhoods — another radius — to produce exactly the chi² values the
sequential run would.  This is why the union of partition answers is
bit-identical to the one-node answer (the invariant
:mod:`repro.cluster.verify` checks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError
from repro.skyserver.regions import RegionBox


@dataclass(frozen=True)
class Partition:
    """One server's share of the work.

    Attributes
    ----------
    server:
        0-based server number (top stripe first, like Figure 6's S1).
    target:
        The native declination stripe of the global target T — the
        region whose clusters this server owns.
    buffer:
        ``target`` expanded by the search radius: the candidate
        evaluation region of this server.
    imported:
        ``buffer`` expanded once more (clipped to the global import
        region): every galaxy this server must hold, duplicated skirt
        included.
    """

    server: int
    target: RegionBox
    buffer: RegionBox
    imported: RegionBox


@dataclass(frozen=True)
class PartitionLayout:
    """A full layout: the global regions plus one Partition per server."""

    target: RegionBox
    buffer_deg: float
    partitions: tuple[Partition, ...]

    @property
    def n_servers(self) -> int:
        return len(self.partitions)

    @property
    def global_buffer(self) -> RegionBox:
        return self.target.expand(self.buffer_deg)

    @property
    def global_import(self) -> RegionBox:
        return self.target.expand(2.0 * self.buffer_deg)

    def duplicated_area(self) -> float:
        """Total flat-sky area imported more than once (deg²).

        The paper's Figure 6 caption: "Total duplicated data =
        4 × 13 deg²" for 3 servers over the 13-deg-wide region — each
        internal stripe boundary contributes two skirts of one search
        radius... here computed exactly from the layout.
        """
        total_imported = sum(p.imported.flat_area() for p in self.partitions)
        return total_imported - self.global_import.flat_area()

    def duplication_factor(self) -> float:
        """Imported rows per unique row (area proxy), >= 1."""
        base = self.global_import.flat_area()
        if base <= 0:
            raise PartitionError("degenerate global import region")
        return sum(p.imported.flat_area() for p in self.partitions) / base


def make_partitions(
    target: RegionBox, buffer_deg: float, n_servers: int
) -> PartitionLayout:
    """Split a target into ``n_servers`` declination stripes + skirts.

    Stripes are equal-height in declination (the paper's homogeneous
    zone split; zones are dec stripes, so a contiguous zone range *is* a
    dec interval).  Stripes thinner than the duplication skirt remain
    *correct* — every server still imports everything within two search
    radii of its stripe — they just duplicate progressively more data,
    which is exactly the diminishing-returns curve the partition-count
    ablation benchmark measures.
    """
    if n_servers <= 0:
        raise PartitionError(f"need at least 1 server, got {n_servers}")
    if buffer_deg <= 0:
        raise PartitionError(f"buffer must be positive, got {buffer_deg}")
    global_import = target.expand(2.0 * buffer_deg)
    partitions = []
    # Figure 6 numbers stripes from the top (S1 = highest declination).
    stripes = list(reversed(target.split_dec(n_servers)))
    for server, stripe in enumerate(stripes):
        buffer_region = stripe.expand(buffer_deg).intersect(
            target.expand(buffer_deg)
        )
        assert buffer_region is not None
        imported = stripe.expand(2.0 * buffer_deg).intersect(global_import)
        assert imported is not None
        partitions.append(
            Partition(
                server=server,
                target=stripe,
                buffer=buffer_region,
                imported=imported,
            )
        )
    return PartitionLayout(
        target=target, buffer_deg=buffer_deg, partitions=tuple(partitions)
    )
