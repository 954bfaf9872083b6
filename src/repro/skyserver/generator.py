"""Synthetic SDSS sky: the data substrate of the reproduction.

The paper ran against the real SDSS DR1 catalog, which we cannot ship.
:class:`SkySimulator` generates a statistically similar stand-in with a
crucial extra property — *known ground truth*:

* a **field population**: spatially uniform galaxies with power-law
  magnitude counts and broad field colors; the paper's test region held
  ~1.5 M galaxies over 104 deg² ≈ 14,000 per deg² (:data:`PAPER_DENSITY`);
* an **injected cluster population**: ~18 clusters per deg² (the paper's
  "approximately 4.5 clusters per [0.25 deg²] target area"), each with a
  BCG drawn *from the k-correction ridge* at the cluster redshift plus
  population scatter, and richness-many member galaxies packed inside
  the 1 Mpc aperture with red-sequence colors.

Ground truth (:class:`ClusterTruth`) records every injected BCG so tests
can score completeness, and the densities are dialed down for unit tests
via :class:`SkyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # imported lazily to avoid a core <-> skyserver cycle
    from repro.core.config import MaxBCGConfig
    from repro.core.kcorrection import KCorrectionTable
from repro.skyserver.catalog import GalaxyCatalog
from repro.skyserver.photometry import (
    FieldColorModel,
    MagnitudeDistribution,
    observed_colors,
    sigma_gr,
    sigma_ri,
)
from repro.skyserver.regions import RegionBox

#: SDSS-like field galaxy surface density, galaxies per deg^2
#: (1.5M galaxies / 104 deg^2, Section 2.6).
PAPER_DENSITY = 14_000.0

#: Cluster surface density: 4.5 clusters per 0.25 deg^2 target field.
PAPER_CLUSTER_DENSITY = 18.0

#: objid space: synthetic ids start here (SDSS objids are huge bigints).
OBJID_BASE = 587_722_981_741_000_000


@dataclass(frozen=True)
class SkyConfig:
    """Knobs of the synthetic sky.

    ``field_density`` and ``cluster_density`` are per deg²; tests use
    much smaller values than :data:`PAPER_DENSITY` so suites stay fast.
    ``richness_min/max`` bound the member count of injected clusters and
    ``member_concentration`` squeezes members toward the center (the
    radial CDF is ``r^concentration``... higher = tighter).
    """

    field_density: float = 900.0
    cluster_density: float = 18.0
    richness_min: int = 8
    richness_max: int = 40
    member_concentration: float = 2.0
    bcg_mag_scatter: float = 0.15
    member_color_scatter: float = 0.4  # intrinsic scatter / popSigma
    field_gr_mean: float = 0.70
    field_gr_sigma: float = 0.50
    field_ri_mean: float = 0.35
    field_ri_sigma: float = 0.28
    magnitude_slope: float = 0.45
    z_margin: float = 0.01
    seed: int = 20040801  # the technical report's date
    holes: tuple = ()  # RegionBoxes excluded from the footprint (masks)

    def __post_init__(self) -> None:
        if self.field_density < 0 or self.cluster_density < 0:
            raise ConfigError("densities must be non-negative")
        if not (0 < self.richness_min <= self.richness_max):
            raise ConfigError("need 0 < richness_min <= richness_max")
        if self.member_concentration <= 0:
            raise ConfigError("member_concentration must be positive")
        if self.member_color_scatter <= 0:
            raise ConfigError("member_color_scatter must be positive")

    def field_colors(self) -> FieldColorModel:
        return FieldColorModel(
            self.field_gr_mean,
            self.field_gr_sigma,
            self.field_ri_mean,
            self.field_ri_sigma,
        )


@dataclass(frozen=True)
class ClusterTruth:
    """Ground truth for one injected cluster."""

    bcg_objid: int
    ra: float
    dec: float
    z: float
    richness: int
    member_objids: tuple[int, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class SyntheticSky:
    """A generated catalog plus its ground truth."""

    catalog: GalaxyCatalog
    clusters: tuple[ClusterTruth, ...]
    region: RegionBox

    @property
    def n_galaxies(self) -> int:
        return len(self.catalog)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


class SkySimulator:
    """Deterministic generator of :class:`SyntheticSky` instances.

    One simulator can stamp out many independent regions; the stream of
    object ids is monotone across calls so concatenated catalogs keep
    unique ids.

    When :attr:`SkyConfig.holes` is non-empty, the footprint has masked
    rectangles (bright stars, bad columns — real surveys are never
    rectangles): no field galaxy or cluster *center* lands in a hole,
    and cluster members that scatter into one are removed, exactly the
    partial-cluster situation a real catalog hands the algorithm.
    """

    def __init__(
        self,
        kcorr: KCorrectionTable,
        config: MaxBCGConfig,
        sky: SkyConfig | None = None,
    ):
        self.kcorr = kcorr
        self.config = config
        self.sky = sky or SkyConfig()
        self._rng = np.random.default_rng(self.sky.seed)
        self._next_objid = OBJID_BASE

    # ------------------------------------------------------------------
    def _claim_objids(self, n: int) -> np.ndarray:
        ids = np.arange(self._next_objid, self._next_objid + n, dtype=np.int64)
        self._next_objid += n
        return ids

    def _in_hole(self, ra, dec) -> np.ndarray:
        """Mask of positions falling inside any footprint hole."""
        ra = np.asarray(ra, dtype=np.float64)
        inside = np.zeros(ra.shape, dtype=bool)
        for hole in self.sky.holes:
            inside |= hole.contains(ra, dec)
        return inside

    def _uniform_positions(
        self, region: RegionBox, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions uniform *on the sphere* within the box, avoiding holes."""
        ra = self._rng.uniform(region.ra_min, region.ra_max, n)
        sin_lo = np.sin(np.deg2rad(region.dec_min))
        sin_hi = np.sin(np.deg2rad(region.dec_max))
        dec = np.rad2deg(np.arcsin(self._rng.uniform(sin_lo, sin_hi, n)))
        if self.sky.holes:
            for _ in range(64):  # rejection-sample the masked positions
                bad = self._in_hole(ra, dec)
                if not bad.any():
                    break
                k = int(bad.sum())
                ra[bad] = self._rng.uniform(region.ra_min, region.ra_max, k)
                dec[bad] = np.rad2deg(np.arcsin(
                    self._rng.uniform(sin_lo, sin_hi, k)
                ))
        return ra, dec

    # ------------------------------------------------------------------
    def _generate_field(self, region: RegionBox) -> GalaxyCatalog:
        n = int(self._rng.poisson(self.sky.field_density * region.area()))
        ra, dec = self._uniform_positions(region, n)
        mags = MagnitudeDistribution(slope=self.sky.magnitude_slope).sample(
            n, self._rng
        )
        true_gr, true_ri = self.sky.field_colors().sample(n, self._rng)
        gr, ri = observed_colors(true_gr, true_ri, mags, self._rng)
        return GalaxyCatalog(
            objid=self._claim_objids(n),
            ra=ra, dec=dec, i=mags, gr=gr, ri=ri,
            sigmagr=sigma_gr(mags), sigmari=sigma_ri(mags),
        )

    def _generate_cluster(
        self, ra0: float, dec0: float, z: float
    ) -> tuple[GalaxyCatalog, ClusterTruth]:
        rng = self._rng
        cfg, sky, kc = self.config, self.sky, self.kcorr
        zid = kc.nearest_zid(z)
        z_grid = float(kc.z[zid])
        richness = int(rng.integers(sky.richness_min, sky.richness_max + 1))

        # BCG: on the ridge at this redshift, scattered within the
        # population dispersions the chi^2 statistic assumes.
        bcg_i = float(kc.i[zid] + rng.normal(0.0, sky.bcg_mag_scatter))
        bcg_gr = float(kc.gr[zid] + rng.normal(0.0, cfg.gr_pop_sigma))
        bcg_ri = float(kc.ri[zid] + rng.normal(0.0, cfg.ri_pop_sigma))

        # Members: inside the 1 Mpc aperture, red-sequence colors, fainter
        # than the BCG down to ilim.  Radial profile r ~ U^(1/conc) packs
        # them toward the center like a real cluster.
        radius = float(kc.radius[zid])
        r = radius * rng.random(richness) ** (1.0 / sky.member_concentration)
        theta = rng.uniform(0.0, 2.0 * np.pi, richness)
        dec = dec0 + r * np.sin(theta)
        ra = ra0 + r * np.cos(theta) / np.cos(np.deg2rad(dec0))
        if sky.holes:
            keep = ~self._in_hole(ra, dec)
            ra, dec, r = ra[keep], dec[keep], r[keep]
            richness = int(keep.sum())
        ilim = float(kc.ilim[zid])
        member_i = rng.uniform(min(bcg_i + 0.1, ilim), ilim, richness)
        scatter = sky.member_color_scatter
        true_gr = kc.gr[zid] + rng.normal(0.0, scatter * cfg.gr_pop_sigma, richness)
        true_ri = kc.ri[zid] + rng.normal(0.0, scatter * cfg.ri_pop_sigma, richness)
        member_gr, member_ri = observed_colors(true_gr, true_ri, member_i, rng)

        all_ra = np.concatenate([[ra0], ra])
        all_dec = np.concatenate([[dec0], dec])
        all_i = np.concatenate([[bcg_i], member_i])
        all_gr = np.concatenate([[bcg_gr], member_gr])
        all_ri = np.concatenate([[bcg_ri], member_ri])
        objids = self._claim_objids(richness + 1)
        catalog = GalaxyCatalog(
            objid=objids,
            ra=all_ra, dec=all_dec, i=all_i, gr=all_gr, ri=all_ri,
            sigmagr=sigma_gr(all_i), sigmari=sigma_ri(all_i),
        )
        truth = ClusterTruth(
            bcg_objid=int(objids[0]),
            ra=ra0, dec=dec0, z=z_grid, richness=richness,
            member_objids=tuple(int(o) for o in objids[1:]),
        )
        return catalog, truth

    # ------------------------------------------------------------------
    def generate(self, region: RegionBox) -> SyntheticSky:
        """Generate a region: field + injected clusters + ground truth."""
        parts = [self._generate_field(region)]
        n_clusters = int(self._rng.poisson(self.sky.cluster_density * region.area()))
        ras, decs = self._uniform_positions(region, n_clusters)
        zs = self._rng.uniform(
            self.config.z_min + self.sky.z_margin,
            self.config.z_max - self.sky.z_margin,
            n_clusters,
        )
        truths = []
        for ra0, dec0, z in zip(ras, decs, zs):
            cluster_cat, truth = self._generate_cluster(
                float(ra0), float(dec0), float(z)
            )
            parts.append(cluster_cat)
            truths.append(truth)
        return SyntheticSky(
            catalog=GalaxyCatalog.concat_all(parts),
            clusters=tuple(truths),
            region=region,
        )


def make_sky(
    region: RegionBox,
    config: MaxBCGConfig,
    kcorr: KCorrectionTable,
    sky: SkyConfig | None = None,
) -> SyntheticSky:
    """One-shot convenience wrapper around :class:`SkySimulator`."""
    return SkySimulator(kcorr, config, sky).generate(region)
