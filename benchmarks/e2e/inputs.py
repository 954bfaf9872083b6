"""Seeded inputs: the same ``--seed`` always yields the same load.

The sky comes from the program's own generator (``SkySimulator`` is the
set-up layer ``skyserver.generator``), but its Poisson row count is
trimmed to the pinned size so page counts — and with them every
buffer-pool counter — do not drift from seed to seed.  Densities,
regions and grids are fixed in :mod:`sizes`, not read from
``repro.bench``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MaxBCGConfig
from repro.core.kcorrection import KCorrectionTable, build_kcorrection_table
from repro.skyserver.catalog import GalaxyCatalog
from repro.skyserver.generator import SkyConfig, SkySimulator
from repro.skyserver.regions import RegionBox

#: Member-count range of an injected cluster.  Far narrower than the
#: generator's default 8-40: neighbour pairs grow with richness squared,
#: so a few rich clusters would decide what a sky costs.
CLUSTER_RICHNESS = (10, 14)


def _poisson_mean(at_least: float) -> float:
    """The Poisson mean whose 5-sigma lower edge is ``at_least``."""
    return (0.5 * (5.0 + np.sqrt(25.0 + 4.0 * at_least))) ** 2


@dataclass
class Sky:
    """One generated sky with the grid it was generated against."""

    catalog: GalaxyCatalog
    target: RegionBox
    config: MaxBCGConfig
    kcorr: KCorrectionTable
    #: The :mod:`sizes` entry this sky was generated for.
    size: object


def make_kcorr(z_step: float) -> tuple[MaxBCGConfig, KCorrectionTable]:
    config = MaxBCGConfig(z_step=z_step)
    return config, build_kcorrection_table(config)


def make_catalog(
    seed: int,
    target: tuple[float, float, float, float],
    n_galaxies: int,
    cluster_share: float,
    config: MaxBCGConfig,
    kcorr: KCorrectionTable,
) -> GalaxyCatalog:
    """A sky over T + 2 buffers holding exactly ``n_galaxies`` rows.

    ``cluster_share`` of them (to within a cluster or two) are injected
    cluster galaxies — the rows that pass the chi-squared filter and so
    decide how much work a sky is.  Whole clusters and random field
    galaxies (seeded) are dropped until both counts match, so the seed
    moves where galaxies are, not how many there are.
    """
    region = RegionBox(*target).expand(2.0 * config.buffer_deg)
    want_cluster_rows = int(n_galaxies * cluster_share)
    # ask the generator for enough that its Poisson draws (and the
    # uniform richness draws) fall short of the pinned counts only
    # beyond five sigma
    poorest, richest = CLUSTER_RICHNESS
    cluster_size = 0.5 * (poorest + richest) + 1.0
    size_sigma = (richest - poorest) / 12**0.5
    clusters = want_cluster_rows / cluster_size
    clusters += 5.0 * np.sqrt(clusters) * size_sigma / cluster_size + 1.0
    sky = SkySimulator(
        kcorr,
        config,
        SkyConfig(
            field_density=(
                _poisson_mean(n_galaxies - want_cluster_rows) / region.area()
            ),
            cluster_density=_poisson_mean(clusters) / region.area(),
            richness_min=poorest,
            richness_max=richest,
            seed=seed,
        ),
    ).generate(region)
    catalog = sky.catalog
    # field rows come first, then one contiguous block per cluster
    sizes = np.array([c.richness + 1 for c in sky.clusters])
    n_field = len(catalog) - int(sizes.sum())
    starts = n_field + np.cumsum(sizes) - sizes
    # a low-redshift cluster has a search radius several times a distant
    # one's, so which redshifts the kept clusters sit at decides the
    # work: keep them at evenly spaced redshift quantiles, as many as
    # reach the pinned row count
    by_z = np.argsort([c.z for c in sky.clusters], kind="stable")
    n_keep = int(round(want_cluster_rows / cluster_size))
    kept = None
    for _ in range(4):
        if not 0 < n_keep <= len(by_z):
            kept = None
            break
        kept = by_z[
            np.round(np.linspace(0, len(by_z) - 1, n_keep)).astype(np.int64)
        ]
        shortfall = want_cluster_rows - int(sizes[kept].sum())
        n_keep += int(round(shortfall / cluster_size))
    field_rows = n_galaxies - (0 if kept is None else int(sizes[kept].sum()))
    if kept is None or not 0 <= field_rows <= n_field:
        raise ValueError(
            f"generator fell short of the pinned sky: {n_field} field rows "
            f"and {len(by_z)} clusters for {n_galaxies} galaxies"
        )
    rng = np.random.default_rng([seed, 1])
    kept_field = np.sort(rng.choice(n_field, size=field_rows, replace=False))
    cluster_rows = [
        np.arange(starts[k], starts[k] + sizes[k]) for k in np.sort(kept)
    ]
    return catalog.take(np.concatenate([kept_field, *cluster_rows]))


def apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Whole-number counts summing to ``total``, proportional to
    ``weights`` (largest remainders get the leftover units)."""
    exact = np.asarray(weights, dtype=np.float64) * total / np.sum(weights)
    counts = np.floor(exact).astype(np.int64)
    leftover = total - int(counts.sum())
    counts[np.argsort(exact - counts, kind="stable")[::-1][:leftover]] += 1
    return counts


def shuffled(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Item ``k`` exactly ``counts[k]`` times, in seeded random order.

    Pinning how often each item occurs and leaving only the order to
    the seed keeps the *amount* of work the same from seed to seed.
    """
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def zipf_weights(n_items: int, s: float) -> np.ndarray:
    """Popularity of ranks 0..n_items-1, proportional to 1/(rank+1)^s."""
    return 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** s
