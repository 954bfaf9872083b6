"""The paper's MaxBCG as stored procedures on the engine.

This module is the closest thing in the reproduction to running the
paper's appendix verbatim: :class:`MaxBCGSqlApplication` installs, on a
:class:`~repro.engine.database.Database`,

* the appendix **schema** — ``Kcorr``, ``Galaxy``, ``Candidates``,
  ``Clusters``, ``ClusterGalaxiesMetric`` — as real engine tables;
* the **Zone view** over primary galaxies;
* the table-valued function **fGetNearbyObjEqZd**, callable from SQL
  (``SELECT * FROM fGetNearbyObjEqZd(2.5, 3.0, 0.5) n``);
* the **stored procedures** ``spImportGalaxy``, ``spZone``,
  ``spMakeCandidates``, ``spMakeClusters`` and
  ``spMakeGalaxiesMetric``, invokable with ``EXEC`` exactly as the
  appendix's driver script does.

The procedures' bodies reuse the audited kernels of
:mod:`repro.core` (cursor-style, like the SQL originals), so a run via

    EXEC spImportGalaxy 172, 185, -3, 5
    EXEC spZone
    EXEC spMakeCandidates 172.5, 184.5, -2.5, 4.5
    EXEC spMakeClusters
    EXEC spMakeGalaxiesMetric

produces catalogs identical to :class:`~repro.core.pipeline.MaxBCGPipeline`
(a test asserts this), while every row flows through engine tables with
full page-I/O accounting.
"""

from __future__ import annotations

import numpy as np

from repro.core.candidates import evaluate_galaxy
from repro.core.clusters import make_clusters
from repro.core.config import MaxBCGConfig
from repro.core.kcorrection import KCorrectionTable
from repro.core.members import make_cluster_members
from repro.core.results import CandidateCatalog
from repro.engine.database import Database
from repro.errors import EngineError
from repro.skyserver.catalog import GALAXY_COLUMNS, GalaxyCatalog
from repro.skyserver.regions import RegionBox
from repro.spatial.zones import ZoneIndex, zone_id

#: The appendix schema, lightly adapted to the engine's SQL subset
#: (identity columns and float-width splits are uniform here).
APPENDIX_SCHEMA = """
CREATE TABLE Kcorr (
    zid int PRIMARY KEY NOT NULL,
    z real, i real, ilim real,
    ug real, gr real, ri real, iz real,
    radius float
);
CREATE TABLE Galaxy (
    objid bigint PRIMARY KEY,
    ra float, dec float,
    i real, gr real, ri real,
    sigmagr float, sigmari float
);
CREATE TABLE Candidates (
    objid bigint PRIMARY KEY,
    ra float, dec float, z float, i real,
    ngal int, chi2 float
);
CREATE TABLE Clusters (
    objid bigint PRIMARY KEY,
    ra float, dec float, z float, i real,
    ngal int, chi2 float
);
CREATE TABLE ClusterGalaxiesMetric (
    clusterObjID bigint,
    galaxyObjID bigint,
    distance float
);
"""


class MaxBCGSqlApplication:
    """The deployable MaxBCG SQL application (the paper's ~500 lines).

    One instance binds to one database.  After construction, everything
    is driven through SQL: ``db.sql("EXEC spZone")`` etc.  The galaxy
    *source* (the stand-in for ``MySkyServerDr1.dbo.Galaxy``) is a
    table named ``galaxy_source`` that the caller loads — in the
    federation scenario each site loads its own stripe.
    """

    def __init__(
        self,
        database: Database,
        kcorr: KCorrectionTable,
        config: MaxBCGConfig,
    ):
        self.database = database
        self.kcorr = kcorr
        self.config = config
        self._index: ZoneIndex | None = None
        self._catalog: GalaxyCatalog | None = None
        self._install()

    # ------------------------------------------------------------------
    def _install(self) -> None:
        db = self.database
        db.run_script(APPENDIX_SCHEMA)
        db.table("kcorr").insert(self.kcorr.as_columns())

        db.create_table_function(
            "fGetNearbyObjEqZd", ("objid", "distance"), self._f_get_nearby
        )
        db.create_procedure("spImportGalaxy", self._sp_import_galaxy)
        db.create_procedure("spZone", self._sp_zone)
        db.create_procedure("spMakeCandidates", self._sp_make_candidates)
        db.create_procedure("spMakeClusters", self._sp_make_clusters)
        db.create_procedure("spMakeGalaxiesMetric", self._sp_make_galaxies_metric)

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    def _require_zoned(self) -> tuple[GalaxyCatalog, ZoneIndex]:
        if self._catalog is None or self._index is None:
            raise EngineError(
                "run EXEC spZone before neighbor searches (the paper's "
                "spZone 'arranges the data in Zones so the neighborhood "
                "searches are efficient')"
            )
        return self._catalog, self._index

    def _read_candidates(self) -> CandidateCatalog:
        table = self.database.table("candidates")
        columns = table.scan()
        return CandidateCatalog(**columns)

    # ------------------------------------------------------------------
    # the table-valued function
    # ------------------------------------------------------------------
    def _f_get_nearby(self, ra: float, dec: float, radius: float):
        """``fGetNearbyObjEqZd``: neighbors within a cone, as a batch."""
        catalog, index = self._require_zoned()
        rows, distances = index.query(float(ra), float(dec), float(radius))
        self.database.table("galaxy").touch_rows(rows)
        return {
            "objid": catalog.objid[rows],
            "distance": distances,
        }

    # ------------------------------------------------------------------
    # stored procedures
    # ------------------------------------------------------------------
    def _sp_import_galaxy(self, db: Database, min_ra, max_ra, min_dec, max_dec):
        """``spImportGalaxy``: cut the source catalog into Galaxy."""
        source = db.table("galaxy_source")
        columns = source.scan()
        region = RegionBox(float(min_ra), float(max_ra),
                           float(min_dec), float(max_dec))
        mask = region.contains(columns["ra"], columns["dec"])
        galaxy = db.table("galaxy")
        galaxy.truncate()
        selected = {name: columns[name][mask] for name in GALAXY_COLUMNS}
        if selected["objid"].size:
            galaxy.insert(selected)
        self._catalog = None
        self._index = None
        return int(mask.sum())

    def _sp_zone(self, db: Database):
        """``spZone``: sort Galaxy into zone order, build the clustered
        index, and cache the in-memory zone structure.

        Also materializes the ``Zone`` table — (objid, zoneid, ra, dec)
        clustered on (zoneid, ra) — so declarative zone joins have an
        index-backed access path, exactly the structure the paper's
        set-oriented rewrite exploits.
        """
        galaxy = db.table("galaxy")
        catalog = GalaxyCatalog.from_columns(galaxy.columns_dict())
        index = ZoneIndex(catalog.ra, catalog.dec, self.config.zone_height_deg)
        sorted_catalog = catalog.take(index.source_index)
        # physically re-sort the engine table to match (spZone's rewrite)
        galaxy.reorder(index.source_index)
        self._catalog = sorted_catalog
        self._index = ZoneIndex(
            sorted_catalog.ra, sorted_catalog.dec, self.config.zone_height_deg
        )
        db.drop_table("zone", if_exists=True)
        db.create_table("zone", {
            "objid": sorted_catalog.objid,
            "zoneid": self._index.zone,
            "ra": self._index.ra,
            "dec": self._index.dec,
        }, primary_key="objid")
        db.create_clustered_index("zone", "zoneid", "ra")
        return galaxy.row_count

    def _sp_make_candidates(self, db: Database, min_ra, max_ra, min_dec, max_dec):
        """``spMakeCandidates``: cursor over galaxies in the bounds,
        ``fBCGCandidate`` for each, INSERT the survivors."""
        catalog, index = self._require_zoned()
        db.sql("TRUNCATE TABLE Candidates")
        region = RegionBox(float(min_ra), float(max_ra),
                           float(min_dec), float(max_dec))
        galaxy_table = db.table("galaxy")
        rows = []
        for position in np.flatnonzero(
            region.contains(catalog.ra, catalog.dec)
        ):
            galaxy_table.touch_rows(np.asarray([position]))  # FETCH NEXT
            result = evaluate_galaxy(
                catalog, int(position), index, self.kcorr, self.config
            )
            if result is not None:
                rows.append(result)
        candidates = CandidateCatalog.from_rows(rows)
        if len(candidates):
            db.table("candidates").insert(candidates.as_columns())
        return len(candidates)

    def _sp_make_clusters(self, db: Database):
        """``spMakeClusters``: keep candidates that are cluster centers."""
        candidates = self._read_candidates()
        db.sql("TRUNCATE TABLE Clusters")
        clusters = make_clusters(
            candidates, self.kcorr, self.config, method="cursor",
            on_rivals=db.table("candidates").touch_rows,
        )
        if len(clusters):
            db.table("clusters").insert(clusters.as_columns())
        return len(clusters)

    def _sp_make_galaxies_metric(self, db: Database):
        """``spMakeGalaxiesMetric``: membership links for every cluster."""
        catalog, index = self._require_zoned()
        clusters_columns = db.table("clusters").scan()
        clusters = CandidateCatalog(**clusters_columns)
        db.sql("TRUNCATE TABLE ClusterGalaxiesMetric")
        members = make_cluster_members(
            catalog, clusters, index, self.kcorr, self.config
        )
        if len(members):
            db.table("clustergalaxiesmetric").insert({
                "clusterobjid": members.cluster_objid,
                "galaxyobjid": members.galaxy_objid,
                "distance": members.distance,
            })
        return len(members)


#: The appendix's demo driver, ready for ``db.run_script`` after a
#: MaxBCGSqlApplication is installed and galaxy_source is loaded.
DEMO_SCRIPT = """
EXEC spImportGalaxy 190, 200, 0, 5;
EXEC spZone;
EXEC spMakeCandidates 194, 196, 1.5, 3.5;
EXEC spMakeClusters;
EXEC spMakeGalaxiesMetric;
"""


def install_maxbcg(
    database: Database, kcorr: KCorrectionTable, config: MaxBCGConfig
) -> MaxBCGSqlApplication:
    """Deploy the MaxBCG SQL application onto a database."""
    return MaxBCGSqlApplication(database, kcorr, config)
