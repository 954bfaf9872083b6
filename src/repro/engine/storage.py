"""On-disk persistence of tables and databases.

Two consumers need durable tables: the TAM comparison (whose whole point
is that the baseline round-trips everything through files) and CasJobs
MyDBs (per-user databases that outlive a session).  Format: one ``.npz``
per table holding the column arrays, plus a tiny ``.schema`` JSON with
column types and the primary key.  Optimizer statistics, when the table
has been ANALYZEd, ride along in a ``.stats`` JSON so a restored
database plans as well as the original did.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.engine.database import Database
from repro.engine.optimizer.statistics import stats_from_json, stats_to_json
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import ColumnType
from repro.errors import EngineError


def save_table(table: Table, directory: str | Path) -> Path:
    """Write one table to ``<directory>/<name>.npz`` (+ ``.schema``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / f"{table.name.lower()}.npz"
    columns = table.columns_dict()
    # STRING columns are object arrays; store them as unicode for npz.
    storable = {
        name: (arr.astype(str) if arr.dtype == object else arr)
        for name, arr in columns.items()
    }
    np.savez(data_path, **storable)
    meta = {
        "name": table.schema.name,
        "columns": [
            {"name": c.name, "type": c.type.value} for c in table.schema.columns
        ],
        "primary_key": table.schema.primary_key,
    }
    if table.compression is not None:
        meta["compression"] = [
            {
                "column": c.column,
                "kind": c.kind,
                "bytes_per_row": c.bytes_per_row,
            }
            for c in table.compression.codecs
        ]
    (directory / f"{table.name.lower()}.schema").write_text(json.dumps(meta))
    stats_path = directory / f"{table.name.lower()}.stats"
    if table.stats is not None:
        stats_path.write_text(json.dumps(stats_to_json(table.stats)))
    elif stats_path.exists():
        # re-saving an unanalyzed table must not resurrect stale stats
        stats_path.unlink()
    return data_path


def load_table(database: Database, directory: str | Path, name: str) -> Table:
    """Load a saved table into a database (creating the table)."""
    directory = Path(directory)
    schema_path = directory / f"{name.lower()}.schema"
    data_path = directory / f"{name.lower()}.npz"
    if not schema_path.exists() or not data_path.exists():
        raise EngineError(f"no saved table '{name}' in {directory}")
    meta = json.loads(schema_path.read_text())
    schema = TableSchema(
        name=meta["name"],
        columns=tuple(
            Column(c["name"], ColumnType(c["type"])) for c in meta["columns"]
        ),
        primary_key=meta["primary_key"],
    )
    table = database.create_table_from_schema(schema)
    with np.load(data_path, allow_pickle=False) as bundle:
        columns = {}
        for column in schema.columns:
            arr = bundle[column.name.lower()]
            if column.type is ColumnType.STRING:
                arr = arr.astype(object)
            columns[column.name.lower()] = arr
    if next(iter(columns.values())).size:
        table.insert(columns)
    stats_path = directory / f"{name.lower()}.stats"
    if stats_path.exists():
        table.stats = stats_from_json(json.loads(stats_path.read_text()))
    if meta.get("compression"):
        from repro.engine.pages import ColumnCodec, CompressionPlan

        table.apply_compression(CompressionPlan(codecs=tuple(
            ColumnCodec(
                column=c["column"],
                kind=c["kind"],
                bytes_per_row=c["bytes_per_row"],
            )
            for c in meta["compression"]
        )))
    return table


#: Filename of the persisted Query Store document.
QUERY_STORE_FILE = "querystore.json"


def save_database(database: Database, directory: str | Path) -> list[Path]:
    """Persist every table of a database; returns the written paths.

    System tables (the ``sys_query_store_*`` views) are derived data
    and are skipped; the Query Store itself — runtime stats, plan
    history and forced-plan pins — is written as one
    ``querystore.json`` beside the table files.
    """
    directory = Path(directory)
    paths = [
        save_table(database.table(name), directory)
        for name in database.table_names()
        if not database.is_system_table(name)
    ]
    store = database.query_store
    if store is not None:
        directory.mkdir(parents=True, exist_ok=True)
        store_path = directory / QUERY_STORE_FILE
        store_path.write_text(
            json.dumps(store.to_json(database.plan_forcer))
        )
        paths.append(store_path)
    return paths


def load_database(
    directory: str | Path,
    name: str = "restored",
    pool_pages: int | None = None,
    config=None,
) -> Database:
    """Restore a database from a directory of saved tables.

    With ``config=EngineConfig(query_store=True)`` a saved
    ``querystore.json`` is loaded back: workload history, plan history
    and forced-plan pins all survive the restart (pinned plans are
    re-established structurally on their next execution).
    """
    from repro.engine.config import DEFAULT_ENGINE_CONFIG

    directory = Path(directory)
    if not directory.is_dir():
        raise EngineError(f"{directory} is not a directory")
    if config is None:
        config = DEFAULT_ENGINE_CONFIG
    if pool_pages is not None:
        config = config.replace(pool_pages=pool_pages)
    database = Database(name, config=config)
    for schema_path in sorted(directory.glob("*.schema")):
        load_table(database, directory, schema_path.stem)
    store_path = directory / QUERY_STORE_FILE
    if database.query_store is not None and store_path.exists():
        database.query_store.load_json(
            json.loads(store_path.read_text()), database.plan_forcer
        )
    return database
