"""An independent result oracle: stdlib ``sqlite3`` over scanned rows.

The engine under test answers a query through its own planner and
executor; the oracle copies the same engine's rows out through the OLTP
row path (``session().scan``), loads them into an in-memory SQLite
database and runs the same SQL there.  NULLs travel as Python ``None``
both ways, so a NULL-handling defect in the engine shows up as a
mismatch instead of being normalized away.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, Sequence

_SQLITE_TYPES = {"INT64": "INTEGER", "FLOAT64": "REAL", "STRING": "TEXT"}


def scan_rows(engine, table: str) -> list[tuple]:
    """Every row of ``table`` visible to a fresh OLTP snapshot."""
    session = engine.session()
    try:
        return list(session.scan(table))
    finally:
        session.abort()


class SqliteOracle:
    """An in-memory SQLite copy of some of an engine's tables."""

    def __init__(self, schemas: Iterable, rows_of) -> None:
        self.db = sqlite3.connect(":memory:")
        for schema in schemas:
            cols = ", ".join(
                f"{c.name} {_SQLITE_TYPES.get(c.dtype.name, 'BLOB')}"
                for c in schema.columns
            )
            self.db.execute(f"CREATE TABLE {schema.table_name} ({cols})")
            marks = ", ".join("?" for _ in schema.columns)
            self.db.executemany(
                f"INSERT INTO {schema.table_name} VALUES ({marks})",
                [tuple(_plain(v) for v in row) for row in rows_of(schema.table_name)],
            )

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        return [tuple(r) for r in self.db.execute(sql, tuple(params)).fetchall()]

    def close(self) -> None:
        self.db.close()


def _plain(value: Any) -> Any:
    """NumPy scalars to Python scalars (sqlite3 binds only the latter)."""
    item = getattr(value, "item", None)
    return item() if item is not None else value


def _cell_equal(a: Any, b: Any) -> bool:
    a, b = _plain(a), _plain(b)
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def _sort_key(row: tuple) -> tuple:
    return tuple((0, 0) if v is None else (1, _plain(v)) for v in row)


def rows_equal(got: list[tuple], want: list[tuple], ordered: bool) -> bool:
    """Equal as lists when the SQL orders its output, else as multisets;
    numbers compare with a tolerance for summation order."""
    if len(got) != len(want):
        return False
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    return all(
        len(g) == len(w) and all(_cell_equal(x, y) for x, y in zip(g, w))
        for g, w in zip(got, want)
    )


def compare(label: str, sql: str, got: list[tuple], want: list[tuple]) -> str | None:
    """None when equal, else a one-line failure description."""
    if rows_equal(got, want, ordered="ORDER BY" in sql.upper()):
        return None
    return (
        f"{label}: engine returned {len(got)} rows, sqlite3 {len(want)}; "
        f"first engine rows {got[:2]!r}, first sqlite3 rows {want[:2]!r}"
    )
