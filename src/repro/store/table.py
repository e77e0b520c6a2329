"""Row-oriented tables with schema validation and an optional unique key."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.exceptions import DuplicateKeyError
from repro.store.schema import Schema

__all__ = ["Table"]


class Table:
    """An in-memory table: an ordered collection of schema-validated rows.

    Rows are plain dicts keyed by column name.  The table enforces the
    schema's unique key (if any) and looks rows up by it through :meth:`get`.

    Parameters
    ----------
    name:
        Table name, used in error messages.
    schema:
        The :class:`~repro.store.schema.Schema` rows must conform to.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._rows: list[dict[str, Any]] = []
        self._key_index: dict[tuple[Any, ...], int] = {}

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._rows)

    def __getitem__(self, position: int) -> dict[str, Any]:
        return self._rows[position]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(name={self.name!r}, rows={len(self._rows)}, columns={self.schema.column_names})"

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return self.schema.column_names

    # -- mutation ---------------------------------------------------------------
    def insert(self, row: Mapping[str, Any]) -> int:
        """Validate and insert ``row``; return its position.

        Raises
        ------
        SchemaError
            If the row does not match the schema.
        DuplicateKeyError
            If the schema declares a key and the row's key already exists.
        """
        normalised = self.schema.validate_row(row)
        key = self.schema.key_of(normalised)
        if key is not None and key in self._key_index:
            raise DuplicateKeyError(
                f"table {self.name!r} already contains a row with key {key!r}"
            )
        position = len(self._rows)
        self._rows.append(normalised)
        if key is not None:
            self._key_index[key] = position
        return position

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert every row of ``rows``; return their positions."""
        return [self.insert(row) for row in rows]

    # -- lookups ----------------------------------------------------------------
    def get(self, key: tuple[Any, ...] | Any) -> dict[str, Any] | None:
        """Return the row with primary key ``key``, or ``None`` if absent."""
        if not isinstance(key, tuple):
            key = (key,)
        position = self._key_index.get(key)
        if position is None:
            return None
        return self._rows[position]

    def contains_key(self, key: tuple[Any, ...] | Any) -> bool:
        """Whether a row with primary key ``key`` exists."""
        return self.get(key) is not None
