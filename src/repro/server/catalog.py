"""Table catalog: schemas, primary keys, row validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError
from ..sql.ast import ColumnDef, Literal
from ..storage.record import Row, row_decoder


@dataclass
class TableSchema:
    """Schema of one user table.

    Rows are stored keyed by an integer clustering key: the declared INT
    PRIMARY KEY if there is one, else a hidden auto-increment row id (like
    InnoDB's ``DB_ROW_ID``).
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Optional[str]
    _next_hidden_rowid: int = 1
    #: Column name -> position, built once so lookups are O(1).
    _positions: Dict[str, int] = field(init=False, repr=False, compare=False)
    #: Stored payload -> row; the same result as ``decode_row(payload)[0]``,
    #: specialised to this table's column types once.
    decode: Callable[[bytes], Row] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._positions = {c.name: idx for idx, c in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        self.decode = row_decoder([c.type for c in self.columns])
        if self.primary_key is not None:
            pk_col = self.column(self.primary_key)
            if pk_col.type != "INT":
                raise CatalogError(
                    f"primary key {self.primary_key!r} must be INT, "
                    f"is {pk_col.type}"
                )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._positions

    def validate_value(self, column: ColumnDef, value: Literal) -> None:
        """Type-check one value against its column definition."""
        if value is None:
            if column.primary_key:
                raise CatalogError(
                    f"primary key {column.name!r} cannot be NULL"
                )
            return
        expected = {"INT": int, "TEXT": str, "BLOB": bytes}[column.type]
        if not isinstance(value, expected):
            raise CatalogError(
                f"column {self.name}.{column.name} expects {column.type}, "
                f"got {type(value).__name__}"
            )

    def build_row(
        self, insert_columns: Sequence[str], values: Sequence[Literal]
    ) -> Tuple[Literal, ...]:
        """Assemble a full row tuple from an INSERT's column/value lists."""
        if len(insert_columns) != len(values):
            raise CatalogError(
                f"{len(insert_columns)} columns but {len(values)} values"
            )
        provided = dict(zip(insert_columns, values))
        unknown = set(provided) - set(self.column_names)
        if unknown:
            raise CatalogError(
                f"unknown column(s) {sorted(unknown)} in INSERT into {self.name!r}"
            )
        row = []
        for col in self.columns:
            value = provided.get(col.name)
            self.validate_value(col, value)
            row.append(value)
        return tuple(row)

    def clustering_key(self, row: Sequence[Literal]) -> int:
        """The integer key a row is stored under (PK or hidden rowid)."""
        if self.primary_key is not None:
            value = row[self.column_index(self.primary_key)]
            if not isinstance(value, int):
                raise CatalogError(
                    f"primary key value for {self.name!r} must be an int"
                )
            return value
        rowid = self._next_hidden_rowid
        self._next_hidden_rowid += 1
        return rowid


class Catalog:
    """All user-table schemas known to the server."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableSchema] = {}

    def create_table(
        self, name: str, columns: Sequence[ColumnDef], primary_key: Optional[str]
    ) -> TableSchema:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        schema = TableSchema(
            name=name, columns=tuple(columns), primary_key=primary_key
        )
        self._tables[name] = schema
        return schema

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)
