"""Row serialization.

Rows are serialized to a tagged, length-prefixed byte format before they
touch a page or a log. This matters for fidelity: InnoDB's redo/undo logs
"record changes to the individual database records at the byte level"
(paper §3), and the forensic reconstruction in
:mod:`repro.forensics.redo_undo` parses exactly these bytes.

Format per value: 1 tag byte (``i`` int / ``s`` str / ``b`` bytes /
``n`` null) followed by a type-specific body. Integers are 8-byte
little-endian two's complement; strings and blobs are 4-byte length-prefixed.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import RecordError
from ..util.serialization import encode_uint

Value = Union[int, str, bytes, None]
Row = Tuple[Value, ...]

_TAG_INT = ord("i")
_TAG_STR = ord("s")
_TAG_BYTES = ord("b")
_TAG_NULL = ord("n")

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1

_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from

#: Catalog column type -> the tag every non-NULL stored value carries.
_COLUMN_TAGS = {"INT": _TAG_INT, "TEXT": _TAG_STR, "BLOB": _TAG_BYTES}


def encode_value(value: Value) -> bytes:
    """Encode one column value with its type tag."""
    if value is None:
        return bytes([_TAG_NULL])
    if isinstance(value, bool):
        raise RecordError("boolean values are not part of the storage format")
    if isinstance(value, int):
        if not _INT_MIN <= value <= _INT_MAX:
            raise RecordError(f"integer {value} outside 64-bit signed range")
        return bytes([_TAG_INT]) + value.to_bytes(8, "little", signed=True)
    if isinstance(value, str):
        body = value.encode("utf-8")
        return bytes([_TAG_STR]) + encode_uint(len(body)) + body
    if isinstance(value, (bytes, bytearray, memoryview)):
        body = bytes(value)
        return bytes([_TAG_BYTES]) + encode_uint(len(body)) + body
    raise RecordError(f"unsupported value type {type(value).__name__}")


def encode_row(row: Sequence[Value]) -> bytes:
    """Encode a full row: 4-byte column count then tagged values."""
    parts = [encode_uint(len(row))]
    parts.extend(encode_value(value) for value in row)
    return b"".join(parts)


def decode_row(data: bytes, offset: int = 0) -> Tuple[Row, int]:
    """Decode a row at ``offset``; return ``(row, new_offset)``.

    One pass over the bytes with no per-value calls, because scans decode
    thousands of rows per statement. Malformed input (truncation, an
    unknown tag, invalid UTF-8) raises :class:`RecordError` naming the
    offset where decoding stopped.
    """
    size = len(data)
    end = offset + 4
    if end > size:
        raise RecordError(
            f"truncated integer at offset {offset} (need 4 bytes, "
            f"have {size - offset})"
        )
    (count,) = _unpack_u32(data, offset)
    offset = end
    values: List[Value] = []
    append = values.append
    for _ in range(count):
        if offset >= size:
            raise RecordError(f"truncated value at offset {offset}")
        tag = data[offset]
        offset += 1
        if tag == _TAG_INT:
            end = offset + 8
            if end > size:
                raise RecordError(f"truncated integer at offset {offset}")
            append(_unpack_i64(data, offset)[0])
        elif tag == _TAG_STR or tag == _TAG_BYTES:
            end = offset + 4
            if end > size:
                raise RecordError(
                    f"truncated integer at offset {offset} (need 4 bytes, "
                    f"have {size - offset})"
                )
            offset = end
            end = offset + _unpack_u32(data, offset - 4)[0]
            if end > size:
                raise RecordError(f"truncated string/blob at offset {offset}")
            body = data[offset:end]
            if tag == _TAG_STR:
                try:
                    append(body.decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise RecordError(f"invalid UTF-8 in record: {exc}") from exc
            else:
                append(body)
        elif tag == _TAG_NULL:
            append(None)
            continue
        else:
            raise RecordError(f"unknown value tag {tag:#x} at offset {offset - 1}")
        offset = end
    return tuple(values), offset


def row_decoder(column_types: Sequence[str]) -> Callable[[bytes], Row]:
    """A decoder for rows of one schema: ``decode(data) == decode_row(data)[0]``.

    Catalog validation stores each value under its column's tag or as NULL,
    so scanned rows almost always have the schema's count and tags. Such a
    row decodes with one ``struct.unpack_from`` per run of columns ending
    at a TEXT/BLOB column (an INT contributes tag + ``q``, a TEXT/BLOB tag
    + length), plus one slice and, for TEXT, one UTF-8 decode per
    variable-length column. Anything else (a NULL, another tag or count,
    truncation, invalid UTF-8) is handed to :func:`decode_row`, so the row
    returned or the :class:`RecordError` raised is always exactly
    ``decode_row``'s.
    """
    # (format, tags, tag of the TEXT/BLOB column that ends the run or None)
    runs: List[Tuple[str, Tuple[int, ...], Optional[int]]] = []
    fmt, tags = "<I", []
    for column_type in column_types:
        try:
            tag = _COLUMN_TAGS[column_type]
        except KeyError:
            raise RecordError(f"unsupported column type {column_type!r}") from None
        fmt += "Bq" if tag == _TAG_INT else "BI"
        tags.append(tag)
        if tag != _TAG_INT:
            runs.append((fmt, tuple(tags), tag))
            fmt, tags = "<", []
    if tags or not runs:
        runs.append((fmt, tuple(tags), None))
    count = len(column_types)
    head_fmt, head_tags, head_var = runs[0]
    head = struct.Struct(head_fmt)
    head_unpack, head_size = head.unpack_from, head.size
    rest = [
        (struct.Struct(fmt).unpack_from, struct.calcsize(fmt), tags, var_tag)
        for fmt, tags, var_tag in runs[1:]
    ]

    def decode(data: bytes) -> Row:
        size = len(data)
        if head_size > size:
            return decode_row(data)[0]
        fields = head_unpack(data)
        if fields[0] != count or fields[1::2] != head_tags:
            return decode_row(data)[0]
        # Each column left two fields: its tag, then its value or length.
        if head_var is None:
            return fields[2::2]
        end = head_size + fields[-1]
        if end > size:
            return decode_row(data)[0]
        body = data[head_size:end]
        if head_var == _TAG_STR:
            try:
                body = body.decode("utf-8")
            except UnicodeDecodeError:
                return decode_row(data)[0]
        row = fields[2:-1:2] + (body,)
        if not rest:
            return row
        # Later runs: schemas with a TEXT/BLOB column before other columns.
        for unpack, width, run_tags, var_tag in rest:
            offset = end + width
            if offset > size:
                return decode_row(data)[0]
            fields = unpack(data, end)
            if fields[0::2] != run_tags:
                return decode_row(data)[0]
            if var_tag is None:
                return row + fields[1::2]
            end = offset + fields[-1]
            if end > size:
                return decode_row(data)[0]
            body = data[offset:end]
            if var_tag == _TAG_STR:
                try:
                    body = body.decode("utf-8")
                except UnicodeDecodeError:
                    return decode_row(data)[0]
            row += fields[1:-1:2] + (body,)
        return row

    return decode


def row_size(row: Sequence[Value]) -> int:
    """Encoded size of ``row`` in bytes."""
    return len(encode_row(row))
