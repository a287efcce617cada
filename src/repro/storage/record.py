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
from typing import List, Sequence, Tuple, Union

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


def row_size(row: Sequence[Value]) -> int:
    """Encoded size of ``row`` in bytes."""
    return len(encode_row(row))
