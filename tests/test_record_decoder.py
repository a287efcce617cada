"""The single-pass row decoder against the per-value decoder it replaced.

``reference_decode_row`` below is the earlier implementation, kept only
here: a length read through ``read_uint``/``decode_uint`` and one
``decode_value`` call per column. The production ``decode_row`` must agree
with it on every input: the same ``(row, offset)`` for well-formed bytes,
and a ``RecordError`` with the same message for malformed ones. The
second half holds the schema-shaped ``row_decoder`` to ``decode_row`` the
same way.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordError
from repro.storage import decode_row, encode_row
from repro.storage.record import row_decoder

_TAG_INT, _TAG_STR, _TAG_BYTES, _TAG_NULL = (ord(c) for c in "isbn")


def _reference_decode_uint(data, width=4):
    if len(data) != width:
        raise RecordError(f"expected {width} bytes, got {len(data)}")
    return struct.unpack("<I", data)[0]


def _reference_read_uint(data, offset, width=4):
    end = offset + width
    if end > len(data):
        raise RecordError(
            f"truncated integer at offset {offset} (need {width} bytes, "
            f"have {len(data) - offset})"
        )
    return _reference_decode_uint(data[offset:end], width), end


def _reference_decode_value(data, offset):
    if offset >= len(data):
        raise RecordError(f"truncated value at offset {offset}")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_INT:
        end = offset + 8
        if end > len(data):
            raise RecordError(f"truncated integer at offset {offset}")
        return int.from_bytes(data[offset:end], "little", signed=True), end
    if tag in (_TAG_STR, _TAG_BYTES):
        length, offset = _reference_read_uint(data, offset)
        end = offset + length
        if end > len(data):
            raise RecordError(f"truncated string/blob at offset {offset}")
        body = data[offset:end]
        if tag == _TAG_STR:
            try:
                return body.decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise RecordError(f"invalid UTF-8 in record: {exc}") from exc
        return body, end
    raise RecordError(f"unknown value tag {tag:#x} at offset {offset - 1}")


def reference_decode_row(data, offset=0):
    count, offset = _reference_read_uint(data, offset)
    values = []
    for _ in range(count):
        value, offset = _reference_decode_value(data, offset)
        values.append(value)
    return tuple(values), offset


def outcome(decoder, data, offset):
    """``("ok", result)`` or ``("error", message)`` for one decode."""
    try:
        return "ok", decoder(data, offset)
    except RecordError as exc:
        return "error", str(exc)


def assert_same(data, offset=0):
    expected = outcome(reference_decode_row, data, offset)
    assert outcome(decode_row, data, offset) == expected
    return expected


value_strategy = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(max_size=40),
    st.binary(max_size=40),
)
rows = st.lists(value_strategy, max_size=8).map(tuple)


@settings(max_examples=300)
@given(rows, st.binary(max_size=16), st.binary(max_size=16))
def test_same_row_and_offset_at_random_offsets(row, prefix, suffix):
    data = prefix + encode_row(row) + suffix
    kind, result = assert_same(data, len(prefix))
    assert kind == "ok"
    assert result == (row, len(data) - len(suffix))


@settings(max_examples=150)
@given(rows, st.binary(max_size=8))
def test_every_truncated_prefix_raises_the_same_error(row, prefix):
    data = prefix + encode_row(row)
    for cut in range(len(prefix), len(data)):
        kind, _ = assert_same(data[:cut], len(prefix))
        assert kind == "error"


@settings(max_examples=200)
@given(rows, st.data())
def test_unknown_tags_raise_the_same_error(row, draw):
    full = row + (None,)
    column = draw.draw(st.integers(0, len(full) - 1))
    data = bytearray(encode_row(full))
    offset = 4
    for _ in range(column):
        offset = _reference_decode_value(bytes(data), offset)[1]
    data[offset] = draw.draw(st.integers(0, 255))
    assert_same(bytes(data))


@settings(max_examples=150)
@given(st.binary(max_size=24), st.integers(0, 24), st.integers(0, 3))
def test_invalid_utf8_raises_the_same_error(text, cut, position):
    body = text[:cut] + b"\xff" + text[cut:]  # 0xff never occurs in UTF-8
    row = (7, None, "ok")[:position]
    data = encode_row(row + (b"",))
    # Turn the trailing empty blob into a TEXT value whose body is ``body``.
    data = data[:-5] + bytes([_TAG_STR]) + struct.pack("<I", len(body)) + body
    kind, message = assert_same(data)
    assert kind == "error" and message.startswith("invalid UTF-8 in record: ")


@settings(max_examples=300)
@given(st.binary(max_size=48), st.integers(0, 52))
def test_arbitrary_bytes_agree(data, offset):
    assert_same(data, offset)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\x01\x00", "truncated integer at offset 0 (need 4 bytes, have 2)"),
        (b"\x01\x00\x00\x00", "truncated value at offset 4"),
        (b"\x01\x00\x00\x00i\x01", "truncated integer at offset 5"),
        (
            b"\x01\x00\x00\x00s\x05\x00",
            "truncated integer at offset 5 (need 4 bytes, have 2)",
        ),
        (
            b"\x01\x00\x00\x00b\x05\x00\x00\x00ab",
            "truncated string/blob at offset 9",
        ),
        (b"\x01\x00\x00\x00z", "unknown value tag 0x7a at offset 4"),
        (
            b"\x01\x00\x00\x00s\x01\x00\x00\x00\xff",
            "invalid UTF-8 in record: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte",
        ),
    ],
)
def test_pinned_messages(data, message):
    with pytest.raises(RecordError) as excinfo:
        decode_row(data)
    assert str(excinfo.value) == message
    assert outcome(reference_decode_row, data, 0) == ("error", message)


# -- the schema-shaped decoder against decode_row ------------------------------
#
# ``row_decoder(types)`` must return ``decode_row(data)[0]`` for every input
# (including rows that do not match ``types``) and raise a ``RecordError``
# with the same message whenever ``decode_row`` does.

COLUMN_TYPES = ("INT", "TEXT", "BLOB")
_TYPED_VALUES = {
    "INT": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "TEXT": st.text(max_size=30),
    "BLOB": st.binary(max_size=30),
}
column_type_lists = st.lists(st.sampled_from(COLUMN_TYPES), max_size=5)


def schema_rows(types, nulls=True):
    """Rows that validate against ``types``: each value typed or NULL."""
    return st.tuples(
        *(
            st.one_of(st.none(), _TYPED_VALUES[t]) if nulls else _TYPED_VALUES[t]
            for t in types
        )
    )


def decoded(decoder, data):
    """``("ok", row)`` or ``("error", message)`` for one schema decode."""
    try:
        return "ok", decoder(data)
    except RecordError as exc:
        return "error", str(exc)


def assert_decoder_agrees(types, data):
    expected = outcome(lambda d, _: decode_row(d)[0], data, 0)
    assert decoded(row_decoder(types), data) == expected
    return expected


@pytest.mark.parametrize(
    "types, row",
    [
        ((), ()),
        (("INT",), (-1,)),
        (("INT", "INT", "TEXT"), (1, 2, "three")),
        (("TEXT", "INT"), ("a", 2)),
        (("BLOB", "INT", "TEXT", "INT", "INT"), (b"\x00", 5, "é", -7, 2**63 - 1)),
        (("TEXT", "BLOB", "TEXT"), ("", b"", "")),
        (("INT", "BLOB", "INT"), (3, None, 4)),
    ],
)
def test_known_shapes_decode_exactly(types, row):
    data = encode_row(row)
    assert assert_decoder_agrees(types, data) == ("ok", row)


@settings(max_examples=300)
@given(column_type_lists.flatmap(lambda ts: st.tuples(st.just(ts), schema_rows(ts))))
def test_schema_rows_with_nulls_match_decode_row(types_and_row):
    types, row = types_and_row
    data = encode_row(row)
    assert row_decoder(types)(data) == decode_row(data)[0] == row


@settings(max_examples=200)
@given(
    column_type_lists.flatmap(
        lambda ts: st.tuples(st.just(ts), schema_rows(ts, nulls=False))
    ),
    st.binary(max_size=8),
)
def test_trailing_bytes_are_ignored_like_decode_row(types_and_row, suffix):
    types, row = types_and_row
    data = encode_row(row) + suffix
    assert assert_decoder_agrees(types, data) == ("ok", row)


@settings(max_examples=150)
@given(column_type_lists.flatmap(lambda ts: st.tuples(st.just(ts), schema_rows(ts))))
def test_truncated_prefixes_raise_decode_rows_error(types_and_row):
    types, row = types_and_row
    data = encode_row(row)
    for cut in range(len(data)):
        kind, _ = assert_decoder_agrees(types, data[:cut])
        assert kind == "error"


@settings(max_examples=200)
@given(column_type_lists, rows)
def test_wrong_column_counts_and_types_match_decode_row(types, row):
    # ``row`` is an arbitrary row: other counts, tags and NULLs than ``types``.
    assert_decoder_agrees(types, encode_row(row))


@settings(max_examples=200)
@given(
    column_type_lists.filter(bool).flatmap(
        lambda ts: st.tuples(st.just(ts), schema_rows(ts, nulls=False))
    ),
    st.data(),
)
def test_replaced_tags_match_decode_row(types_and_row, draw):
    types, row = types_and_row
    data = bytearray(encode_row(row))
    column = draw.draw(st.integers(0, len(types) - 1))
    offset = 4
    for _ in range(column):
        offset = _reference_decode_value(bytes(data), offset)[1]
    data[offset] = draw.draw(st.integers(0, 255))
    assert_decoder_agrees(types, bytes(data))


@settings(max_examples=150)
@given(
    st.lists(st.sampled_from(COLUMN_TYPES), max_size=4),
    st.lists(st.sampled_from(COLUMN_TYPES), max_size=4),
    st.binary(max_size=16),
    st.integers(0, 16),
)
def test_invalid_utf8_raises_decode_rows_error(before, after, text, cut):
    types = tuple(before) + ("TEXT",) + tuple(after)
    body = text[:cut] + b"\xff" + text[cut:]  # 0xff never occurs in UTF-8
    filler = {"INT": 0, "TEXT": "t", "BLOB": b"b"}
    head = encode_row(tuple(filler[t] for t in before) + ("",))[:-5]
    tail = encode_row(tuple(filler[t] for t in after))[4:]
    count = struct.pack("<I", len(types))
    data = count + head[4:] + bytes([_TAG_STR]) + struct.pack("<I", len(body))
    data += body + tail
    kind, message = assert_decoder_agrees(types, data)
    assert kind == "error" and message.startswith("invalid UTF-8 in record: ")


@settings(max_examples=300)
@given(column_type_lists, st.binary(max_size=64))
def test_arbitrary_bytes_match_decode_row(types, data):
    assert_decoder_agrees(types, data)


def test_unknown_column_type_is_rejected():
    with pytest.raises(RecordError, match="unsupported column type 'FLOAT'"):
        row_decoder(["INT", "FLOAT"])
