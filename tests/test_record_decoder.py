"""The single-pass row decoder against the per-value decoder it replaced.

``reference_decode_row`` below is the earlier implementation, kept only
here: a length read through ``read_uint``/``decode_uint`` and one
``decode_value`` call per column. The production ``decode_row`` must agree
with it on every input: the same ``(row, offset)`` for well-formed bytes,
and a ``RecordError`` with the same message for malformed ones.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordError
from repro.storage import decode_row, encode_row

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
