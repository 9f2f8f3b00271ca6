"""Tests for the record codec, including hypothesis round-trip properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.core.values import NULL, REMOVED, SUPPRESSED
from repro.storage.serialization import (
    decode_record,
    decode_value,
    encode_record,
    encode_value,
)


class TestEncodeDecodeValue:
    @pytest.mark.parametrize("value", [
        0, 1, -1, 2**40, -(2**40), 3.14, -2.5, 0.0, True, False,
        "", "hello", "héllo wörld", "a" * 1000, b"", b"\x00\xff", NULL,
        SUPPRESSED, REMOVED,
    ])
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        decoded, offset = decode_value(encoded)
        assert offset == len(encoded)
        if isinstance(value, bytes):
            assert decoded == value
        else:
            assert decoded is value or decoded == value

    def test_none_becomes_null(self):
        decoded, _ = decode_value(encode_value(None))
        assert decoded is NULL

    def test_bool_distinct_from_int(self):
        assert decode_value(encode_value(True))[0] is True
        assert decode_value(encode_value(1))[0] == 1
        assert decode_value(encode_value(1))[0] is not True

    def test_unsupported_type_rejected(self):
        with pytest.raises(StorageError):
            encode_value(object())

    def test_truncated_int_rejected(self):
        data = encode_value(12345)
        with pytest.raises(StorageError):
            decode_value(data[:-2])

    def test_truncated_string_rejected(self):
        data = encode_value("hello world")
        with pytest.raises(StorageError):
            decode_value(data[:-3])

    def test_unknown_tag_rejected(self):
        with pytest.raises(StorageError):
            decode_value(bytes([99]))

    def test_empty_buffer_rejected(self):
        with pytest.raises(StorageError):
            decode_value(b"")


class TestEncodeDecodeRecord:
    def test_roundtrip_mixed_record(self):
        record = (1, "alice", 2500.5, True, NULL, SUPPRESSED, b"blob")
        assert decode_record(encode_record(record)) == record

    def test_empty_record(self):
        assert decode_record(encode_record(())) == ()

    def test_trailing_bytes_rejected(self):
        data = encode_record((1, 2)) + b"junk"
        with pytest.raises(StorageError):
            decode_record(data)

    def test_missing_count_rejected(self):
        with pytest.raises(StorageError):
            decode_record(b"\x01")

    def test_record_is_binary_stable(self):
        assert encode_record((1, "a")) == encode_record((1, "a"))


simple_values = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=200),
    st.booleans(),
    st.binary(max_size=200),
    st.just(NULL),
    st.just(SUPPRESSED),
    st.just(REMOVED),
)


class TestSerializationProperties:
    @given(st.lists(simple_values, max_size=20))
    def test_record_roundtrip(self, values):
        record = tuple(values)
        decoded = decode_record(encode_record(record))
        assert len(decoded) == len(record)
        for original, restored in zip(record, decoded):
            if isinstance(original, float):
                assert restored == pytest.approx(original)
            else:
                assert restored == original

    @given(simple_values)
    def test_value_roundtrip_consumes_everything(self, value):
        encoded = encode_value(value)
        _decoded, offset = decode_value(encoded)
        assert offset == len(encoded)
