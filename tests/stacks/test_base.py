"""Tests for the shared stack abstractions (trace, sizes, hashing)."""

import dataclasses
import enum
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stacks.base import (
    ExecutionTrace,
    PhaseKind,
    PhaseRecord,
    estimate_bytes,
    stable_hash,
)
from repro.stacks.hadoop import HADOOP_1_0_2
from repro.stacks.spark import SPARK_0_8_1


class TestStackInfo:
    def test_paper_source_sizes(self):
        assert HADOOP_1_0_2.source_bytes == 67 * (1 << 20)
        assert SPARK_0_8_1.source_bytes == 11 * (1 << 20)

    def test_process_models(self):
        assert HADOOP_1_0_2.tasks_share_process is False
        assert SPARK_0_8_1.tasks_share_process is True


class TestExecutionTrace:
    def test_emit_and_query(self):
        trace = ExecutionTrace(HADOOP_1_0_2, "w")
        trace.emit(PhaseKind.MAP, "m", worker=1, records_in=10, bytes_in=100)
        trace.emit(PhaseKind.REDUCE, "r", worker=2, records_in=5, bytes_in=50)
        trace.emit(PhaseKind.MAP, "m2", worker=0, records_in=7, bytes_in=70)
        assert len(trace) == 3
        assert len(trace.by_kind(PhaseKind.MAP)) == 2
        assert trace.total_records_in == 22
        assert trace.total_bytes_in == 220

    def test_details_are_carried(self):
        trace = ExecutionTrace(SPARK_0_8_1, "w")
        trace.emit(
            PhaseKind.STAGE, "s", worker=0, records_in=1, bytes_in=1, compare_ops=42.0
        )
        assert trace.records[0].details == {"compare_ops": 42.0}


class TestEstimateBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, 1),
            (True, 1),
            (7, 8),
            (3.14, 8),
            ("abc", 4),
            (b"abcd", 4),
        ],
    )
    def test_scalars(self, value, expected):
        assert estimate_bytes(value) == expected

    def test_containers_recurse(self):
        assert estimate_bytes((1, 2)) == 2 + 8 + 8
        assert estimate_bytes([1, "ab"]) == 2 + 8 + 3
        assert estimate_bytes({"k": 1}) == 2 + 2 + 8

    def test_dataclasses_recurse(self):
        record = PhaseRecord(
            kind=PhaseKind.MAP,
            name="m",
            worker=0,
            records_in=1,
            bytes_in=1,
            records_out=1,
            bytes_out=1,
        )
        assert estimate_bytes(record) > 0

    @given(
        st.recursive(
            st.one_of(
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
                st.booleans(),
                st.none(),
            ),
            lambda children: st.lists(children, max_size=4)
            | st.tuples(children, children),
            max_leaves=10,
        )
    )
    def test_always_positive_and_deterministic(self, value):
        size = estimate_bytes(value)
        assert size >= 1
        assert estimate_bytes(value) == size


def reference_estimate_bytes(record: object) -> int:
    """The size estimate as a plain ``isinstance`` chain: the oracle the
    shipped function's exact-type fast path must agree with."""
    if record is None:
        return 1
    if isinstance(record, bool):
        return 1
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, (tuple, list)):
        return 2 + sum(reference_estimate_bytes(item) for item in record)
    if isinstance(record, dict):
        return 2 + sum(
            reference_estimate_bytes(k) + reference_estimate_bytes(v)
            for k, v in record.items()
        )
    if hasattr(record, "__dataclass_fields__"):
        return 2 + sum(
            reference_estimate_bytes(getattr(record, name))
            for name in record.__dataclass_fields__
        )
    return 16


_Pair = namedtuple("_Pair", "key value")


class _Level(enum.IntEnum):
    LOW = 1


class _Word(str):
    pass


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    label: str


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.binary(max_size=12).map(bytearray),
)

_SUBCLASS_LEAVES = st.one_of(
    st.builds(_Pair, st.integers(), st.text(max_size=6)),
    st.just(_Level.LOW),
    st.text(max_size=6).map(_Word),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.builds(_Point, st.floats(allow_nan=False), st.text(max_size=6)),
)


class TestEstimateBytesOracle:
    @given(
        st.recursive(
            _LEAVES,
            lambda children: st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=3),
            max_leaves=20,
        )
    )
    def test_matches_reference_on_nested_containers(self, value):
        assert estimate_bytes(value) == reference_estimate_bytes(value)

    @given(
        _SUBCLASS_LEAVES
        | st.lists(_SUBCLASS_LEAVES | _LEAVES, max_size=5).map(tuple)
    )
    def test_matches_reference_on_subclasses(self, value):
        assert estimate_bytes(value) == reference_estimate_bytes(value)

    def test_subclass_sizes(self):
        assert estimate_bytes(np.float64(1.5)) == 8
        assert estimate_bytes(np.int64(3)) == 16  # not an ``int``
        assert estimate_bytes(_Level.LOW) == 8
        assert estimate_bytes(_Word("ab")) == 3
        assert estimate_bytes(_Pair(1, "ab")) == 2 + 8 + 3
        assert estimate_bytes((_Point(1.0, "a"), np.int64(1))) == 2 + 12 + 16


_PREVIOUS_LEAF_BYTES: dict[type, int] = {type(None): 1, bool: 1, int: 8, float: 8}


def previous_estimate_bytes(record: object) -> int:
    """The size estimate before records were sized by cached dataclass
    fields and nested tuples inline: exact tuples, lists, strings and
    leaves by ``type()``, everything else by the ``isinstance`` chain."""
    kind = type(record)
    if kind is tuple or kind is list:
        size = 2
        for item in record:
            item_kind = type(item)
            if item_kind is str:
                size += len(item) + 1
            elif item_kind in _PREVIOUS_LEAF_BYTES:
                size += _PREVIOUS_LEAF_BYTES[item_kind]
            else:
                size += previous_estimate_bytes(item)
        return size
    if kind is str:
        return len(record) + 1
    if kind in _PREVIOUS_LEAF_BYTES:
        return _PREVIOUS_LEAF_BYTES[kind]
    if isinstance(record, (int, float)):
        return 8
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, (tuple, list)):
        return 2 + sum(previous_estimate_bytes(item) for item in record)
    if isinstance(record, dict):
        return 2 + sum(
            previous_estimate_bytes(k) + previous_estimate_bytes(v)
            for k, v in record.items()
        )
    if hasattr(record, "__dataclass_fields__"):
        return 2 + sum(
            previous_estimate_bytes(getattr(record, name))
            for name in record.__dataclass_fields__
        )
    return 16


@dataclasses.dataclass
class _Box:
    content: object
    tags: list


@dataclasses.dataclass(frozen=True)
class _LabeledPoint(_Point):
    weight: int = 1


class _Plain:
    pass


def _dataclass_records(children):
    from repro.datagen import LabeledDocument, SequenceRecord

    return st.one_of(
        st.builds(SequenceRecord, st.binary(max_size=10), st.binary(max_size=10)),
        st.builds(
            LabeledDocument,
            st.text(max_size=6),
            st.lists(st.text(max_size=5), max_size=8).map(tuple),
        ),
        st.builds(_Box, children, st.lists(children, max_size=3)),
        st.builds(_LabeledPoint, st.floats(allow_nan=False), st.text(max_size=4)),
    )


_ANY_LEAF = _LEAVES | _SUBCLASS_LEAVES | st.builds(_Plain)


class TestEstimateBytesAgainstPrevious:
    """The shipped estimate sizes every record as the previous function
    did, across nesting, dataclasses, subclasses and leaves."""

    @given(
        st.recursive(
            _ANY_LEAF,
            lambda children: st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(st.text(max_size=4) | st.integers(), children, max_size=3)
            | _dataclass_records(children),
            max_leaves=25,
        )
    )
    def test_matches_previous_function(self, value):
        assert estimate_bytes(value) == previous_estimate_bytes(value)
        assert estimate_bytes(value) == reference_estimate_bytes(value)

    def test_dataclass_sizes(self):
        from repro.datagen import LabeledDocument, SequenceRecord

        assert estimate_bytes(SequenceRecord(b"abc", b"de")) == 2 + 3 + 2
        assert estimate_bytes(LabeledDocument("x", ("ab", "c"))) == 2 + 2 + (2 + 3 + 2)
        assert estimate_bytes(_LabeledPoint(1.0, "a", 3)) == 2 + 8 + 2 + 8
        assert estimate_bytes(((1, (2, "a")), [None])) == 2 + (2 + 8 + (2 + 8 + 2)) + (2 + 1)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_differs_for_different_values(self):
        assert stable_hash("a") != stable_hash("b")

    def test_known_value_is_stable(self):
        # Pins the CRC so partitioning never silently changes.
        import zlib

        assert stable_hash("key") == zlib.crc32(b"'key'")
