"""Tests for the stream ring buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.streaming.buffer import StreamBuffer


class TestStreamBuffer:
    def test_append_and_view_before_wrap(self):
        buf = StreamBuffer(8)
        for value in (1.0, 2.0, 3.0):
            buf.append(value)
        assert buf.total == 3
        assert buf.size == 3
        assert buf.start_index == 0
        np.testing.assert_array_equal(buf.view(), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(buf.view(2), [2.0, 3.0])

    def test_view_matches_reference_after_many_wraps(self, rng):
        capacity = 13
        buf = StreamBuffer(capacity)
        history = []
        for value in rng.normal(size=200):
            buf.append(value)
            history.append(float(value))
            reference = np.array(history[-capacity:])
            np.testing.assert_array_equal(buf.view(), reference)
            short = min(5, len(history))
            np.testing.assert_array_equal(buf.view(short), reference[-short:])

    def test_view_is_contiguous_zero_copy(self):
        buf = StreamBuffer(4)
        for value in range(11):
            buf.append(float(value))
        window = buf.view(4)
        assert window.flags["C_CONTIGUOUS"]
        assert window.base is not None  # a view, not a copy
        np.testing.assert_array_equal(window, [7.0, 8.0, 9.0, 10.0])

    def test_append_returns_absolute_index(self):
        buf = StreamBuffer(3)
        assert [buf.append(v) for v in (5.0, 6.0, 7.0, 8.0)] == [0, 1, 2, 3]

    def test_extend_matches_per_sample_appends(self, rng):
        values = rng.normal(size=57)
        one = StreamBuffer(10)
        two = StreamBuffer(10)
        for value in values:
            one.append(value)
        assert two.extend(values) == 56
        np.testing.assert_array_equal(one.view(), two.view())
        assert one.total == two.total

    def test_extend_chunk_larger_than_capacity(self, rng):
        values = rng.normal(size=40)
        buf = StreamBuffer(8)
        buf.extend(values)
        assert buf.total == 40
        np.testing.assert_array_equal(buf.view(), values[-8:])

    def test_absolute_getitem(self):
        buf = StreamBuffer(4)
        buf.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert buf[5] == 6.0
        assert buf[2] == 3.0
        with pytest.raises(ValidationError):
            buf[1]  # forgotten
        with pytest.raises(ValidationError):
            buf[6]  # not yet appended

    def test_window_returns_owned_copy(self):
        buf = StreamBuffer(4)
        buf.extend([1.0, 2.0, 3.0, 4.0])
        window = buf.window(2)
        buf.append(99.0)
        np.testing.assert_array_equal(window, [3.0, 4.0])

    def test_oversized_view_rejected(self):
        buf = StreamBuffer(4)
        buf.append(1.0)
        with pytest.raises(ValidationError):
            buf.view(2)

    def test_non_finite_chunk_rejected(self):
        buf = StreamBuffer(4)
        with pytest.raises(ValidationError):
            buf.extend([1.0, np.nan])

    def test_empty_extend_is_noop(self):
        buf = StreamBuffer(4)
        buf.append(1.0)
        assert buf.extend([]) == 0
        assert buf.total == 1
