"""Unit tests for the streams mechanism of the launch-pricing model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu import GP100, WorkloadDims, price_launches, time_set_sizes

DIMS = WorkloadDims(patterns=512, states=4)


def stream_round(k, n_streams):
    """One set of ``k`` operations issued through ``n_streams`` streams."""
    return price_launches(GP100, [[(k, DIMS)]], n_streams).launches[0]


def streams_timing(sizes, n_streams):
    """One stream round per set size."""
    return price_launches(GP100, [[(k, DIMS)] for k in sizes], n_streams)


class TestStreamsSetTime:
    def test_single_op_close_to_launch(self):
        s = stream_round(1, 4)
        m = time_set_sizes(GP100, DIMS, [1]).launches[0]
        # One op: stream and multi-op costs are of the same order.
        assert 0.5 < s.seconds / m.seconds < 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            stream_round(0, 4)
        with pytest.raises(ValueError):
            stream_round(4, -1)

    @given(st.integers(1, 100), st.integers(1, 16))
    def test_monotone_in_ops(self, k, streams):
        a = stream_round(k, streams).seconds
        b = stream_round(k + 1, streams).seconds
        assert b >= a - 1e-15

    @given(st.integers(2, 64), st.integers(1, 8))
    def test_more_streams_never_slower(self, k, streams):
        fewer = stream_round(k, streams).seconds
        more = stream_round(k, streams * 2).seconds
        assert more <= fewer + 1e-15

    def test_flops_match(self):
        s = stream_round(8, 4)
        assert s.flops == 8 * DIMS.flops_per_operation


class TestStreamsVsMultiOp:
    """The [2] finding the paper cites: the multi-operation kernel beats
    streams for CUDA-style cost structures."""

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=40))
    def test_multiop_wins_or_ties(self, sizes):
        multi = time_set_sizes(GP100, DIMS, sizes)
        stream = streams_timing(sizes, 4)
        assert multi.seconds <= stream.seconds + 1e-15

    def test_streams_still_beat_serial(self):
        # Even the weaker mechanism beats one-synchronous-launch-per-op
        # for a balanced schedule.
        sizes = [32, 16, 8, 4, 2, 1]
        serial = time_set_sizes(GP100, DIMS, [1] * 63)
        stream = streams_timing(sizes, 8)
        assert stream.seconds < serial.seconds

    def test_multiop_advantage_grows_with_set_size(self):
        # Streams are host-issue-bound: the bigger the set, the more the
        # serial issue loop costs relative to one multi-op launch.
        small_gap = (
            streams_timing([2] * 10, 4).seconds
            / time_set_sizes(GP100, DIMS, [2] * 10).seconds
        )
        large_gap = (
            streams_timing([64] * 10, 4).seconds
            / time_set_sizes(GP100, DIMS, [64] * 10).seconds
        )
        assert large_gap > small_gap >= 1.0
