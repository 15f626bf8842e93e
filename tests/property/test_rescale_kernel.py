"""The stacked rescale kernel against the per-operation formula.

The engine rescales a whole operation set in one call
(:func:`repro.beagle.kernels.rescale_partials` over a ``(k, C, P, S)``
stack, its maximum taken by :func:`repro.beagle.kernels.pattern_max`).
The oracle below is the formula every rescale site used before, applied
one operation at a time: ``amax(axis=(0, 2))``, ``where(> 0)``, divide,
``log``. The stacked kernel must reproduce it bit for bit — partials and
log factors — including all-zero patterns, subnormals, ±inf and NaN.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beagle import BeagleInstance, Operation, Workspace
from repro.beagle.kernels import pattern_max, rescale_partials

SPECIALS = {
    np.float64: [0.0, -0.0, 5e-324, 2.5e-310, np.inf, -np.inf, np.nan, 1e308],
    np.float32: [0.0, -0.0, 1e-45, 3e-40, np.inf, -np.inf, np.nan, 3e38],
}


def _oracle(partials: np.ndarray) -> np.ndarray:
    """The per-operation rescale: ``(C, P, S)`` in place, ``(P,)`` logs."""
    factors = np.amax(partials, axis=(0, 2))
    safe = np.where(factors > 0.0, factors, 1.0)
    with np.errstate(all="ignore"):
        partials /= safe[None, :, None]
        return np.log(safe)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint8)


@st.composite
def stacks(draw):
    """A ``(k, C, P, S)`` stack with zero patterns and special values."""
    k = draw(st.integers(1, 64))
    C = draw(st.sampled_from([1, 4]))
    S = draw(st.sampled_from([4, 20, 61]))
    P = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lowest = -300 if dtype is np.float64 else -36
    magnitude = 10.0 ** rng.integers(lowest, 1, size=(k, 1, P, 1))
    stack = (rng.random((k, C, P, S)) * magnitude).astype(dtype)
    for _ in range(draw(st.integers(0, 3))):  # all-zero patterns
        stack[rng.integers(k), :, rng.integers(P), :] = 0.0
    specials = SPECIALS[dtype]
    for _ in range(draw(st.integers(0, 6))):
        index = tuple(int(rng.integers(n)) for n in stack.shape)
        stack[index] = specials[int(rng.integers(len(specials)))]
    return stack


class TestStackedRescale:
    @given(stacks(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_operation_formula_bit_for_bit(self, stack, arena):
        expected = stack.copy()
        expected_logs = np.stack([_oracle(rows) for rows in expected])
        k, C, P, S = stack.shape
        workspace = Workspace(stack.dtype, C, P, S) if arena else None
        with np.errstate(all="ignore"):
            logs = rescale_partials(stack, workspace)
        assert logs.shape == (k, P) and logs.dtype == stack.dtype
        assert np.array_equal(_bits(logs), _bits(expected_logs))
        assert np.array_equal(_bits(stack), _bits(expected))

    @given(stacks())
    @settings(max_examples=60, deadline=None)
    def test_pattern_max_equals_amax(self, stack):
        k, C, P, S = stack.shape
        out = np.empty((k, P), dtype=stack.dtype)
        slab = np.empty((k, P, S), dtype=stack.dtype)
        got = pattern_max(stack, out, slab)
        assert np.array_equal(got, np.amax(stack, axis=(1, 3)), equal_nan=True)

    @given(stacks())
    @settings(max_examples=30, deadline=None)
    def test_single_buffer_form_matches(self, stack):
        rows = stack[0].copy()
        expected = rows.copy()
        expected_logs = _oracle(expected)
        with np.errstate(all="ignore"):
            logs = rescale_partials(rows)
        assert logs.shape == (stack.shape[2],)
        assert np.array_equal(_bits(logs), _bits(expected_logs))
        assert np.array_equal(_bits(rows), _bits(expected))


def _set_instance(k, C, P, S, dtype, rng, scaled):
    """``k`` independent operations over explicit tip partials."""
    instance = BeagleInstance(
        tip_count=2 * k,
        partials_buffer_count=k,
        matrix_count=2 * k,
        pattern_count=P,
        state_count=S,
        category_count=C,
        scale_buffer_count=k,
        dtype=dtype,
    )
    for tip in range(2 * k):
        partials = rng.random((P, S))
        partials[rng.random(P) < 0.2] = 0.0  # all-zero patterns
        instance.set_tip_partials(tip, partials)
    for index in range(2 * k):
        instance.set_transition_matrix(index, rng.random((C, S, S)))
    ops = [
        Operation(2 * k + i, 2 * i, 2 * i, 2 * i + 1, 2 * i + 1, i if s else -1)
        for i, s in enumerate(scaled)
    ]
    return instance, ops


class TestPartiallyScaledSets:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.sampled_from([1, 4]),
        st.sampled_from([4, 20]),
        st.sampled_from([np.float64, np.float32]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_only_scaled_rows_are_rescaled(self, scaled, C, S, dtype, seed):
        k, P = len(scaled), 8
        made = [
            _set_instance(k, C, P, S, dtype, np.random.default_rng(seed), flags)
            for flags in (scaled, [False] * k)
        ]
        (instance, ops), (plain, plain_ops) = made
        instance.update_partials_set(ops)
        plain.update_partials_set(plain_ops)
        for i, op in enumerate(ops):
            got = instance.get_partials(op.destination)
            expected = plain.get_partials(op.destination).copy()
            if op.destination_scale >= 0:
                logs = _oracle(expected)
                bank = instance.scale.read(op.destination_scale)
                assert np.array_equal(bank, logs.astype(np.float64))
            assert np.array_equal(_bits(got), _bits(expected)), i
        for i, flag in enumerate(scaled):
            if not flag:  # untouched scale buffers stay zero
                assert not instance.scale.read(i).any()
