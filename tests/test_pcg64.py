"""``repro.pcg64.skip_outputs`` leaves a PCG64 generator where the
draws it skips would: every later draw, and the live state, agree."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pcg64 import skip_outputs


def _live_state(rng):
    """What of a PCG64 generator's state later draws read: the 128-bit
    state, and a buffered 32-bit half if there is one.  (``advance``
    zeroes a used half's stale ``uinteger``, which no draw reads.)"""
    state = rng.bit_generator.state
    return (state["state"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def _draw(rng, op):
    """Make the draw ``op`` on ``rng``; returns its values."""
    kind, size = op[0], op[1]
    if kind == "bytes":
        return rng.integers(0, 256, size=size, dtype=np.uint8).tolist()
    if kind == "int64":
        return rng.integers(0, op[2], size=size).tolist()
    if kind == "int16":
        return rng.integers(-op[2], op[2] + 1, size=size,
                            dtype=np.int16).tolist()
    if kind == "random":
        return rng.random(size).tolist()
    if kind == "uniform":
        return rng.uniform(1.0, 2.0, size=size).tolist()
    assert kind == "lognormal"
    return rng.lognormal(0.0, 0.12, size=size).tolist()


def _skip(rng, op):
    """Skip the draw ``op`` on ``rng`` by the outputs it takes."""
    kind, size = op[0], op[1]
    count = int(np.prod(size))
    state = rng.bit_generator.state
    if kind == "bytes":
        skip_outputs(rng, state, 0, -(-count // 4))
    else:
        skip_outputs(rng, state, count)


_SHAPES = st.one_of(st.integers(0, 40),
                    st.tuples(st.integers(0, 9), st.integers(1, 13)))

#: One generator call, and whether it is skipped.  Full-range ``uint8``
#: draws (any shape, odd byte counts included) and ``uniform`` draws
#: have a fixed cost and may be skipped; bounded 64- and 16-bit
#: integers (rejection sampling), ``random`` and ``lognormal`` draws
#: are always made.
_OPS = st.one_of(
    st.tuples(st.just("bytes"), _SHAPES, st.booleans()),
    st.tuples(st.just("uniform"), st.integers(0, 40), st.booleans()),
    st.tuples(st.just("int64"), st.integers(0, 9),
              st.sampled_from([2, 6, 1000, 1 << 31, 1 << 40]), st.just(False)),
    st.tuples(st.just("int16"), _SHAPES, st.sampled_from([5, 11]),
              st.just(False)),
    st.tuples(st.just("random"), st.integers(0, 9), st.just(False)),
    st.tuples(st.just("lognormal"), st.integers(0, 9), st.just(False)),
)


class TestSkipOutputs:
    @given(program=st.lists(_OPS, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    # A buffered half consumed by a one-byte skip; an odd skip whose
    # high half a bounded draw then takes; a uniform skip that keeps a
    # buffered half.
    @example(program=[("int64", 1, 6, False), ("bytes", 1, True),
                      ("bytes", 1, False)], seed=0)
    @example(program=[("bytes", (3, 3), True), ("int16", 3, 5, False)],
             seed=1)
    @example(program=[("int64", 3, 1000, False), ("uniform", 5, True),
                      ("bytes", 4, False)], seed=2)
    @settings(max_examples=300, deadline=None)
    def test_skip_leaves_the_generator_where_the_draw_would(self, program,
                                                            seed):
        made = np.random.default_rng(seed)
        skipped = np.random.default_rng(seed)
        for op in program:
            *call, skip = op
            values = _draw(made, call)
            if skip:
                _skip(skipped, call)
            else:
                assert _draw(skipped, call) == values
            assert _live_state(skipped) == _live_state(made)
        for call in (("bytes", 3), ("int16", 3, 5), ("int64", 3, 6),
                     ("random", 2)):
            assert _draw(skipped, call) == _draw(made, call)

    def test_nothing_to_skip_leaves_the_state_alone(self):
        rng = np.random.default_rng(3)
        rng.integers(0, 6, size=1)  # leaves a half buffered
        before = rng.bit_generator.state
        skip_outputs(rng, before, 0, 0)
        assert rng.bit_generator.state == before
