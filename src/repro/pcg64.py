"""Skipping a PCG64 generator past draws whose values nobody reads.

A :class:`numpy.random.Generator` on PCG64 takes 64-bit outputs for
doubles and 32-bit halves for narrow integers: ``next_uint32`` hands
out the buffered high half of the last 64-bit output if it holds one,
else the low half of a fresh output, buffering its high half.
``BitGenerator.advance`` jumps the 64-bit stream in O(log n) but drops
the buffered half, so a skip has to put the half right afterwards.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np


def skip_outputs(rng: np.random.Generator, state: Mapping[str, Any],
                 words: int, halves: int = 0) -> None:
    """Leave ``rng`` where ``words`` 64-bit outputs and then ``halves``
    32-bit outputs would leave it.

    ``state`` is ``rng.bit_generator.state`` as it is now; the caller
    reads it (once).  A full-range ``uint8`` draw of ``b`` bytes takes
    ``ceil(b / 4)`` halves; a ``uniform`` or ``random`` draw of ``c``
    doubles takes ``c`` words and keeps a buffered half.
    """
    if not (words or halves):
        return
    buffered = bool(state["has_uint32"])
    if halves and buffered:
        halves -= 1  # the buffered half goes first
        buffered = False
    full, odd = divmod(halves, 2)
    bit_generator = rng.bit_generator
    bit_generator.advance(words + full)  # drops any buffered half
    if odd:
        # One 32-bit output: the low half of the next 64-bit output,
        # whose high half stays buffered.
        rng.random(dtype=np.float32)
    elif buffered:
        bit_generator.state = {**bit_generator.state, "has_uint32": 1,
                               "uinteger": state["uinteger"]}
