"""Structure-of-arrays kernels for the per-frame hot path.

The write path classifies every decoded block against a per-frame LRU
set-associative MACH (:mod:`repro.core.mach`).  Its test oracle walks
blocks one at a time; the write kernel computes the *identical*
classification from **one stable sort of the frame's tags**
(:func:`stable_sort`), whose runs of equal tags every step reads.

* **A run is all inter or all touches.**  The frozen ring does not
  change during a frame and a tag's membership in it depends on the
  tag alone, so every occurrence of a ring tag is an inter match and
  every occurrence of any other tag touches the current MACH.  A
  touched run is therefore exactly its key's chain of touches in
  block order, and neighbouring run positions are its same-key links.
* **LRU inclusion** — after any touch sequence, a ``ways``-way LRU set
  holds exactly the ``ways`` most recently touched distinct keys, and
  the touch sequence is known a priori (every non-inter block touches
  its set exactly once, whether it hits or inserts).  A touch therefore
  hits iff the number of *distinct* keys touched in its set since the
  previous touch of the same key is at most ``ways - 1`` — the classic
  stack-distance property.
* **Distinct-in-window counting** — a window ``(p, t)`` shorter than
  ``ways`` cannot hold ``ways`` distinct keys, so most links hit
  without counting.  For a longer one, the number of distinct keys
  equals the window length minus the number of same-key occurrence
  links lying entirely inside the window: one dense comparison of the
  long links against all links while that stays small, else, with
  windows that are themselves occurrence links, an offline
  *count-smaller-to-the-left* query over the next-occurrence array,
  solved by a vectorized mergesort.

:func:`lru_chain_classify` takes the key chains and returns hits and
final residents; :func:`chain_providers` gives each hit the insert it
reads with one running maximum.  :func:`lru_touch_classify` wraps them
for an arbitrary ``(sets, keys)`` touch sequence.

Everything here is exact: :func:`lru_touch_classify` is
property-tested against the scalar :class:`~repro.cache.setassoc.\
SetAssociativeCache` replay, and the equivalence suite holds the write
engine's frame layouts bit-identical to the walk's.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["chain_providers", "count_smaller_left", "lru_chain_classify",
           "lru_stack_hits", "lru_touch_classify", "LruClassification",
           "stable_sort"]


_BASE_WIDTH = 16

#: Largest long-links x links comparison :func:`lru_stack_hits` makes
#: densely; a larger one takes the mergesort.
_DENSE_BUDGET = 1 << 16

#: Cached strictly-lower-triangular masks for the mergesort base case.
_TRI_MASKS: dict = {}


def _tri_mask(base: int) -> np.ndarray:
    mask = _TRI_MASKS.get(base)
    if mask is None:
        mask = np.tri(base, base, -1, dtype=bool)
        _TRI_MASKS[base] = mask
    return mask


def count_smaller_left(values: np.ndarray, bound: int = 0) -> np.ndarray:
    """For each element, count strictly-smaller elements to its left.

    ``values`` must be one-dimensional with *distinct* entries (the
    callers guarantee distinctness by construction).  Runs a bottom-up
    mergesort where each level counts, for every element of a right
    half, the elements of the matching left half that are smaller —
    fully vectorized via a packed-key searchsorted per level, with the
    smallest levels collapsed into one triangular broadcast.

    ``bound``, when positive, promises ``0 <= values < bound`` and
    skips the rank-compression pass.
    """
    v = np.asarray(values)
    m = len(v)
    out = np.zeros(m, dtype=np.int64)
    if m < 2:
        return out
    if bound > 0:
        ranks = v.astype(np.int64, copy=False)
        span = int(bound)
    else:
        # Rank-compress to distinct ints in [0, m) so keys pack safely.
        ranks = np.empty(m, dtype=np.int64)
        ranks[np.argsort(v, kind="stable")] = np.arange(m, dtype=np.int64)
        span = m

    size = 1 << (m - 1).bit_length()
    # Pack (value, original index) into one int64: sorting packed keys
    # sorts by value (values are distinct), and comparing packed keys
    # compares values exactly.  Padding sentinels sort above every real
    # key and stay small enough that the per-row offsets below cannot
    # overflow.
    sentinel = np.int64(span) * size
    packed = np.full(size, sentinel, dtype=np.int64)
    packed[:m] = ranks * size + np.arange(m, dtype=np.int64)
    idx_mask = size - 1

    # Base case: one (B, B, blocks) triangular broadcast replaces the
    # first log2(B) merge levels, whose per-level numpy overhead would
    # otherwise dominate.  Blocks run along the last axis, so every
    # elementwise loop is a long one.
    base = min(_BASE_WIDTH, size)
    blocks = packed.reshape(-1, base)
    columns = blocks.T.copy()
    smaller = columns[None, :, :] < columns[:, None, :]
    smaller &= _tri_mask(base)[:, :, None]
    counts = np.count_nonzero(smaller, axis=1).T
    flat = blocks.ravel()
    real = flat < sentinel
    out[flat[real] & idx_mask] = counts.ravel()[real]
    packed = np.sort(blocks, axis=1).ravel()

    width = base
    while width < size:
        rows = packed.reshape(-1, 2 * width)
        lefts = rows[:, :width]
        rights = rows[:, width:]
        # Batched searchsorted: rows are sorted and an increasing
        # per-row offset keeps the flattened left array globally sorted.
        offset = np.arange(rows.shape[0], dtype=np.int64) * (2 * sentinel)
        flat_left = (lefts + offset[:, None]).ravel()
        flat_query = (rights + offset[:, None]).ravel()
        level = np.searchsorted(flat_left, flat_query, side="left")
        level -= np.arange(rows.shape[0], dtype=np.int64).repeat(width) * width
        right_keys = rights.ravel()
        real = right_keys < sentinel
        # Each element appears as a right-half key at most once per
        # level, so plain fancy indexing accumulates safely.
        out[right_keys[real] & idx_mask] += level[real]
        width *= 2
        if width < size:
            packed = np.sort(rows, axis=1).ravel()
    return out


def stable_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted keys, stable argsort)`` of int64 keys in ``[0, 2**32)``.

    Each key packs with its index into one int64, so a plain sort of
    the packed keys, numpy's fastest, yields both at once; the index
    breaks ties exactly as a stable argsort does.
    """
    shift = np.int64(max(len(keys) - 1, 1).bit_length())
    packed = np.sort((keys << shift) | np.arange(len(keys), dtype=np.int64))
    return packed >> shift, packed & ((np.int64(1) << shift) - 1)


class LruClassification:
    """Result of :func:`lru_touch_classify` (original touch order)."""

    __slots__ = ("hits", "provider", "resident_touch", "resident_rank")

    def __init__(self, hits: np.ndarray, provider: np.ndarray,
                 resident_touch: np.ndarray,
                 resident_rank: np.ndarray) -> None:
        #: bool per touch: True = the touch hit a resident entry.
        self.hits = hits
        #: int64 per touch: index of the touch whose *insert* provided
        #: the value a hit observed (-1 for misses).
        self.provider = provider
        #: touch indices of the inserts resident when the sequence
        #: ended, ordered (set ascending, most-recent first).
        self.resident_touch = resident_touch
        #: recency rank (0 = MRU) of each resident entry within its set.
        self.resident_rank = resident_rank


def lru_touch_classify(sets: np.ndarray, keys: np.ndarray,
                       ways: int) -> LruClassification:
    """Replay a touch sequence through per-set LRU caches, vectorized.

    Args:
        sets: int64 set index per touch, in access order.
        keys: int64 key per touch (a key maps to exactly one set).
        ways: associativity of every set (``ways >= 1``).

    Returns:
        A :class:`LruClassification` with hit/provider arrays aligned
        to the input order plus the final resident entries.

    Semantics match an insert-on-miss LRU exactly: every touch makes
    its key most-recently-used; a miss inserts the key (evicting the
    LRU entry of a full set); a hit returns the value stored by the
    key's most recent *insert*.
    """
    sets = np.asarray(sets, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    m = len(keys)
    hits = np.zeros(m, dtype=bool)
    provider = np.full(m, -1, dtype=np.int64)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return LruClassification(hits, provider, empty, empty)

    chain = np.argsort(keys, kind="stable")
    chain_keys = keys[chain]
    new_key = np.empty(m, dtype=bool)
    new_key[0] = True
    new_key[1:] = chain_keys[1:] != chain_keys[:-1]
    hits_c, resident_c = lru_chain_classify(sets, chain, new_key, ways)
    provider_c = chain_providers(hits_c)

    hits[chain] = hits_c
    provider[chain[hits_c]] = chain[provider_c[hits_c]]

    # Final contents, per set newest first.
    res = np.flatnonzero(resident_c)
    last_touch = chain[res]
    res_sets = sets[last_touch]
    order = np.lexsort((-last_touch, res_sets))
    sorted_sets = res_sets[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_sets[1:] != sorted_sets[:-1])))
    rank = np.arange(len(order), dtype=np.int64)
    rank -= np.repeat(starts, np.diff(np.append(starts, len(order))))
    resident_touch = chain[provider_c[res[order]]]
    return LruClassification(hits, provider, resident_touch, rank)


def lru_chain_classify(sets: np.ndarray, chain: np.ndarray,
                       new_key: np.ndarray,
                       ways: int) -> Tuple[np.ndarray, np.ndarray]:
    """LRU outcome of every touch, given the touches grouped by key.

    Args:
        sets: set index per touch, in access order.
        chain: touch indices grouped by key, each key's touches one
            contiguous run in access order (a stable sort by key).
        new_key: True where a run starts in ``chain``.
        ways: associativity of every set.

    Returns:
        ``(hits, resident)`` aligned with ``chain``: whether each touch
        hit, and whether it is the last touch of a key still resident
        when the sequence ends.

    Neighbouring positions of one run are the key's same-key links.
    They are mapped into set-grouped coordinates, where each set's
    touches occupy one contiguous range in access order, and the
    stack-distance test runs there (:func:`lru_stack_hits`).
    """
    m = len(chain)
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    # The set ids take the narrowest unsigned type that holds them, so
    # the stable sort below is a radix sort.
    narrow = sets.astype(np.min_scalar_type(int(sets.max())))
    by_set = np.argsort(narrow, kind="stable")
    grouped = np.empty(m, dtype=np.int64)
    grouped[by_set] = np.arange(m, dtype=np.int64)
    g = grouped[chain]
    prev = np.full(m, -1, dtype=np.int64)
    link = ~new_key[1:]
    prev[g[1:][link]] = g[:-1][link]
    hits_g = lru_stack_hits(prev, ways)

    # A key's last touch stays resident iff fewer than ``ways`` other
    # keys of its set were last touched after it.  A run ends where
    # the next one starts (the first start closes the last run).
    last = np.concatenate((new_key[1:], new_key[:1]))
    last_g = np.zeros(m, dtype=bool)
    last_g[g[last]] = True
    sets_g = narrow[by_set]
    boundary = sets_g[1:] != sets_g[:-1]
    set_end = np.flatnonzero(np.append(boundary, True))
    set_of = np.concatenate(([0], np.cumsum(boundary)))
    seen = np.cumsum(last_g)
    resident_g = last_g & (seen[set_end][set_of] - seen < ways)
    return hits_g[g], resident_g[g]


def chain_providers(hits: np.ndarray) -> np.ndarray:
    """Per chain position, the latest insert (miss) at or before it.

    Every run of a chain opens with a miss, so one running maximum of
    the miss positions never crosses a run boundary.  A hit reads the
    value its provider inserted; a resident key holds its provider's.
    """
    positions = np.arange(len(hits), dtype=np.int64)
    return np.maximum.accumulate(np.where(hits, -1, positions))


def lru_stack_hits(prev: np.ndarray, ways: int) -> np.ndarray:
    """Hit mask of a set-grouped LRU touch sequence, from its links.

    ``prev[t]`` is the position of the previous touch of position
    ``t``'s key, or -1 for a key's first touch; positions are
    set-grouped, each set's touches one contiguous range in access
    order.

    Stack distance: a touch at position ``t`` with previous occurrence
    ``p`` hits iff the window ``(p, t)`` holds at most ``ways - 1``
    distinct keys.  A window shorter than ``ways`` cannot hold more,
    so its link hits outright.  For every longer window, distinct =
    window length - links lying inside the window, counted by one dense
    comparison against all links, or, when that comparison would exceed
    ``_DENSE_BUDGET`` elements, by :func:`_links_inside`.
    """
    m = len(prev)
    q_t = np.flatnonzero(prev >= 0)  # ascending: links by end position
    q_p = prev[q_t]
    window = q_t - q_p - 1
    long = window >= ways
    hits = ~long
    n_long = int(np.count_nonzero(long))
    if n_long * len(q_t) > _DENSE_BUDGET:
        hits = window - _links_inside(q_t, q_p, m) <= ways - 1
    elif n_long:
        inside = ((q_p > q_p[long][:, None])
                  & (q_t < q_t[long][:, None])).sum(axis=1)
        hits[long] = window[long] - inside <= ways - 1
    hits_g = np.zeros(m, dtype=bool)
    hits_g[q_t] = hits
    return hits_g


def _links_inside(q_t: np.ndarray, q_p: np.ndarray, m: int) -> np.ndarray:
    """Per link ``(q_p[i], q_t[i])``, the links lying strictly inside it.

    ``q_t`` ascending; positions lie in ``[0, m)``.  Links inside =
    (links ending before ``t``) - (links from positions ``<= p`` ending
    before ``t``); the second term is count-smaller-left of the
    next-occurrence array evaluated at ``p``, because the window bound
    ``t`` *is* ``p``'s next occurrence.  Only link positions (finite
    next) contribute to or issue these queries, so the quadratic
    structure is computed over the compressed link array.
    """
    nxt = np.int64(m) + np.arange(m, dtype=np.int64)  # distinct sentinels
    nxt[q_p] = q_t
    is_link = nxt < m
    csl_link = count_smaller_left(nxt[is_link], bound=m)
    link_rank = np.cumsum(is_link) - 1  # position -> index among links
    # links-ending-before(t): the finite next-values are exactly the
    # link ends q_t, ascending and distinct, so the count below q_t[i]
    # is just i.
    return np.arange(len(q_t), dtype=np.int64) - csl_link[link_rank[q_p]]
