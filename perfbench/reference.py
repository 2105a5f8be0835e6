"""Reference answers for the benchmark, computed from the definitions alone.

Nothing here imports ``bp2cert``: the benchmark checks the program against
these tables, so they must not share its code.  Graphs are handled as
``(n, rows)`` with ``rows[v]`` the adjacency bitmask of vertex ``v``; a
vertex set is a bitmask over ``0..n-1``.  Tables are NumPy arrays with one
row per graph and one column per vertex set, so a whole order of the
exhaustive sweep is evaluated at once.

Definitions used:

* a vertex set is *one part* when it is a single vertex, or when some
  bipartition ``(X, Y)`` of it into nonempty sides has every ``X``-``Y``
  pair as an edge;
* a vertex set *needs more than two parts* when it is not one part and no
  split into two one-part sets exists;
* a *safe deletion order* of an ``n``-vertex graph deletes ``n - 3``
  vertices one at a time so that the graph and every graph left after a
  deletion need more than two parts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

G6_MAX = 62


@lru_cache(maxsize=None)
def pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs in graph6 column order ``(0,1), (0,2), (1,2), (0,3), ...``."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def g6_encode(n: int, rows: list[int]) -> str:
    bits = [rows[i] >> j & 1 for i, j in pair_order(n)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = value << 1 | bit
        out.append(chr(value + 63))
    return "".join(out)


def g6_decode(text: str) -> tuple[int, list[int]]:
    n = ord(text[0]) - 63
    if not 0 <= n <= G6_MAX:
        raise ValueError(f"bad graph6 size byte in {text!r}")
    pairs = pair_order(n)
    body = text[1:]
    if len(body) != (len(pairs) + 5) // 6:
        raise ValueError(f"bad graph6 length in {text!r}")
    rows = [0] * n
    for k, (i, j) in enumerate(pairs):
        if (ord(body[k // 6]) - 63) >> (5 - k % 6) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return n, rows


def random_rows(n: int, p: float, rng) -> list[int]:
    """Independent edges with probability ``p``, drawn pair by pair from ``rng``."""
    rows = [0] * n
    for i, j in pair_order(n):
        if rng.random() < p:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def all_rows(n: int) -> np.ndarray:
    """Adjacency rows of every labeled graph on ``n`` vertices, in index order."""
    index = np.arange(1 << len(pair_order(n)), dtype=np.int64)
    rows = np.zeros((index.size, n), dtype=np.int64)
    for k, (i, j) in enumerate(pair_order(n)):
        bit = index >> k & 1
        rows[:, i] |= bit << j
        rows[:, j] |= bit << i
    return rows


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    sets = np.arange(1 << n, dtype=np.int64)
    return np.array([int(s).bit_count() for s in sets], dtype=np.int64)


def one_part(rows: np.ndarray, n: int) -> np.ndarray:
    """Boolean table ``[graph, vertex set]``: is the set one part?

    ``common[S]`` is the set of vertices adjacent to every member of ``S``.
    A valid side ``X`` may be taken to hold the lowest member ``v`` of the
    set; every member outside ``common[X']`` for some ``X'`` inside ``X`` can
    then only sit in ``X`` as well.  Growing ``X = {v}`` by that rule to its
    fixpoint gives the smallest possible side, and the set is one part
    exactly when that side is not the whole set (the rest is then adjacent
    to all of it).
    """
    graphs = rows.shape[0]
    size = 1 << n
    common = np.empty((graphs, size), dtype=np.int64)
    common[:, 0] = size - 1
    for b in range(n):
        common[:, 1 << b:2 << b] = common[:, :1 << b] & rows[:, b:b + 1]
    sets = np.arange(size, dtype=np.int64)
    side = np.broadcast_to(sets & -sets, (graphs, size)).copy()
    for _ in range(n):
        side = sets & ~np.take_along_axis(common, side, axis=1)
    table = (side != sets) | (_popcounts(n) == 1)
    table[:, 0] = False
    return table


@lru_cache(maxsize=None)
def _splits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (vertex set ``S``, subset of ``S`` holding its lowest member), grouped by ``S``.

    Returns the sets, the subsets, and the offset where each set's group starts.
    """
    sets, firsts, starts = [], [], []
    for s in range(1, 1 << n):
        starts.append(len(firsts))
        low = s & -s
        rest = s ^ low
        sub = rest
        while True:
            sets.append(s)
            firsts.append(sub | low)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return np.array(sets, dtype=np.int64), np.array(firsts, dtype=np.int64), np.array(starts, dtype=np.int64)


def _split_ok(one: np.ndarray, sets: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    seconds = sets ^ firsts
    return one[:, firsts] & (one[:, seconds] | (seconds == 0))


def two_part(one: np.ndarray, n: int) -> np.ndarray:
    """Boolean table ``[graph, vertex set]``: is the set one part or two one-part sets?"""
    sets, firsts, starts = _splits(n)
    table = np.zeros_like(one)
    table[:, 1:] = np.logical_or.reduceat(_split_ok(one, sets, firsts), starts, axis=1)
    return table


def two_part_whole(one: np.ndarray, n: int) -> np.ndarray:
    """Per graph: is the whole vertex set one part or two one-part sets?"""
    firsts = np.arange(1 << (n - 1), dtype=np.int64) << 1 | 1
    return _split_ok(one, np.int64((1 << n) - 1), firsts).any(axis=1)


def safe_order_exists(more: np.ndarray, n: int) -> np.ndarray:
    """Boolean table ``[graph, vertex set]``: does a safe deletion order start here?

    ``more`` is the table of sets that need more than two parts.  A set of
    three vertices qualifies when it needs more than two parts; a larger one
    when it does and deleting some member leaves a qualifying set.
    """
    counts = _popcounts(n)
    good = np.zeros_like(more)
    good[:, counts == 3] = more[:, counts == 3]
    for k in range(4, n + 1):
        for s in np.flatnonzero(counts == k):
            s = int(s)
            reach = np.zeros(more.shape[0], dtype=bool)
            m = s
            while m:
                low = m & -m
                reach |= good[:, s ^ low]
                m ^= low
            good[:, s] = more[:, s] & reach
    return good


class Graph:
    """Reference facts about one graph: membership, safe orders, the recipe."""

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rows = rows
        self.full = (1 << n) - 1
        self.one = one_part(np.array([rows], dtype=np.int64), n)[0]
        self.two = two_part(self.one[None, :], n)[0]
        self.member = bool(self.two[self.full])

    @property
    def safe_exists(self) -> bool:
        """Does a safe deletion order exist for the whole graph?"""
        if self.member or self.n < 3:
            return False
        return bool(safe_order_exists(~self.two[None, :], self.n)[0, self.full])

    def needs_more(self, mask: int) -> bool:
        return not self.two[mask]

    def largest_two_part(self) -> int:
        """First vertex set, by ascending encoding, among the largest that are one or two parts."""
        sets = np.flatnonzero(self.two)
        sizes = [int(s).bit_count() for s in sets]
        return int(sets[sizes.index(max(sizes))])

    def order_is_safe(self, order: list[int]) -> bool:
        """Every prefix of ``order`` (including the empty one) leaves a set needing more than two parts."""
        alive = self.full
        if not self.needs_more(alive):
            return False
        for v in order:
            alive &= ~(1 << v)
            if not self.needs_more(alive):
                return False
        return True

    def recipe_order(self) -> list[int] | None:
        """The paper's greedy deletion recipe, as the program documents it.

        Returns the order, or ``None`` when a construction step is impossible.
        Used only to pick seeded inputs; the answers themselves are checked
        against membership and safe-order existence.
        """
        n, rows = self.n, self.rows
        a = self.largest_two_part()
        outside = [v for v in range(n) if not a >> v & 1]
        anchor, head = outside[0], outside[1:]
        b = c = 0
        for k in range(a.bit_count() - 1, 0, -1):
            hit = next(
                (s for s in range(1, a + 1) if s & ~a == 0 and s.bit_count() == k
                 and self.one[s] and self.one[a ^ s]),
                None,
            )
            if hit is not None:
                b, c = hit, a ^ hit
                break
        c_adjacent = [v for v in range(n) if c >> v & 1 and rows[v] >> anchor & 1]
        c_free = [v for v in range(n) if c >> v & 1 and not rows[v] >> anchor & 1]
        if not c_free:
            return None
        keeper = c_free[0]
        near = (1 << anchor) | (1 << keeper)
        b_adjacent = [v for v in range(n) if b >> v & 1 and rows[v] & near]
        b_free = [v for v in range(n) if b >> v & 1 and not rows[v] & near]
        if not b_free:
            return None
        return head + c_adjacent + c_free[1:] + b_adjacent + b_free[1:]
