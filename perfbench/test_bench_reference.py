"""The benchmark's reference tables against brute force from the definitions.

The brute force works on ``networkx`` graphs and enumerates bipartitions,
splits and deletion orders directly, sharing no code with ``reference``.
"""

import random
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest

import reference as ref


def nx_graph(n: int, rows: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1)
    return g


def brute_one_part(g: nx.Graph, members: frozenset) -> bool:
    if len(members) == 1:
        return True
    for k in range(1, len(members)):
        for side in combinations(sorted(members), k):
            other = members - set(side)
            if all(g.has_edge(u, v) for u in side for v in other):
                return True
    return False


def brute_two_part(g: nx.Graph, members: frozenset) -> bool:
    if brute_one_part(g, members):
        return True
    return any(
        brute_one_part(g, frozenset(p)) and brute_one_part(g, members - set(p))
        for k in range(1, len(members))
        for p in combinations(sorted(members), k)
    )


def brute_safe_order(g: nx.Graph) -> bool:
    vertices = frozenset(g.nodes)
    for order in permutations(sorted(vertices), len(vertices) - 3):
        alive = vertices
        if brute_two_part(g, alive):
            return False
        for v in order:
            alive = alive - {v}
            if brute_two_part(g, alive):
                break
        else:
            return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tables_match_brute_force(n):
    rows = ref.all_rows(n)
    one = ref.one_part(rows, n)
    two = ref.two_part(one, n)
    safe = ref.safe_order_exists(~two, n) if n >= 3 else None
    full = (1 << n) - 1
    for index in range(rows.shape[0]):
        g = nx_graph(n, [int(r) for r in rows[index]])
        for mask in range(1, full + 1):
            members = frozenset(v for v in range(n) if mask >> v & 1)
            assert one[index, mask] == brute_one_part(g, members)
            assert two[index, mask] == brute_two_part(g, members)
        assert ref.two_part_whole(one[index:index + 1], n)[0] == two[index, full]
        if safe is not None and not two[index, full]:
            assert safe[index, full] == brute_safe_order(g)


def test_seven_cycle_labelings_have_no_safe_order():
    labelings = set()
    for perm in permutations(range(7)):
        rows = [0] * 7
        for i in range(7):
            u, v = perm[i], perm[(i + 1) % 7]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        labelings.add(tuple(rows))
    assert len(labelings) == 360
    rows = np.array(sorted(labelings), dtype=np.int64)
    two = ref.two_part(ref.one_part(rows, 7), 7)
    assert not two[:, -1].any()
    assert not ref.safe_order_exists(~two, 7)[:, -1].any()


def test_safe_order_exists_where_one_is_known():
    # Four isolated vertices: deleting any one leaves three isolated vertices.
    g = ref.Graph(4, [0, 0, 0, 0])
    assert not g.member and g.safe_exists and g.order_is_safe([2])


def test_graph6_matches_networkx():
    draw = random.Random(5)
    for n in (1, 2, 5, 12, 16, 30):
        for _ in range(10):
            rows = ref.random_rows(n, 0.4, draw)
            code = ref.g6_encode(n, rows)
            assert code == nx.to_graph6_bytes(nx_graph(n, rows), header=False).decode().strip()
            assert ref.g6_decode(code) == (n, rows)


def test_recipe_matches_the_program():
    """The seeded certify inputs are picked by the reference's copy of the recipe; it must agree."""
    from bp2cert.certificates import SafeSequence, gen_safe_sequence
    from bp2cert.graphs import Graph

    rng = np.random.default_rng(9)
    cases = [(6, [int(r) for r in row]) for row in ref.all_rows(6)[rng.choice(1 << 15, 400, replace=False)]]
    draw = random.Random(3)
    cases += [(n, ref.random_rows(n, 0.3, draw)) for n in (8, 9, 10) for _ in range(10)]
    compared = 0
    for n, rows in cases:
        g = ref.Graph(n, rows)
        if g.member:
            continue
        order = g.recipe_order()
        built = gen_safe_sequence(Graph(tuple(range(n)), tuple(rows)))
        if isinstance(built, SafeSequence):
            assert order == list(built.order)
        else:
            assert order is None or not g.order_is_safe(order)
        compared += 1
    assert compared >= 40
