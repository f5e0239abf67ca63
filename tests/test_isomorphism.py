"""The isomorphism search against a brute-force permutation oracle and
against the dynamic-frontier search it replaced, and on the oriented duals
and augmented octahedra that need its frontier order."""

import hashlib
import itertools
import random
from collections import Counter, defaultdict

import pytest

from circlesystems.embedding import medial
from circlesystems.equivalence import (
    RealizationClass, equivalent, oriented_dual, smooth_degree_two,
)
from circlesystems.generators import (
    BIGADGET, GADGET, augment_octahedron, canonical_octahedron_realization,
    flower, icosahedron, upper_bound_family,
)
from circlesystems.isomorphism import (
    digraph_isomorphism, find_isomorphism, graphs_isomorphic,
)

from conftest import frontier_isomorphism, relabel_graph, relabel_realization


def _image(edges, p, directed):
    """Edge multiset of ``edges`` with every node ``v`` renamed ``p[v]``."""
    return Counter((p[t], p[h]) if directed else tuple(sorted((p[t], p[h])))
                   for t, h in edges)


def _search(n, edges1, edges2, directed, forced=()):
    if directed:
        return digraph_isomorphism(range(n), edges1, range(n), edges2, forced)
    assert not forced
    return find_isomorphism(n, edges1, n, edges2)


def _degrees(edges, n, directed):
    """Sorted (out-degree, in-degree) pairs, both ends counted if undirected."""
    out, inn = Counter(t for t, _ in edges), Counter(h for _, h in edges)
    if directed:
        return sorted((out[v], inn[v]) for v in range(n))
    return sorted(out[v] + inn[v] for v in range(n))


def _check_against_oracle(n, graphs, directed):
    """Search every graph against one member of each isomorphism class with
    its degree sequence, and digraphs against their own class's member under
    each forced pair: a mapping comes back exactly when some permutation of
    the nodes carries one edge multiset onto the other (and respects the
    forced pairs), and it is such a permutation.  Both outcomes must occur."""
    perms = list(itertools.permutations(range(n)))  # identity first
    images = [[_image(edges, p, directed) for p in perms] for edges in graphs]
    canon = [tuple(min(sorted(img.elements()) for img in imgs)) for imgs in images]
    members = defaultdict(dict)  # degrees -> canonical form -> first graph
    for i, edges in enumerate(graphs):
        members[repr(_degrees(edges, n, directed))].setdefault(canon[i], i)
    forced_lists = [[(a, b)] for a in range(n) for b in range(n)]
    forced_lists += [[(0, b), (1, c)] for b in range(n) for c in range(n)]
    found = Counter()

    def check(i, j, expected, forced=()):
        mapping = _search(n, graphs[i], graphs[j], directed, forced)
        assert (mapping is not None) == expected, (graphs[i], graphs[j], forced)
        if mapping is not None:
            p = [mapping[v] for v in range(n)]
            assert sorted(p) == list(range(n))
            assert _image(graphs[i], p, directed) == images[j][0]
            assert all(p[a] == b for a, b in forced)
        found[expected] += 1

    for i, edges in enumerate(graphs):
        classes = members[repr(_degrees(edges, n, directed))]
        for form, j in classes.items():
            check(i, j, form == canon[i])
        if directed:
            j = classes[canon[i]]
            carrying = [p for p, img in zip(perms, images[i]) if img == images[j][0]]
            for forced in forced_lists:
                check(i, j, any(all(p[a] == b for a, b in forced) for p in carrying),
                      forced)
    assert found[True] and found[False]


def _multisets(pairs, max_edges):
    return [list(es) for k in range(max_edges + 1)
            for es in itertools.combinations_with_replacement(pairs, k)]


def test_digraphs_with_loops_and_parallel_arcs_match_oracle():
    pairs = list(itertools.product(range(3), repeat=2))
    _check_against_oracle(3, _multisets(pairs, 4), directed=True)


def test_multigraphs_with_loops_and_parallel_edges_match_oracle():
    pairs = list(itertools.combinations_with_replacement(range(4), 2))
    _check_against_oracle(4, _multisets(pairs, 4), directed=False)


def test_simple_graphs_on_five_nodes_match_oracle():
    pairs = list(itertools.combinations(range(5), 2))
    graphs = [[e for e, bit in zip(pairs, bits) if bit]
              for bits in itertools.product((0, 1), repeat=len(pairs))]
    _check_against_oracle(5, graphs, directed=False)


def test_random_multi_digraphs_on_five_nodes_match_oracle():
    rng = random.Random(5)
    perms = list(itertools.permutations(range(5)))
    pairs = list(itertools.product(range(5), repeat=2))
    for _ in range(300):
        edges1 = [rng.choice(pairs) for _ in range(rng.randrange(4, 10))]
        p = rng.choice(perms)
        edges2 = [(p[t], p[h]) for t, h in edges1]
        if rng.random() < 0.5:  # move one arc's head; degrees may still agree
            t, _ = edges2.pop(rng.randrange(len(edges2)))
            edges2.append((t, rng.randrange(5)))
        forced = [(rng.randrange(5), rng.randrange(5))] if rng.random() < 0.5 else []
        target = Counter(edges2)
        expected = any(_image(edges1, q, True) == target
                       and all(q[a] == b for a, b in forced) for q in perms)
        mapping = _search(5, edges1, edges2, True, forced)
        assert (mapping is not None) == expected, (edges1, edges2, forced)


def _cycles(*lengths):
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return edges


def test_equal_degree_sequences_need_the_search():
    c6, triangles = _cycles(6), _cycles(3, 3)
    assert find_isomorphism(6, c6, 6, triangles) is None
    assert digraph_isomorphism(range(6), c6, range(6), triangles) is None
    prism = _cycles(3, 3) + [(0, 3), (1, 4), (2, 5)]
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert find_isomorphism(6, prism, 6, k33) is None
    assert find_isomorphism(6, k33, 6, [(2 * a, 2 * b + 1)
                                        for a in range(3) for b in range(3)])


def test_node_labels_and_forced_pairs():
    nodes1, edges1 = ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]
    nodes2, edges2 = [(0,), (1,), (2,)], [((0,), (2,)), ((2,), (1,)), ((1,), (0,))]
    assert digraph_isomorphism(nodes1, edges1, nodes2, edges2, [("a", (1,))]) == {
        "a": (1,), "b": (0,), "c": (2,)}
    # forced pairs that no bijection can contain
    assert digraph_isomorphism(nodes1, edges1, nodes2, edges2,
                               [("a", (1,)), ("b", (1,))]) is None
    assert digraph_isomorphism(nodes1, edges1, nodes2, edges2,
                               [("a", (1,)), ("a", (0,))]) is None
    assert digraph_isomorphism(nodes1, edges1, nodes2, edges2,
                               [("a", (1,)), ("b", (2,))]) is None
    assert digraph_isomorphism(nodes1, edges1, nodes2[:2], edges2) is None


@pytest.mark.parametrize("family, count", [
    (flower, 6), (flower, 7), (flower, 8),
    (upper_bound_family, 32), (upper_bound_family, 64),
])
def test_relabelled_system_is_equivalent(family, count):
    _, r = family(count)
    for seed in range(3):
        assert equivalent(r, relabel_realization(r, random.Random(seed)))


def test_gadget_and_bigadget_octahedra_differ():
    assert not graphs_isomorphic(augment_octahedron(GADGET),
                                 augment_octahedron(BIGADGET))


# digests of the mappings that the search returns when it maps the
# frontier node with the most mapped neighbours, then the least rank, then
# the least index: the order pins which of the many mappings comes back
_MEDIAL_MAPPINGS = {1: "80b7ba69ec9d55a6", 2: "3dca7b1550d82237",
                    3: "d4cfa08b0e665251", 4: "37984dbc5c343e2d"}


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_relabelled_medials_map_edges_onto_edges(depth):
    g = icosahedron()
    for _ in range(depth):
        g = medial(g)
    h = relabel_graph(g, random.Random(depth))
    mapping = find_isomorphism(g.n, g.edges(), h.n, h.edges())
    assert sorted(mapping) == list(range(h.n))
    assert _image(g.edges(), mapping, directed=False) == _image(
        h.edges(), range(h.n), directed=False)
    digest = hashlib.sha256(repr(mapping).encode()).hexdigest()[:16]
    assert digest == _MEDIAL_MAPPINGS[depth]


def _check_identical_labels(n, graphs, directed):
    """Search every graph against itself with its edge list reversed (and
    each edge turned round when undirected), under no forced pair and, for
    digraphs, every forced list: the identity check answers the fixed ones
    and the search the others.  A mapping comes back exactly when some
    automorphism respects the forced pairs, and it is such a one."""
    perms = list(itertools.permutations(range(n)))
    forced_lists = [()]
    if directed:
        forced_lists += [[(a, b)] for a in range(n) for b in range(n)]
        forced_lists += [[(0, b), (1, c)] for b in range(n) for c in range(n)]
    found = Counter()
    for edges in graphs:
        twin = [(t, h) if directed else (h, t) for t, h in reversed(edges)]
        target = _image(edges, range(n), directed)
        autos = [p for p in perms if _image(edges, p, directed) == target]
        for forced in forced_lists:
            expected = any(all(p[a] == b for a, b in forced) for p in autos)
            mapping = _search(n, edges, twin, directed, forced)
            assert (mapping is not None) == expected, (edges, forced)
            if mapping is not None:
                p = [mapping[v] for v in range(n)]
                assert sorted(p) == list(range(n))
                assert _image(edges, p, directed) == target
                assert all(p[a] == b for a, b in forced)
            found[expected] += 1
    assert found[True] and (found[False] or not directed)


def test_digraphs_match_oracle_on_their_own_labels():
    pairs = list(itertools.product(range(3), repeat=2))
    _check_identical_labels(3, _multisets(pairs, 4), directed=True)


def test_multigraphs_match_oracle_on_their_own_labels():
    pairs = list(itertools.combinations_with_replacement(range(4), 2))
    _check_identical_labels(4, _multisets(pairs, 4), directed=False)


def test_simple_graphs_match_oracle_on_their_own_labels():
    pairs = list(itertools.combinations(range(5), 2))
    graphs = [[e for e, bit in zip(pairs, bits) if bit]
              for bits in itertools.product((0, 1), repeat=len(pairs))]
    _check_identical_labels(5, graphs, directed=False)


def test_equal_graphs_under_a_moved_forced_pair_take_the_search(searched):
    cycle = _cycles(3)
    # the identity, with or without a fixed forced pair, needs no search
    identity = {0: 0, 1: 1, 2: 2}
    assert digraph_isomorphism(range(3), cycle, range(3), cycle) == identity
    assert digraph_isomorphism(range(3), cycle, range(3), cycle,
                               [(1, 1)]) == identity
    assert searched == []
    # a forced pair that moves a node leaves it to the search: a rotation
    # answers it, and no automorphism of the cycle swaps two nodes
    assert digraph_isomorphism(range(3), cycle, range(3), cycle, [(0, 1)]) == {
        0: 1, 1: 2, 2: 0}
    assert digraph_isomorphism(range(3), cycle, range(3), cycle,
                               [(0, 1), (1, 0)]) is None
    assert searched == [3, 3, 3, 3]


@pytest.mark.parametrize("edges, forced", [
    ([(0, 1), (1, 5)], ()),
    ([(0, 1), (5, 1)], ()),
    ([(0, 1), (1, 2)], [(7, 7)]),
])
def test_ends_that_name_no_node_raise_as_in_the_search(edges, forced):
    # equal node lists and edge lists would pass the identity check, but an
    # end that is not a node must not be accepted
    with pytest.raises(KeyError):
        digraph_isomorphism(range(3), edges, range(3), list(edges), forced)
    if not forced:
        with pytest.raises(KeyError):
            find_isomorphism(3, edges, 3, list(edges))


def _random_multi_digraph(rng):
    """(node count, arcs, parts) of a random multi-digraph: one to three
    parts, each a copy of one of two random ones or of a directed cycle,
    so that loops, parallel arcs, several components and automorphisms are
    all likely."""
    pool = [_cycles(rng.randrange(2, 6))]
    for _ in range(2):
        k = rng.randrange(1, 6)
        pool.append([(rng.randrange(k), rng.randrange(k))
                     for _ in range(rng.randrange(k, 3 * k + 1))])
    edges, n, parts = [], 0, rng.choice((1, 2, 3))
    for _ in range(parts):
        part = rng.choice(pool)
        edges += [(n + t, n + h) for t, h in part]
        n += 1 + max(max(e) for e in part)
    return n, edges, parts


def test_random_multi_digraphs_return_the_frontier_search_mapping():
    rng = random.Random(28)
    outcomes = Counter()
    for _ in range(600):
        n, edges1, parts = _random_multi_digraph(rng)
        p = list(range(n))
        rng.shuffle(p)
        edges2 = [(p[t], p[h]) for t, h in edges1]
        rng.shuffle(edges2)
        if rng.random() < 0.4:  # move one arc's head; it may stay isomorphic
            t, _ = edges2.pop(rng.randrange(len(edges2)))
            edges2.append((t, rng.randrange(n)))
        forced = [(a, p[a] if rng.random() < 0.7 else rng.randrange(n))
                  for a in rng.sample(range(n), min(n, rng.choice((0, 0, 1, 2))))]
        labels = [f"v{v}" for v in range(n)]
        rng.shuffle(labels)
        for name in (lambda v: v, labels.__getitem__):
            args = ([name(v) for v in range(n)],
                    [(name(t), name(h)) for t, h in edges1],
                    [name(v) for v in range(n)],
                    [(name(t), name(h)) for t, h in edges2],
                    [(name(a), name(b)) for a, b in forced])
            mapping = digraph_isomorphism(*args)
            assert mapping == frontier_isomorphism(*args), args
        outcomes[parts > 1, bool(forced), mapping is not None] += 1
    assert len(outcomes) == 8, outcomes


def _dual_search_args(r1, r2):
    """The arguments that ``equivalent`` passes to the search, for the
    oriented duals of ``r1`` and ``r2`` smoothed."""
    d1, d2 = (oriented_dual(smooth_degree_two(r)) for r in (r1, r2))
    return (list(d1.nodes) + [d1.outer], d1.edges,
            list(d2.nodes) + [d2.outer], d2.edges, [(d1.outer, d2.outer)])


@pytest.mark.parametrize("count", range(3, 9))
def test_relabelled_flower_duals_return_the_frontier_search_mapping(count):
    _, r = flower(count)
    for seed in range(3):
        args = _dual_search_args(r, relabel_realization(r, random.Random(seed)))
        mapping = digraph_isomorphism(*args)
        assert mapping is not None
        assert mapping == frontier_isomorphism(*args)


def test_relabelled_octahedra_duals_return_the_frontier_search_mapping():
    canon = {k: canonical_octahedron_realization(k) for k in RealizationClass}
    for seed, (k1, r1) in enumerate(canon.items()):
        relabelled = relabel_realization(r1, random.Random(seed))
        for k2, r2 in canon.items():
            args = _dual_search_args(relabelled, r2)
            mapping = digraph_isomorphism(*args)
            assert (mapping is not None) == (k1 == k2)
            assert mapping == frontier_isomorphism(*args)
