"""Isomorphism of directed multigraphs, and of undirected ones through them.

The identity comes first: two graphs on equal node lists with equal edge
multisets (and only fixed forced pairs) are matched by it in O(n + m).
That is the common case of verification, where `realize` and the
generators number point v of a system as vertex v of its graph.

Otherwise one backtracking search runs, in the frontier order of VF2
(Cordella et al., "A (sub)graph isomorphism algorithm for matching large
graphs", IEEE TPAMI 26(10), 2004): the next node is the unmapped node with
the most mapped neighbours, its candidates are the neighbours of a mapped
neighbour's image, and a node pairs only with nodes of its own degree
signature.  Each pairing is checked against the mapped neighbours of both
nodes, in O(degree).  Parallel edges and loops are matched by multiplicity.
An undirected multigraph is searched as the digraph with each edge in both
directions.

The node picked at depth d depends only on graph 1 and on the nodes picked
before it, never on their images, so the order is computed once, before
the search, as in VF2++ (Juttner and Madarasi, "VF2++ -- An improved
subgraph isomorphism algorithm", Discrete Applied Mathematics 242, 2018).
Ties go to the least rank (the count of graph-2 nodes of the node's
signature), then to the least index; when no unmapped node has a mapped
neighbour, the first by (rank, index) starts a new component.  The search
walks that order depth by depth, and backtracking only unmaps a node.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from heapq import heappop, heappush
from itertools import chain


def find_isomorphism(n1, edges1, n2, edges2):
    """Mapping list (vertex of graph 1 -> vertex of graph 2) or None."""
    mapping = digraph_isomorphism(range(n1), _both_ways(edges1),
                                  range(n2), _both_ways(edges2))
    return None if mapping is None else [mapping[v] for v in range(n1)]


def _both_ways(edges):
    return [(u, v) for u, v in edges] + [(v, u) for u, v in edges]


def graphs_isomorphic(g1, g2):
    """Abstract (embedding-ignoring) isomorphism of two EmbeddedGraphs."""
    return find_isomorphism(g1.n, g1.edges(), g2.n, g2.edges()) is not None


def _adjacency(nodes, edges):
    """Out- and in-neighbour multiplicities by node index (dicts, read with
    ``.get(w, 0)``), and each node's signature: (out-degree, in-degree,
    loops) and its neighbours' degrees."""
    index = {v: i for i, v in enumerate(nodes)}
    heads, tails = [[] for _ in nodes], [[] for _ in nodes]
    out, inn = [{} for _ in nodes], [{} for _ in nodes]
    for t, h in edges:
        t, h = index[t], index[h]
        heads[t].append(h)
        tails[h].append(t)
        out[t][h] = out[t].get(h, 0) + 1
        inn[h][t] = inn[h].get(t, 0) + 1
    degree = [(len(hs), len(ts), out[v].get(v, 0))
              for v, (hs, ts) in enumerate(zip(heads, tails))]
    sig = [(degree[v], tuple(sorted(degree[w] for w in heads[v])),
            tuple(sorted(degree[w] for w in tails[v])))
           for v in range(len(nodes))]
    return index, out, inn, sig


def digraph_isomorphism(nodes1, edges1, nodes2, edges2, forced=()):
    """Directed-graph isomorphism over explicit node lists.

    ``edges*`` are (tail, head) pairs, possibly with multiplicity; ``forced``
    lists node pairs the bijection must contain.  Returns a dict or None.

    The identity is tried first, in O(n + m): when the node lists are
    equal, every forced pair is (a, a) and the edge multisets are equal, it
    is returned without a search.  The search would find a mapping in that
    case too, so the check changes no verdict, only which mapping comes
    back.  An edge or forced pair that names a missing node skips the check
    and raises KeyError in the search, as before.
    """
    if len(nodes1) != len(nodes2) or len(edges1) != len(edges2):
        return None
    if (list(nodes1) == list(nodes2) and all(a == b for a, b in forced)
            and Counter(edges1) == Counter(edges2)
            and set(nodes1).issuperset(
                chain(chain.from_iterable(edges1), (a for a, _ in forced)))):
        return {v: v for v in nodes1}
    index1, out1, in1, sig1 = _adjacency(nodes1, edges1)
    index2, out2, in2, sig2 = _adjacency(nodes2, edges2)
    if Counter(sig1) != Counter(sig2):
        return None
    n = len(nodes1)
    same_sig = defaultdict(list)
    for x in range(n):
        same_sig[sig2[x]].append(x)
    rank = [len(same_sig[sig1[v]]) for v in range(n)]
    mapping, inverse = [-1] * n, [-1] * n

    def consistent(v, x):
        # equal signatures also match the loops, which the checks below skip
        if sig1[v] != sig2[x] or inverse[x] != -1:
            return False
        for a, b in ((out1[v], out2[x]), (in1[v], in2[x])):
            if any(mapping[w] != -1 and b.get(mapping[w], 0) != m
                   for w, m in a.items()):
                return False
            if any(inverse[y] != -1 and a.get(inverse[y], 0) != m
                   for y, m in b.items()):
                return False
        return True

    for a, b in forced:
        v, x = index1[a], index2[b]
        if mapping[v] != x:
            if mapping[v] != -1 or not consistent(v, x):
                return None
            mapping[v], inverse[x] = x, v

    order = _search_order(out1, in1, rank, [x != -1 for x in mapping])
    untried = [None] * len(order)  # per depth, the images left to try
    d = 0
    while d < len(order):
        v, w = order[d]
        if untried[d] is None:
            untried[d] = iter(
                same_sig[sig1[v]] if w is None
                else (in2 if w in out1[v] else out2)[mapping[w]])
        x = next((x for x in untried[d] if consistent(v, x)), None)
        if x is not None:
            mapping[v], inverse[x] = x, v
            d += 1
        else:  # backtrack: unmap the node one level up
            untried[d] = None
            d -= 1
            if d < 0:
                return None
            u = order[d][0]
            inverse[mapping[u]], mapping[u] = -1, -1
    return {nodes1[v]: nodes2[x] for v, x in enumerate(mapping)}


def _search_order(out, inn, rank, mapped):
    """(node, its first mapped neighbour or None) for each node whose
    flag in ``mapped`` is False, in the order the search maps them; the
    flags are set on the way.  The neighbour's image supplies the node's
    candidates; None starts a new component.  The frontier is a heap of
    (-mapped neighbours, rank, node) whose superseded entries are skipped:
    a count only grows, so each pair of neighbours pushes at most once."""
    n = len(out)
    nbrs = [sorted((out[v].keys() | inn[v].keys()) - {v}) for v in range(n)]
    starts = iter(sorted(range(n), key=lambda v: (rank[v], v)))
    count, frontier, order = [0] * n, [], []

    def visit(v):
        mapped[v] = True
        for w in nbrs[v]:
            count[w] += 1
            if not mapped[w]:
                heappush(frontier, (-count[w], rank[w], w))

    for v in [v for v in range(n) if mapped[v]]:
        visit(v)
    for _ in range(mapped.count(False)):
        while frontier and (mapped[frontier[0][2]]
                            or count[frontier[0][2]] != -frontier[0][0]):
            heappop(frontier)
        if frontier:
            v = frontier[0][2]
            order.append((v, next(w for w in nbrs[v] if mapped[w])))
        else:  # first node of a component
            v = next(v for v in starts if not mapped[v])
            order.append((v, None))
        visit(v)
    return order
