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

The frontier is a heap of (-mapped neighbours, rank, node) entries with lazy
deletion: mapping or unmapping a node pushes a fresh entry for each of its
neighbours whose count changed, and an entry counts only while its node is
unmapped and its count is current.  The heap's least valid entry is the
node that a scan of the whole frontier would pick, so the order of the
search, and the mapping it returns, are those of the scan; picking costs
O(log n) amortized instead of O(frontier).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from heapq import heapify, heappop, heappush
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
    starts = sorted(range(n), key=lambda v: (rank[v], v))
    nbrs1 = [sorted((set(out1[v]) | set(in1[v])) - {v}) for v in range(n)]
    mapping, inverse = [-1] * n, [-1] * n
    mapped_nbrs = [0] * n
    # the frontier, unmapped nodes with a mapped neighbour, as a lazy heap
    frontier = []  # (-mapped_nbrs[v], rank[v], v), stale entries included

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

    def assign(v, x):
        mapping[v], inverse[x] = x, v
        for w in nbrs1[v]:
            mapped_nbrs[w] += 1
            if mapping[w] == -1:
                heappush(frontier, (-mapped_nbrs[w], rank[w], w))

    def unassign(v):
        inverse[mapping[v]], mapping[v] = -1, -1
        for w in nbrs1[v]:
            mapped_nbrs[w] -= 1
            if mapping[w] == -1 and mapped_nbrs[w]:
                heappush(frontier, (-mapped_nbrs[w], rank[w], w))
        if mapped_nbrs[v]:
            heappush(frontier, (-mapped_nbrs[v], rank[v], v))

    def pick():
        """The next node to map and the nodes it may map to: the frontier
        node with the most mapped neighbours, then the least rank, then the
        least index."""
        if len(frontier) > 4 * n + 64:  # drop the stale entries
            frontier[:] = [(-mapped_nbrs[v], rank[v], v) for v in range(n)
                           if mapping[v] == -1 and mapped_nbrs[v]]
            heapify(frontier)
        while frontier:
            count, _, v = frontier[0]
            if mapping[v] == -1 and mapped_nbrs[v] == -count:
                break
            heappop(frontier)
        else:  # first node of a component
            v = next(v for v in starts if mapping[v] == -1)
            return v, same_sig[sig1[v]]
        w = next(w for w in nbrs1[v] if mapping[w] != -1)
        return v, in2[mapping[w]] if w in out1[v] else out2[mapping[w]]

    def dfs():
        """Extend the mapping to every node, backtracking on dead ends."""
        stack = []  # (node, its remaining candidates) per search level
        left = mapping.count(-1)
        while left:
            v, candidates = pick()
            candidates = iter(candidates)
            while True:
                x = next((x for x in candidates if consistent(v, x)), None)
                if x is not None:
                    break
                if not stack:
                    return False
                v, candidates = stack.pop()
                unassign(v)
                left += 1
            assign(v, x)
            left -= 1
            stack.append((v, candidates))
        return True

    for a, b in forced:
        v, x = index1[a], index2[b]
        if mapping[v] != x:
            if mapping[v] != -1 or not consistent(v, x):
                return None
            assign(v, x)

    if not dfs():
        return None
    return {nodes1[v]: nodes2[x] for v, x in enumerate(mapping)}
