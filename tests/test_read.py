"""The read of a system of circles as a graph against the code it replaced:
arc ends matched by exact angle with bisection as the fallback, rotations
taken from one sort, and the outer face summed in one pass over the arcs,
each compared with its oracle in ``conftest`` (``bisection_partition_faults``,
``grouped_row`` and ``grouping_extract``, ``per_dart_outer_face``)."""

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from circlesystems.embedding import medial
from circlesystems.equivalence import RealizationClass
from circlesystems.generators import (
    canonical_octahedron_realization,
    flower,
    icosahedron,
    upper_bound_family,
)
from circlesystems.jsonio import parse_realization, serialize_realization
from circlesystems.realization import (
    KIND_TOUCH,
    READ_TOL,
    TWO_PI,
    Arc,
    RealPoint,
    Realization,
    _angular_order,
    _arc_partition_faults,
    _exact_ends,
    _extract,
    _rotation,
    outer_face_of,
    realize,
)

from conftest import (
    bisection_partition_faults,
    grouped_row,
    grouping_extract,
    per_dart_outer_face,
    relabel_realization,
)

# the slacks the verifier and the reader match arc ends within, and more
TOLS = [0.0, 1e-12, READ_TOL, 1e-7, 1.0]


def _ladder():
    g = icosahedron()
    for _ in range(4):
        g = medial(g)
        yield f"realize-n{g.n}", realize(g)


def _split_arcs(r, every=3):
    """``r`` with every ``every``-th arc split by a degree-2 point in its
    middle, the point naming the arc's circle twice."""
    points, arcs = list(r.points), []
    for i, a in enumerate(r.arcs):
        if i % every:
            arcs.append(a)
            continue
        c = r.circles[a.circle]
        mid = (a.from_angle + a.extent / 2.0) % TWO_PI
        points.append(RealPoint(c.cx + c.r * math.cos(mid), c.cy + c.r * math.sin(mid),
                                (a.circle, a.circle), KIND_TOUCH))
        arcs += [Arc(a.circle, a.from_angle, mid, a.edge),
                 Arc(a.circle, mid, a.to_angle, len(r.arcs) + i)]
    return Realization(list(r.circles), points, arcs)


def _systems():
    base = list(_ladder())
    base += [(f"flower{c}", flower(c)[1]) for c in range(3, 13)]
    base += [(f"upper-bound-family{c}", upper_bound_family(c)[1])
             for c in range(4, 81, 2)]
    base += [(k.value, canonical_octahedron_realization(k)) for k in RealizationClass]
    systems = []
    for name, r in base:
        systems += [(name, r),
                    (f"{name}-relabelled", relabel_realization(r, random.Random(name))),
                    (f"{name}-json", parse_realization(serialize_realization(r)))]
        if len(r.points) <= 120:
            systems.append((f"{name}-degree-two", _split_arcs(r)))
    return systems


SYSTEMS = _systems()


def _turned(r, turns):
    """``r`` with its arc angles moved by whole turns, ``turns`` in cycle,
    and every zero angle made -0.0: the same arcs, unreduced."""
    arcs = []
    for i, a in enumerate(r.arcs):
        t = turns[i % len(turns)]
        ends = [angle + t * TWO_PI for angle in (a.from_angle, a.to_angle)]
        ends = [-0.0 if angle == 0.0 else angle for angle in ends]
        arcs.append(Arc(a.circle, *ends, a.edge))
    return Realization(r.circles, r.points, arcs)


def _assert_same_graph(r, order, ends):
    """``_extract`` and ``outer_face_of`` equal their oracles on ``r``:
    the same rotation rows, dart tails and faces, or the same refusal."""
    try:
        g = _extract(r, order, ends, READ_TOL)
    except Exception as exc:  # noqa: BLE001 - the refusal is compared
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            grouping_extract(r, order, ends, READ_TOL)
        return None
    h = grouping_extract(r, order, ends, READ_TOL)
    assert g.rotation == h.rotation
    assert g.dart_tail == h.dart_tail
    assert g.dart_face == h.dart_face
    assert g.faces == h.faces
    assert _outcome(outer_face_of, r, g) == _outcome(per_dart_outer_face, r, g)
    return g


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc).__name__, str(exc)


def _assert_same_read(r):
    order = _angular_order(r.circles, r.points)
    for tol in TOLS:
        read = _arc_partition_faults(order, r.arcs, tol)
        assert read == bisection_partition_faults(order, r.arcs, tol), tol
    faults, ends = _arc_partition_faults(order, r.arcs, 1e-7)
    assert not faults
    return order, ends, _assert_same_graph(r, order, ends)


@pytest.mark.parametrize("name, r", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_read_matches_the_oracles(name, r):
    _assert_same_read(r)


@pytest.mark.parametrize("name, r", SYSTEMS[::5], ids=[s[0] for s in SYSTEMS[::5]])
def test_unreduced_arc_angles_read_alike(name, r):
    for turns in ([1], [-1], [0, 1, -1], [3, 0]):
        _assert_same_read(_turned(r, turns))


@pytest.mark.parametrize("name, r", SYSTEMS[::8], ids=[s[0] for s in SYSTEMS[::8]])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_arc_angles_that_are_not_numbers_read_alike(name, r, bad):
    order, ends, g = _assert_same_read(r)
    for k in (0, len(r.arcs) // 2):
        for field in (1, 2):
            arc = list(r.arcs[k])
            arc[field] = bad
            arcs = r.arcs[:k] + [Arc(*arc)] + r.arcs[k + 1:]
            broken = Realization(r.circles, r.points, arcs)
            for tol in TOLS + [math.inf]:
                assert (_arc_partition_faults(order, arcs, tol)
                        == bisection_partition_faults(order, arcs, tol))
            # the graph and outer face of the arcs as they were matched
            _assert_same_graph(broken, order, ends)
            if g is not None:
                assert (_outcome(outer_face_of, broken, g)
                        == _outcome(per_dart_outer_face, broken, g))


@pytest.mark.parametrize("name, r", SYSTEMS[::8], ids=[s[0] for s in SYSTEMS[::8]])
def test_repeated_and_reversed_arcs_read_alike(name, r):
    # as many arcs as points, each matched, yet not joining consecutive
    # points once each: the faults name the same arcs
    order = _angular_order(r.circles, r.points)
    a = r.arcs[0]
    twin = next(b for b in r.arcs[1:] if b.circle == a.circle)
    for swap in (twin, Arc(a.circle, a.to_angle, a.from_angle, a.edge)):
        arcs = [swap] + r.arcs[1:]
        read = _arc_partition_faults(order, arcs, 1e-7)
        assert read[0]
        assert read == bisection_partition_faults(order, arcs, 1e-7)


def test_exact_ends_need_every_angle_in_one_turn():
    # a NaN can leave an order unsorted and an angle beyond 2 pi puts the
    # circular order off the sorted one: no end is then taken as exact
    assert _exact_ends([(0.5, 0), (2.0, 1), (4.0, 2)]) == {0.5: 0, 2.0: 1, 4.0: 2}
    assert _exact_ends([(0.5, 0), (math.nan, 1), (2.0, 2), (4.0, 3)]) == {}
    assert _exact_ends([(0.5, 0), (2.0, 1), (0.5 + TWO_PI, 2), (8.0, 3)]) == {}
    assert _exact_ends([(-1.0, 0), (2.0, 1), (4.0, 2)]) == {}
    # both ends of one turn are the same place on the circle
    assert _exact_ends([(0.0, 0), (2.0, 1), (TWO_PI, 2)]) == {2.0: 1}


# -- arc ends on crowded circles -------------------------------------------------

_EDGE = [0.0, math.nextafter(0.0, 1.0), 1e-300, 1e-17, math.nextafter(TWO_PI, 0.0),
         TWO_PI, (-1e-17) % TWO_PI, 1.0, math.nextafter(1.0, 2.0), math.pi]


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(st.one_of(st.sampled_from(_EDGE), st.floats(0.0, TWO_PI)),
                       min_size=1, max_size=8),
       shift=st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI, 1e-16, -1e-16, 1e-9]),
       tol=st.sampled_from(TOLS + [math.inf]))
def test_crowded_arc_ends_match_the_oracle(angles, shift, tol):
    # one circle whose points sit at runs of equal angles and at angles a
    # nextafter apart at 0 and below 2 pi; its arcs join consecutive points,
    # their ends exact or moved by ``shift``, in either direction
    pairs = sorted((a, pid) for pid, a in enumerate(angles))
    k = len(pairs)
    arcs = [Arc(0, pairs[j][0] + shift, pairs[(j + 1) % k][0] - shift, j)
            for j in range(k)]
    reversed_ends = [Arc(0, a.to_angle, a.from_angle, a.edge) for a in arcs]
    for arcs_ in (arcs, arcs[::-1], reversed_ends):
        assert (_arc_partition_faults([pairs], arcs_, tol)
                == bisection_partition_faults([pairs], arcs_, tol))


def test_equal_angles_and_neighbours_a_hair_apart():
    for angles in ([0.0, 0.0, 1.0, 3.0], [1.0, 2.0, TWO_PI, TWO_PI],
                   [0.0, 2.0, 4.0, TWO_PI], [math.nextafter(0.0, 1.0), 0.0, 3.0],
                   [0.0, 3.0, math.nextafter(TWO_PI, 0.0)], [2.0, 2.0, 2.0],
                   [5.0], [1e-17, 1e-300, 2.0, 4.0]):
        pairs = sorted((a, pid) for pid, a in enumerate(angles))
        k = len(pairs)
        for shift in (0.0, -0.0, TWO_PI, -TWO_PI):
            arcs = [Arc(0, pairs[j][0] + shift, pairs[(j + 1) % k][0], j)
                    for j in range(k)]
            for tol in TOLS:
                assert (_arc_partition_faults([pairs], arcs, tol)
                        == bisection_partition_faults([pairs], arcs, tol))


# -- rotations -------------------------------------------------------------------

_TANGENTS = [0.0, math.nextafter(0.0, 1.0), 5e-7, 1e-6, math.nextafter(1e-6, 0.0),
             2e-6, 1.0, 1.0 + 5e-7, 1.0 + 1e-6, math.pi, TWO_PI - 5e-7,
             math.nextafter(TWO_PI, 0.0), TWO_PI, math.nan]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.sampled_from(_TANGENTS), st.floats(0.0, TWO_PI)),
    st.sampled_from([1.0, -1.0, 0.5, -2.0, 0.0, math.inf, math.nan])), max_size=6))
def test_rotation_matches_the_grouping(germs):
    keyed = [(tau, kappa, d) for d, (tau, kappa) in enumerate(germs)]
    random.Random(len(keyed)).shuffle(keyed)
    assert _rotation(list(keyed)) == grouped_row(sorted(keyed))
