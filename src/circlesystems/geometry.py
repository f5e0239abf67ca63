"""Closed-form oracles for tangent-circle configurations.

Covers the mate-radius formulas for a circle tangent to a base circle and
to a second circle already tangent to the base (interior and exterior
variants), the exterior angle bound 2*atan(sqrt(r2/r1)) where the mate
degenerates to a line, the equal-size pair radius h/(1+h) inside and
h/(1-h) outside with h = sin(span/2), the strict arc inequality for nested
non-crossing tangent pairs (a sampled candidate is tested on its plain
numbers, its alpha pair for crossing before its beta pair is sized, and
only an accepted one becomes a record), the infeasibility report for the
gadget attachment pattern (its search count summed in closed form in
O(grid) steps), and a Descartes-identity residual used as an independent
packing check.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import DomainError, InvalidConfig, NotTangent
from .packing import Circle, _tangency

INTERIOR = "INTERIOR"
EXTERIOR = "EXTERIOR"

SAMPLE_TRIES = 500  # candidates sample_arc_pair_config draws at most
CONFIG_TOL = 1e-9  # relative tolerance of the arc-pair configuration checks
DESCARTES_TOL = 1e-6  # tangency tolerance of descartes_check


def inner_mate_radius(r1: float, r2: float, phi: float) -> float:
    """Radius of the circle inside C1 tangent to it at angle ``phi`` from
    the C1/C2 tangency and externally tangent to C2 (which sits inside C1).

    Strictly increasing in phi on (0, pi].
    """
    # the literal is the largest finite float: it refuses an infinite r1
    if not (0.0 < r2 < r1 <= 1.7976931348623157e308):
        raise DomainError("need 0 < r2 < r1, both finite")
    if not (0.0 < phi <= math.pi):
        raise DomainError("need phi in (0, pi]")
    t = r2 / r1  # in units of r1, so that no product of radii overflows
    return r1 * (1.0 - 2.0 * t / (1.0 + t - (1.0 - t) * math.cos(phi)))


def outer_mate_radius(r1: float, r2: float, phi: float) -> float:
    """Radius of the circle outside C1 tangent to it at angle ``phi`` from
    the C1/C2 tangency and externally tangent to C2 (also outside C1).

    Strictly increasing in phi and unbounded as phi approaches
    ``outer_phi_max(r1, r2)``, where the circle flattens into the common
    tangent line.  With h = sin(phi/2) and q = h**2 * (1 + r1/r2) it is
    r1 * q / (1 - q); q is summed from h and h * sqrt(r1) / sqrt(r2), so
    that r2/r1 neither underflows nor overflows and no product of two radii
    is formed.  A radius beyond the float range raises DomainError.
    """
    bound = outer_phi_max(r1, r2)  # refuses the radii first
    if not phi > 0.0:
        raise DomainError(f"need phi > 0, got {phi!r}")
    h = math.sin(0.5 * phi)
    s = h * (math.sqrt(r1) / math.sqrt(r2))
    q = h * h + s * s
    if q >= 1.0 or phi >= bound:
        raise DomainError(
            f"phi={phi!r} at or beyond the degeneration angle {bound!r}"
        )
    # q < 1, so q / (1 - q) stays below 2**53 and only the result overflows
    r = r1 * (q / (1.0 - q))
    if r == math.inf:
        raise DomainError(f"mate radius at phi={phi!r} exceeds the float range")
    return r


def outer_phi_max(r1: float, r2: float) -> float:
    """Supremum tangency angle for the exterior mate circle,
    2*atan(sqrt(r2/r1)); the square roots are taken apart, so that the
    ratio neither underflows nor overflows."""
    if not (0.0 < r1 <= 1.7976931348623157e308
            and 0.0 < r2 <= 1.7976931348623157e308):
        raise DomainError("radii must be positive and finite")
    return 2.0 * math.atan(math.sqrt(r2) / math.sqrt(r1))


# -- nested arc-pair inequality --------------------------------------------------


class ArcPairConfig(NamedTuple):
    """Two non-crossing tangent circle pairs hanging off one base circle.

    The outer pair touches the base at angles ``alpha`` and ``beta``, the
    inner pair at ``alpha_p`` and ``beta_p``; the four touch angles occur in
    the order alpha < alpha_p < beta_p < beta within a span below pi, and
    all four circles sit on the same side of the base circle.
    """

    base_radius: float
    alpha: float
    beta: float
    alpha_p: float
    beta_p: float
    side: str
    rho1: float
    rho2: float
    rho1_p: float
    rho2_p: float


def _arc_pair_fault(base_radius, alpha, beta, alpha_p, beta_p, side,
                    rho1, rho2, rho1_p, rho2_p) -> str | None:
    """Why the ``ArcPairConfig`` with these fields is invalid, or None."""
    if side not in (INTERIOR, EXTERIOR):
        return f"unknown side {side!r}"
    if not (alpha < alpha_p < beta_p < beta):
        return "touch angles out of order"
    if not (beta - alpha < math.pi):
        return "total span must stay below pi"
    mate = inner_mate_radius if side == INTERIOR else outer_mate_radius
    for rho_a, rho_b, span in (
        (rho1, rho2, beta - alpha),
        (rho1_p, rho2_p, beta_p - alpha_p),
    ):
        expect = mate(base_radius, rho_a, span)
        if not (0.0 < rho_b < math.inf
                and abs(expect - rho_b) <= CONFIG_TOL * max(1.0, rho_b)):
            return f"pair radii {rho_a}, {rho_b} are not mutually tangent"
    return _crossing_fault(base_radius, alpha, beta, alpha_p, beta_p, side,
                           rho1, rho2, rho1_p, rho2_p)


def _alpha_pair_apart(base_radius, alpha, alpha_p, sign, rho1, rho1_p):
    """The centers (x1, y1, x1p, y1p) of the circles of radii ``rho1`` and
    ``rho1_p`` touching the base at ``alpha`` and ``alpha_p`` from the side
    ``sign`` (-1.0 inside, 1.0 outside), or None when they cross or touch:
    the crossing test that needs no mate radius."""
    # a circle of radius rho touching the base at angle a from the given
    # side has its center at distance base_radius -+ rho along a
    d = base_radius + sign * rho1
    x1, y1 = d * math.cos(alpha), d * math.sin(alpha)
    d = base_radius + sign * rho1_p
    x1p, y1p = d * math.cos(alpha_p), d * math.sin(alpha_p)
    if math.hypot(x1 - x1p, y1 - y1p) <= (rho1 + rho1_p) * (1.0 + CONFIG_TOL):
        return None
    return x1, y1, x1p, y1p


def _crossing_fault(base_radius, alpha, beta, alpha_p, beta_p, side,
                    rho1, rho2, rho1_p, rho2_p) -> str | None:
    """``_arc_pair_fault``'s last test, for a valid side: an outer circle
    crosses or touches an inner one.  ``_alpha_pair_apart`` goes first and
    the beta centers are computed only if it passes; the sampler runs it
    before it sizes the beta pair.  Every test gives one message, so the
    order never changes the verdict."""
    sign = -1.0 if side == INTERIOR else 1.0
    apart = _alpha_pair_apart(base_radius, alpha, alpha_p, sign, rho1, rho1_p)
    if apart is None:
        return "the two pairs cross or touch"
    x1, y1, x1p, y1p = apart
    touch = 1.0 + CONFIG_TOL
    d = base_radius + sign * rho2
    x2, y2 = d * math.cos(beta), d * math.sin(beta)
    d = base_radius + sign * rho2_p
    x2p, y2p = d * math.cos(beta_p), d * math.sin(beta_p)
    if (math.hypot(x1 - x2p, y1 - y2p) <= (rho1 + rho2_p) * touch
            or math.hypot(x2 - x1p, y2 - y1p) <= (rho2 + rho1_p) * touch
            or math.hypot(x2 - x2p, y2 - y2p) <= (rho2 + rho2_p) * touch):
        return "the two pairs cross or touch"
    return None


def nested_arc_inequality(cfg: ArcPairConfig) -> bool:
    """True when the inner pair's gap arc is strictly shorter than both
    flanking arcs of the outer pair; InvalidConfig when ``cfg`` is not a
    valid configuration."""
    fault = _arc_pair_fault(*cfg)
    if fault is not None:
        raise InvalidConfig(fault)
    _, alpha, beta, alpha_p, beta_p = cfg[:5]
    inner = beta_p - alpha_p
    return inner < alpha_p - alpha and inner < beta - beta_p


def _check_side(side: str) -> None:
    if side not in (INTERIOR, EXTERIOR):
        raise DomainError(f"side must be {INTERIOR} or {EXTERIOR}, got {side!r}")


def _pair_radius(span: float, side: str) -> float:
    """``symmetric_pair_radius`` for a span and side already checked."""
    h = math.sin(0.5 * span)
    return h / (1.0 + h) if side == INTERIOR else h / (1.0 - h)


def symmetric_pair_radius(span: float, side: str) -> float:
    """Radius of the equal-size tangent pair touching the unit base circle
    at two points ``span`` apart (the smallest the larger pair member can
    be); ``span`` must lie in (0, pi).  With h = sin(span/2) it is h/(1+h)
    on the INTERIOR side and h/(1-h) on the EXTERIOR side."""
    if not (0.0 < span < math.pi):
        raise DomainError(f"span must lie strictly between 0 and pi, got {span!r}")
    _check_side(side)
    return _pair_radius(span, side)


def sample_arc_pair_config(rng: random.Random, side: str) -> ArcPairConfig:
    """Rejection-sample a valid configuration with unit base circle.

    The inner pair's touch points must sit strictly between the outer
    pair's, so the inner span is drawn below the flanking gaps; both pair
    radii start from the symmetric-pair size with a log-uniform jitter.
    A candidate's numbers are all drawn before it is tested, so the order
    of the tests never changes the draws.  The alpha pair's crossing test
    needs no mate radius and refuses most candidates, so it runs before
    the mate radii make each pair tangent; then the other crossings, the
    last test ``nested_arc_inequality`` runs.  Only the accepted candidate
    becomes an ``ArcPairConfig``.  An unknown ``side`` raises DomainError,
    and InvalidConfig follows ``SAMPLE_TRIES`` rejections.
    """
    _check_side(side)
    mate = inner_mate_radius if side == INTERIOR else outer_mate_radius
    sign = -1.0 if side == INTERIOR else 1.0
    # rng.uniform(a, b) is a + (b - a) * rng.random(), written out
    uniform = rng.random
    for _ in range(SAMPLE_TRIES):
        span = 0.5 + (math.pi - 0.05 - 0.5) * uniform()
        g1 = (0.2 + (0.4 - 0.2) * uniform()) * span
        gap_cap = min(g1, (0.2 + (0.4 - 0.2) * uniform()) * span)
        inner_span = (0.15 + (0.75 - 0.15) * uniform()) * gap_cap
        # span lies in [0.5, pi - 0.05]; g1 <= 0.4 * span and inner_span <=
        # 0.3 * span, so the flanking gap span - g1 - inner_span is at least
        # 0.15, and inner_span is at least 0.015.  A pair radius is then
        # positive, and below 0.5 * e**0.25 < 1 on the INTERIOR side; the
        # mate radii are positive wherever the mate formulas do not raise.
        rho1 = _pair_radius(span, side) * math.exp(-0.25 + 0.5 * uniform())
        rho1_p = _pair_radius(inner_span, side) * math.exp(-0.25 + 0.5 * uniform())
        if _alpha_pair_apart(1.0, 0.0, g1, sign, rho1, rho1_p) is None:
            continue
        try:
            rho2 = mate(1.0, rho1, span)
            rho2_p = mate(1.0, rho1_p, inner_span)
        except DomainError:
            continue
        fields = (1.0, 0.0, span, g1, g1 + inner_span, side,
                  rho1, rho2, rho1_p, rho2_p)
        if _crossing_fault(*fields) is None:
            return ArcPairConfig(*fields)
    raise InvalidConfig(f"no valid configuration after {SAMPLE_TRIES} tries")


# -- gadget attachment infeasibility ---------------------------------------------


class InfeasibilityReport(NamedTuple):
    """``gadget_arc_infeasibility``'s count: ``tested`` partial
    placements, of which none is feasible, so ``feasible_found`` is False."""

    feasible_found: bool
    tested: int
    phi: float
    grid: int


def gadget_arc_infeasibility(phi: float, grid: int) -> InfeasibilityReport:
    """Show that no eight-point attachment placement fits on an arc.

    Grid angles z1 < ... < z8 within an arc of angle ``phi`` would have to
    meet the strict arc inequalities the nested tangent pairs force on the
    pairing (z1,z6), (z2,z5), (z3,z8), (z4,z7).  By (b) z6-z5 > z5-z2,
    (c) z7-z4 < z4-z3 and z6 < z7, with z2 < z3 < z4 < z5:
    z6 < z7 < 2*z4 - z3 <= 2*z5 - z2 - 3 < z6, so none exists.  ``tested``
    counts the partial placements that the branch-and-bound enumerates.
    ``grid`` must be an int (not a bool) of at least 8.

    The count is summed over z1 in closed form.  The search takes each z5
    in [z2 + 3, min(k, G - 3)], k = 2*z2 - z1 - 1 the most (a) allows, and
    each z6 in [2*z5 - z2 + 1, G - 2], cut at once by the chain above.  So
    with c = G - 7 - z2 and j = min(k, C) - z2 - 2 it takes j z5 (C = G - 3)
    and j*(c - j) z6 (C = z2 + 2 + c//2, an arithmetic series over z5).  As
    z1 runs over [0, z2), k takes each value in [z2, 2*z2 - 1] once, and
    the z2 - 3 from z2 + 3 up give j = 1, ..., n, then n for each k above
    C: arithmetic and square-pyramidal series, O(grid) steps in all.
    """
    if not (0.0 < phi < math.pi):
        raise DomainError("phi must lie strictly between 0 and pi")
    if not isinstance(grid, int) or isinstance(grid, bool):
        raise DomainError(f"grid must be an integer, got {grid!r}")
    if grid < 8:
        raise DomainError("grid must allow at least 8 distinct angles")

    G = grid
    tested = 0
    # all constraints scale with phi/grid, so pure index arithmetic is exact:
    #   (a) z5-z2 < z2-z1   (b) z6-z5 > z5-z2
    #   (c) z7-z4 < z4-z3   (d) z8-z7 > z7-z4
    for z2 in range(4, G - 5):
        ks = z2 - 3  # the k in [z2 + 3, 2*z2 - 1]
        c = G - 7 - z2
        n = min(ks, c + 2)  # z5 nodes
        tested += n * (n + 1) // 2 + (ks - n) * n
        n = max(0, min(ks, c // 2))  # z6 nodes
        tested += (n * (n + 1) * (3 * c - 2 * n - 1) // 6
                   + (ks - n) * n * (c - n))
    return InfeasibilityReport(
        feasible_found=False, tested=tested, phi=phi, grid=grid
    )


# -- Descartes identity -----------------------------------------------------------


def descartes_check(c1: Circle, c2: Circle, c3: Circle, c4: Circle) -> float:
    """Relative residual of the four-tangent-circles curvature identity.

    A circle that encloses the others through internal tangencies gets a
    negative curvature.  Raises DomainError when a radius is not a positive
    finite number, and NotTangent when some pair is neither externally nor
    internally tangent within ``DESCARTES_TOL``.
    """
    circles = (c1, c2, c3, c4)
    for i, c in enumerate(circles):
        if not (isinstance(c.r, (int, float)) and 0.0 < c.r < math.inf):
            raise DomainError(f"circle {i} has radius {c.r!r}; need a "
                              "positive finite number")
    enclosing = set()
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = circles[i], circles[j]
            kind = _tangency(a, b, DESCARTES_TOL)
            if kind is None:
                d = math.hypot(a.cx - b.cx, a.cy - b.cy)
                raise NotTangent(
                    f"circles {i} and {j}: center distance {d!r} matches "
                    "neither external nor internal tangency"
                )
            if kind == "internal":
                enclosing.add(i if a.r > b.r else j)
    if len(enclosing) > 1:
        raise NotTangent("more than one enclosing circle")
    # in units of the least radius, curvature squares never under/overflow
    r_min = min(c.r for c in circles)
    curvatures = [
        (-r_min if i in enclosing else r_min) / circles[i].r for i in range(4)
    ]
    s = sum(curvatures)
    q = sum(k * k for k in curvatures)
    lhs = s * s
    rhs = 2.0 * q
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))
