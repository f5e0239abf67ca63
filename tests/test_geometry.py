import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from circlesystems import geometry
from circlesystems.errors import DomainError, InvalidConfig, NotTangent
from circlesystems.geometry import (
    CONFIG_TOL,
    EXTERIOR,
    INTERIOR,
    SAMPLE_TRIES,
    ArcPairConfig,
    _arc_pair_fault,
    descartes_check,
    gadget_arc_infeasibility,
    inner_mate_radius,
    nested_arc_inequality,
    outer_mate_radius,
    outer_phi_max,
    sample_arc_pair_config,
    symmetric_pair_radius,
)
from circlesystems.packing import Circle

from conftest import (
    arc_pair_check,
    bisected_symmetric_pair_radius,
    build_inner_configuration,
    build_outer_configuration,
    gadget_double_sum,
    gadget_search,
    tangency_residual,
)


def test_inner_mate_values():
    assert inner_mate_radius(1.0, 0.5, math.pi) == pytest.approx(0.5, abs=1e-15)
    assert inner_mate_radius(1.0, 0.5, math.pi / 2) == pytest.approx(1 / 3, abs=1e-15)
    assert inner_mate_radius(1.0, 0.5, 1e-8) < 1e-7
    # r1 * r2 would overflow; in units of r1 nothing does
    r = inner_mate_radius(1.5e308, 1.0, 1.0)
    assert math.isfinite(r)
    assert r == pytest.approx(1.5e308, rel=1e-15)


def test_inner_mate_domain():
    with pytest.raises(DomainError):
        inner_mate_radius(1.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        inner_mate_radius(1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        inner_mate_radius(1.0, 0.5, math.pi + 0.1)


def test_outer_mate_values():
    assert outer_mate_radius(1.0, 1.0, math.pi / 3) == pytest.approx(1.0, abs=1e-12)
    assert outer_mate_radius(1.0, 1.0, 1e-8) < 1e-7
    # in units of r1: r1 * r2 would overflow, r2 / r1 does not
    assert outer_mate_radius(1e308, 1e308, 0.1) == pytest.approx(
        1e308 * (1.0 / math.cos(0.1) - 1.0), rel=1e-12)
    # r2 / r1 overflows: the limit r1 tan(phi / 2)**2
    assert outer_mate_radius(1e-300, 1e300, 1.0) == pytest.approx(
        1e-300 * math.tan(0.5) ** 2, rel=1e-15)


def test_outer_mate_domain():
    with pytest.raises(DomainError):
        outer_mate_radius(1.0, 1.0, math.pi / 2)
    with pytest.raises(DomainError):
        outer_mate_radius(1.0, 1.0, 2.0)
    # the radius is about 3.7e315
    with pytest.raises(DomainError, match="float range"):
        outer_mate_radius(1e308, 1e308, 1.5707963)


@pytest.mark.parametrize("oracle, args", [
    (outer_mate_radius, (1.0, 1.0, math.nan)),
    (outer_mate_radius, (math.inf, 1.0, 0.5)),
    (outer_phi_max, (math.inf, 1.0)),
    (outer_phi_max, (math.nan, 1.0)),
    (inner_mate_radius, (math.inf, 1.0, 1.0)),
])
def test_oracles_refuse_non_finite_arguments(oracle, args):
    with pytest.raises(DomainError):
        oracle(*args)


def test_phi_max_values():
    assert outer_phi_max(1.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert outer_phi_max(2.0, 2.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert outer_phi_max(3.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-12)
    assert outer_phi_max(1.7e308, 0.5e308) == pytest.approx(math.acos(6.0 / 11.0),
                                                            rel=1e-15)
    assert outer_phi_max(1e-300, 1e300) == math.pi
    assert outer_phi_max(0.37, 0.37) == math.pi / 2
    # r2 / r1 underflows to 0.0, its square root does not
    assert outer_phi_max(1e300, 1e-300) == pytest.approx(
        2e-300, rel=1e-15, abs=0.0)


def test_outer_mate_names_a_positive_degeneration_angle():
    # r2 / r1 underflows to 0.0, yet below the angle bound 2e-300 the mate
    # is finite: q = sin(phi/2)**2 (1 + r1/r2) = 1/400 and r = r1 q/(1 - q)
    assert outer_mate_radius(1e300, 1e-300, 1e-301) == pytest.approx(
        1e300 / 399, rel=1e-12, abs=0.0)
    # beyond it the refusal names the true bound, not 0.0
    with pytest.raises(DomainError) as exc:
        outer_mate_radius(1e300, 1e-300, 3e-300)
    angle = float(str(exc.value).rsplit(" ", 1)[1])
    assert angle == pytest.approx(2e-300, rel=1e-15, abs=0.0)


def test_outer_singularity():
    for r1, r2 in ((1.0, 1.0), (3.0, 1.0), (0.7, 2.2)):
        phi = outer_phi_max(r1, r2) - 1e-9
        assert outer_mate_radius(r1, r2, phi) > 1e6


def _phi_grid(lo, hi, count=1000):
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def test_inner_monotone_on_grid():
    for r1, r2 in ((1.0, 0.5), (2.0, 0.3), (1.0, 0.9)):
        values = [
            inner_mate_radius(r1, r2, phi)
            for phi in _phi_grid(1e-4, math.pi)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_outer_monotone_on_grid():
    for r1, r2 in ((1.0, 1.0), (2.0, 0.7), (0.5, 1.5)):
        hi = outer_phi_max(r1, r2) - 1e-6
        values = [
            outer_mate_radius(r1, r2, phi) for phi in _phi_grid(1e-4, hi)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=1e-3, max_value=math.pi - 1e-3),
)
def test_inner_constructive_residual(r1, frac, phi):
    r2 = r1 * frac
    _, c2, c = build_inner_configuration(r1, r2, phi)
    assert tangency_residual(c2, c) <= 1e-12


@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_outer_constructive_residual(r1, r2, frac):
    phi = outer_phi_max(r1, r2) * frac
    _, c2, c = build_outer_configuration(r1, r2, phi)
    assert tangency_residual(c2, c) <= 1e-12


@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_inner_scale_invariance(scale, phi):
    base = inner_mate_radius(1.0, 0.4, phi)
    scaled = inner_mate_radius(scale, 0.4 * scale, phi)
    assert scaled == pytest.approx(scale * base, rel=1e-12)


def test_arc_inequality_on_samples():
    rng = random.Random(1234)
    for side in (INTERIOR, EXTERIOR):
        for _ in range(500):
            cfg = sample_arc_pair_config(rng, side)
            assert nested_arc_inequality(cfg)
            inner = cfg.beta_p - cfg.alpha_p
            assert (cfg.alpha_p - cfg.alpha) - inner > 1e-12
            assert (cfg.beta - cfg.beta_p) - inner > 1e-12


class _MiddleDraws:
    """An rng whose every draw is 0.5, counting its draws."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.5


@pytest.mark.parametrize("side", [INTERIOR, EXTERIOR])
def test_sampler_gives_up_after_its_tries(side):
    # with every draw in the middle the alpha and alpha' circles cross on
    # both sides, so each candidate is refused after its six draws
    rng = _MiddleDraws()
    with pytest.raises(InvalidConfig,
                       match=f"^no valid configuration after {SAMPLE_TRIES} tries$"):
        sample_arc_pair_config(rng, side)
    assert rng.draws == 6 * SAMPLE_TRIES


def test_sampler_skips_a_candidate_whose_mate_radius_is_refused(monkeypatch):
    # a DomainError from a mate radius refuses that candidate only: the
    # sampler draws the next one and returns it once it passes
    calls = []

    def refuse_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise DomainError("no mate radius")
        return outer_mate_radius(*args)

    monkeypatch.setattr(geometry, "outer_mate_radius", refuse_once)
    cfg = sample_arc_pair_config(random.Random(5), EXTERIOR)
    assert len(calls) > 2
    assert nested_arc_inequality(cfg)


def test_arc_inequality_symmetric_config():
    # mirror-placed pairs leave the inner gap strictly smallest
    rng = random.Random(99)
    cfg = sample_arc_pair_config(rng, INTERIOR)
    inner = cfg.beta_p - cfg.alpha_p
    assert inner < cfg.alpha_p - cfg.alpha
    assert inner < cfg.beta - cfg.beta_p


def test_interior_draw_stream_pinned():
    # 500 seeded INTERIOR draws and the generator's state after them: a
    # sampler change that moves a radius by one rounding, flips an
    # accept/reject decision or draws one random number more or less
    # changes a digest
    rng = random.Random(20250)
    draws = [sample_arc_pair_config(rng, INTERIOR) for _ in range(500)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
        "53ee466bc0823d4207b14d8cfdead1b93701213e902dc8611b2cd44f836730fa")
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
        "ece09638ff6b9bf8ca7b683ffd29cdd286d8a537e00bb0682a33c9b370a5e16c")


def test_exterior_draw_stream_pinned():
    # the EXTERIOR twin of the pin above: it guards the outer_mate_radius
    # path of the sampler at the bit level
    rng = random.Random(20251)
    draws = [sample_arc_pair_config(rng, EXTERIOR) for _ in range(500)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
        "60486eaece0c4e9aea8e11dbf5a2f4d6aec7a6d18dd219e4bce7e20e7b5f6b2c")
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
        "a03a0977f13f109d8f72095357dd409f88c86399b5a53f2a97b95744e54a28d9")


@pytest.mark.parametrize("side", [INTERIOR, EXTERIOR])
def test_sampled_pairs_pass_the_tangency_test_the_sampler_skips(side):
    # the sampler tests its candidates for crossings only: its mate radii
    # make both pairs tangent.  The outer pair's span is the sampler's own
    # argument, so its radius matches exactly; (g1 + inner_span) - g1 is
    # not exactly inner_span, so the inner one matches to a few roundings,
    # far inside CONFIG_TOL
    mate = inner_mate_radius if side == INTERIOR else outer_mate_radius
    rng = random.Random(31)
    for _ in range(5000):
        cfg = sample_arc_pair_config(rng, side)
        assert mate(1.0, cfg.rho1, cfg.beta - cfg.alpha) == cfg.rho2
        inner = mate(1.0, cfg.rho1_p, cfg.beta_p - cfg.alpha_p)
        assert abs(inner - cfg.rho2_p) <= 1e-13 * max(1.0, cfg.rho2_p)
        assert _arc_pair_fault(*cfg) is None


@pytest.mark.parametrize("side, calls", [
    (INTERIOR, {"alpha pair": 1784, "refused": 732, "mate": 1052}),
    (EXTERIOR, {"alpha pair": 1682, "refused": 674, "mate": 1008}),
])
def test_mate_radii_are_sized_only_past_the_alpha_pair(monkeypatch, side, calls):
    # the sampler sizes the beta pair only for a candidate whose alpha pair
    # passed its crossing test.  The alpha-pair test runs once per candidate
    # and again in _crossing_fault for each candidate that reaches it, so
    # about 1.4 candidates a draw are refused without a mate radius
    counts = dict.fromkeys(calls, 0)
    last = {"refused": None}
    alpha_pair_apart = geometry._alpha_pair_apart

    def counted_alpha_pair(*args):
        apart = alpha_pair_apart(*args)
        counts["alpha pair"] += 1
        counts["refused"] += apart is None
        last["refused"] = apart is None
        return apart

    def counted_mate(mate):
        def wrapper(*args):
            assert last["refused"] is False
            counts["mate"] += 1
            return mate(*args)
        return wrapper

    monkeypatch.setattr(geometry, "_alpha_pair_apart", counted_alpha_pair)
    for name in ("inner_mate_radius", "outer_mate_radius"):
        monkeypatch.setattr(geometry, name, counted_mate(getattr(geometry, name)))
    rng = random.Random(47)
    for _ in range(500):
        sample_arc_pair_config(rng, side)
    assert counts == calls


@pytest.mark.parametrize("side", [INTERIOR, EXTERIOR])
@pytest.mark.parametrize("field", ["rho2", "rho2_p"])
@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_a_pair_radius_that_is_not_finite_is_not_tangent(side, field, radius):
    cfg = sample_arc_pair_config(random.Random(3), side)._replace(
        **{field: radius})
    with pytest.raises(InvalidConfig,
                       match=r"^pair radii .* are not mutually tangent$"):
        nested_arc_inequality(cfg)
    assert _check_outcome(arc_pair_check, cfg) == (
        _check_outcome(nested_arc_inequality, cfg))


def _check_outcome(check, cfg):
    """("valid", None) when ``check`` accepts ``cfg``, else the class and
    message of what it raises."""
    try:
        check(cfg)
    except (InvalidConfig, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return "valid", None


# (outer circle, inner circle): which of the two ends of each pair
PAIRS = [(o, i) for o in ("alpha", "beta") for i in ("alpha_p", "beta_p")]


def _touching(cfg, outer, inner, delta):
    """``cfg`` with its inner pair turned about the base center, its span
    kept, until the ``outer`` and ``inner`` circles' center distance is
    (1 + delta) times their radius sum."""
    sign = -1.0 if cfg.side == INTERIOR else 1.0
    radius = {"alpha": cfg.rho1, "beta": cfg.rho2,
              "alpha_p": cfg.rho1_p, "beta_p": cfg.rho2_p}
    ra, rb = radius[outer], radius[inner]
    da, db = 1.0 + sign * ra, 1.0 + sign * rb
    dist = (ra + rb) * (1.0 + delta)
    cos_turn = (da * da + db * db - dist * dist) / (2.0 * da * db)
    turn = math.acos(max(-1.0, min(1.0, cos_turn)))
    at = cfg.alpha + turn if outer == "alpha" else cfg.beta - turn
    span = cfg.beta_p - cfg.alpha_p
    if inner == "alpha_p":
        return cfg._replace(alpha_p=at, beta_p=at + span)
    return cfg._replace(alpha_p=at - span, beta_p=at)


@st.composite
def _arc_pair_candidates(draw):
    """Sampled configurations with one outer/inner circle pair turned to
    within 2 CONFIG_TOL of touching, and candidates of arbitrary numbers."""
    side = draw(st.sampled_from([INTERIOR, EXTERIOR]))
    if draw(st.booleans()):
        cfg = sample_arc_pair_config(
            random.Random(draw(st.integers(0, 2**32 - 1))), side)
        outer, inner = draw(st.sampled_from(PAIRS))
        delta = draw(st.floats(min_value=-2 * CONFIG_TOL,
                               max_value=2 * CONFIG_TOL))
        return _touching(cfg, outer, inner, delta)
    # sorted, the angles are in order: alpha, alpha_p, beta_p, beta
    angles = draw(st.lists(st.floats(min_value=-4.0, max_value=4.0),
                           min_size=4, max_size=4))
    if draw(st.booleans()):
        angles.sort()
    alpha, alpha_p, beta_p, beta = angles
    return ArcPairConfig(
        draw(st.floats(min_value=0.1, max_value=4.0)),
        alpha, beta, alpha_p, beta_p,
        draw(st.sampled_from([side, "BOGUS"])),
        *draw(st.lists(st.floats(min_value=1e-3, max_value=3.0),
                       min_size=4, max_size=4)),
    )


@settings(max_examples=400, deadline=None)
@given(_arc_pair_candidates())
def test_arc_pair_check_agrees_with_the_circle_oracle(cfg):
    assert _check_outcome(nested_arc_inequality, cfg) == (
        _check_outcome(arc_pair_check, cfg))


@pytest.mark.parametrize("side", [INTERIOR, EXTERIOR])
@pytest.mark.parametrize("outer, inner", [("alpha", "alpha_p"), ("beta", "beta_p")])
def test_arc_pair_check_refuses_touching_and_accepts_a_gap(side, outer, inner):
    # the neighbouring circles of the two pairs, turned to touch, are
    # refused up to CONFIG_TOL beyond touching, and kept apart beyond it
    cfg = sample_arc_pair_config(random.Random(5), side)
    for delta, outcome in (
        (-2 * CONFIG_TOL, ("InvalidConfig", "the two pairs cross or touch")),
        (0.0, ("InvalidConfig", "the two pairs cross or touch")),
        (0.5 * CONFIG_TOL, ("InvalidConfig", "the two pairs cross or touch")),
        (2 * CONFIG_TOL, ("valid", None)),
    ):
        turned = _touching(cfg, outer, inner, delta)
        assert _check_outcome(nested_arc_inequality, turned) == outcome
        assert _check_outcome(arc_pair_check, turned) == outcome
    assert nested_arc_inequality(turned) is True


def test_symmetric_interior_radius_matches_closed_form():
    # the equal pair inside the unit circle touching it span apart has
    # radius h/(1+h), h = sin(span/2); the bisection must agree
    for k in range(1, 400):
        span = k * math.pi / 400
        h = math.sin(span / 2.0)
        assert symmetric_pair_radius(span, INTERIOR) == pytest.approx(
            h / (1.0 + h), rel=1e-12, abs=0.0)


def test_symmetric_interior_radius_matches_bisection():
    for k in range(1, 400):
        span = k * math.pi / 400
        assert symmetric_pair_radius(span, INTERIOR) == pytest.approx(
            bisected_symmetric_pair_radius(span), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("side, mate", [
    (INTERIOR, inner_mate_radius),
    (EXTERIOR, outer_mate_radius),
])
def test_symmetric_pair_is_its_own_mate(side, mate):
    for k in range(1, 400):
        span = k * math.pi / 400
        rho = symmetric_pair_radius(span, side)
        assert mate(1.0, rho, span) == pytest.approx(rho, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("side", [INTERIOR, EXTERIOR])
@pytest.mark.parametrize("span", [0.0, -0.5, math.pi, 4.0, math.nan, math.inf])
def test_symmetric_pair_radius_refuses_span_outside_zero_pi(side, span):
    with pytest.raises(DomainError):
        symmetric_pair_radius(span, side)


@pytest.mark.parametrize("side", ["BOGUS", "interior", None])
def test_unknown_side_is_a_domain_error(side):
    with pytest.raises(DomainError):
        symmetric_pair_radius(1.0, side)
    # refused before the first draw, not after max_tries rejections
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(DomainError):
        sample_arc_pair_config(rng, side)
    assert rng.getstate() == state


def test_invalid_order_rejected():
    cfg = ArcPairConfig(
        base_radius=1.0,
        alpha=0.0,
        beta=1.0,
        alpha_p=1.2,
        beta_p=1.4,
        side=INTERIOR,
        rho1=0.1,
        rho2=0.1,
        rho1_p=0.05,
        rho2_p=0.05,
    )
    with pytest.raises(InvalidConfig):
        nested_arc_inequality(cfg)


def test_wide_span_rejected():
    cfg = ArcPairConfig(
        base_radius=1.0,
        alpha=0.0,
        beta=3.3,
        alpha_p=1.0,
        beta_p=1.1,
        side=INTERIOR,
        rho1=0.1,
        rho2=0.1,
        rho1_p=0.05,
        rho2_p=0.05,
    )
    with pytest.raises(InvalidConfig):
        nested_arc_inequality(cfg)


@pytest.mark.parametrize("phi", [1.0, 2.0, 3.0, 3.14])
def test_gadget_infeasibility(phi):
    report = gadget_arc_infeasibility(phi, 60)
    assert report.feasible_found is False
    assert report.tested > 0


def test_gadget_infeasibility_domain():
    with pytest.raises(DomainError):
        gadget_arc_infeasibility(3.5, 60)
    with pytest.raises(DomainError):
        gadget_arc_infeasibility(1.0, 4)


@pytest.mark.parametrize("grid", [60.0, True, "60", None, 8.5])
def test_gadget_infeasibility_refuses_a_grid_that_is_not_an_int(grid):
    with pytest.raises(DomainError):
        gadget_arc_infeasibility(1.0, grid)


@pytest.mark.parametrize("phi", [0.3, 1.0, 2.5, 3.1])
def test_gadget_count_matches_the_loop_nest(phi):
    for grid in range(8, 41):
        report = gadget_arc_infeasibility(phi, grid)
        found, tested, witness = gadget_search(phi, grid)
        assert (report.feasible_found, report.tested) == (found, tested)
        assert witness is None
        assert (report.phi, report.grid) == (phi, grid)


def test_gadget_count_matches_the_double_sum():
    for grid in range(8, 401):
        assert gadget_arc_infeasibility(1.0, grid).tested == (
            gadget_double_sum(grid))


@pytest.mark.parametrize("grid, tested", [
    (8, 0), (12, 7), (24, 967), (40, 14791), (60, 102151), (100, 996871),
])
def test_gadget_count_pinned(grid, tested):
    assert gadget_arc_infeasibility(1.0, grid).tested == tested


def test_gadget_cut_fires_on_every_z6():
    # the loop nest's cut z6 + 1 >= z7_cap holds at its least z6, so for
    # every z6: z6_lo + 1 - z7_cap is 5 whatever z2 < z5 < G
    for G in range(8, 61):
        for z5 in range(G):
            for z2 in range(z5):
                z6_lo = z5 + (z5 - z2) + 1
                z7_cap = 2 * (z5 - 1) - (z2 + 1)
                assert z6_lo + 1 - z7_cap == 5


def _brute_force_placements(grid, drop=None):
    """Unpruned enumeration of all ordered 8-tuples; the oracle the pruned
    search must agree with.  ``drop`` removes one constraint by name."""
    import itertools

    hits = 0
    for z in itertools.combinations(range(grid + 1), 8):
        z1, z2, z3, z4, z5, z6, z7, z8 = z
        checks = {
            "a": z5 - z2 < z2 - z1,
            "b": z6 - z5 > z5 - z2,
            "c": z7 - z4 < z4 - z3,
            "d": z8 - z7 > z7 - z4,
        }
        if drop is not None:
            checks.pop(drop)
        if all(checks.values()):
            hits += 1
    return hits


def test_search_agrees_with_brute_force():
    grid = 20
    assert _brute_force_placements(grid) == 0
    assert gadget_arc_infeasibility(2.0, grid).feasible_found is False


def test_brute_force_enumeration_not_vacuous():
    # with one pairing constraint dropped, placements do exist, so the empty
    # result of the full search is meaningful
    assert _brute_force_placements(20, drop="c") > 0


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e100, 1e200])
def test_descartes_closed_form(scale):
    # the squared curvatures of circles this small or large under- or
    # overflow; the identity is scale-free, and so must the residual be
    s3 = math.sqrt(3.0)

    def circle(x, y, r):
        return Circle(x * scale, y * scale, r * scale)

    units = [circle(0, 0, 1.0), circle(2, 0, 1.0), circle(1, s3, 1.0)]
    inner = circle(1.0, s3 / 3.0, (2 * s3 - 3) / 3.0)
    assert descartes_check(*units, inner) <= 1e-12
    enclosing = circle(1.0, s3 / 3.0, (2 * s3 + 3) / 3.0)
    assert descartes_check(*units, enclosing) <= 1e-12


def test_descartes_detects_perturbation():
    s3 = math.sqrt(3.0)
    units = [Circle(0, 0, 1.0), Circle(2, 0, 1.0), Circle(1, s3, 1.0)]
    inner = Circle(1.0, s3 / 3.0, (2 * s3 - 3) / 3.0)
    with pytest.raises(NotTangent):
        descartes_check(units[0], units[1], units[2],
                        Circle(inner.cx, inner.cy, inner.r * 1.01))


def test_descartes_refuses_two_enclosing_circles():
    with pytest.raises(NotTangent, match="^more than one enclosing circle$"):
        descartes_check(Circle(0, 0, 3), Circle(2, 0, 1), Circle(1.5, 0, 1.5),
                        Circle(4, 0, 1))


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_descartes_refuses_a_radius_that_is_not_positive_and_finite(r):
    s3 = math.sqrt(3.0)
    units = [Circle(0, 0, 1.0), Circle(2, 0, 1.0), Circle(1, s3, 1.0)]
    with pytest.raises(DomainError):
        descartes_check(*units, Circle(1.0, s3 / 3.0, r))
    with pytest.raises(DomainError):
        descartes_check(Circle(0, 0, r), *units[1:], units[0])


def test_descartes_tolerates_small_error():
    s3 = math.sqrt(3.0)
    units = [Circle(0, 0, 1.0), Circle(2, 0, 1.0), Circle(1, s3, 1.0)]
    inner = Circle(1.0, s3 / 3.0, (2 * s3 - 3) / 3.0 * (1 + 1e-8))
    assert descartes_check(*units, inner) > 1e-9
