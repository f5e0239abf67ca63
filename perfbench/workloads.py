"""The three benchmark workloads: seeded inputs, ops and their known answers.

Each workload has ``setup(cs, seed)``, which returns the inputs and a digest
of them, and ``run_pass(cs, inputs, seed, p)``, which runs every op once
through ``p.op``.  ``cs`` is the imported package; the seed reaches it only
through the inputs built here.  Relabelled copies of systems the package
generates during a pass are made between ops, outside the op timers and
outside every span.
"""

import hashlib
import inspect
import itertools
import math
import random

# A verdict that runs longer than this many reference loops (``run.py``;
# 25-75 ms each on a shared 2-vCPU container) counts as failed.  The loop
# time is the median of the pass's samples so far, three of them taken at
# the start of the pass, so one noisy sample cannot move it.  Measured in
# those units (with a 600-sweep loop, rescaled to the 1500 sweeps used here)
# on 40 seeds, relabelled-copy verdicts took at most 3.4 for
# flower(5), and either under 0.4 or over 8 for flower(6); flower(7), (8)
# and upper_bound_family(32), (64) never finished in 2 s.  The limit sits in
# the gap, so the same ops time out on every pass of a seed.
VERDICT_LIMIT_REFS = 6

MEDIAL_RUNGS = 4  # icosahedron medials n = 30, 60, 120, 240
FLOWERS = range(3, 9)
COIN_FAMILIES = (4, 8, 16, 32, 64, 80)
ARC_SAMPLES = 20_000
ARC_PHIS = 12
ARC_GRID = 100


def _rng(seed, label):
    return random.Random(f"{seed}/{label}")


def relabel_graph(cs, g, rng):
    """Same plane graph with permuted vertex ids and each rotation list
    started at a random neighbour.  Built by the unwrapped constructor, so
    a traced pass records no span for it."""
    lists = g.to_neighbor_lists()
    perm = list(range(len(lists)))
    rng.shuffle(perm)
    new = [None] * len(lists)
    for v, row in enumerate(lists):
        k = rng.randrange(len(row))
        new[perm[v]] = [perm[w] for w in row[k:] + row[:k]]
    return inspect.unwrap(cs.embedding.build_embedding)(new)


def relabel_realization(cs, r, rng):
    """Same system of circles with circles, points and arcs reordered."""
    rz = cs.realization
    pc, pp, pa = (list(range(len(xs))) for xs in (r.circles, r.points, r.arcs))
    for perm in (pc, pp, pa):
        rng.shuffle(perm)
    circles, points, arcs = [None] * len(pc), [None] * len(pp), [None] * len(pa)
    for i, c in enumerate(r.circles):
        circles[pc[i]] = c
    for i, q in enumerate(r.points):
        points[pp[i]] = rz.RealPoint(q.x, q.y, (pc[q.on[0]], pc[q.on[1]]), q.kind)
    for i, a in enumerate(r.arcs):
        arcs[pa[i]] = rz.Arc(pc[a.circle], a.from_angle, a.to_angle, a.edge)
    return rz.Realization(circles, points, arcs)


def _digest(*values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _json_round_trip(cs, r):
    text = cs.jsonio.serialize_realization(r)
    return text, cs.jsonio.serialize_realization(cs.jsonio.parse_any(text))


def _verify_ops(cs, p, name, r, g):
    """verify against the graph, then the JSON round trip; both on ``r``."""
    p.record(name, [c.r for c in r.circles])
    p.op(f"{name} verify", cs.realization.verify_realization, r, g,
         check=lambda rep: rep.passed)
    texts = p.op(f"{name} json", _json_round_trip, cs, r,
                 check=lambda t: t[0] == t[1])
    if texts:
        p.record(texts[0])


# -- medial_ladder ---------------------------------------------------------------


def medial_setup(cs, seed):
    g = cs.generators.icosahedron()
    ladder = []
    for _ in range(MEDIAL_RUNGS):
        g = cs.embedding.medial(g)
        ladder.append(relabel_graph(cs, g, _rng(seed, f"medial{g.n}")))
    return ladder, _digest([h.to_neighbor_lists() for h in ladder])


def medial_pass(cs, ladder, seed, p):
    for g in ladder:
        name = f"medial(n={g.n})"
        r = p.op(f"{name} realize", cs.realization.realize, g)
        if r is None:
            p.skip([f"{name} verify", f"{name} json"], "realize failed")
            continue
        _verify_ops(cs, p, name, r, g)


# -- extremal_verdicts -----------------------------------------------------------


def extremal_setup(cs, seed):
    eq, gen = cs.equivalence, cs.generators
    classes = [
        (kind, relabel_realization(cs, gen.canonical_octahedron_realization(kind),
                                   _rng(seed, kind.name)))
        for kind in eq.RealizationClass
    ]
    systems = [("flower", c) for c in FLOWERS]
    systems += [("upper_bound_family", c) for c in COIN_FAMILIES]
    inputs = {"systems": systems, "classes": classes}
    return inputs, _digest(systems, [(k.name, r) for k, r in classes])


def extremal_pass(cs, inputs, seed, p):
    eq, gen, rz = cs.equivalence, cs.generators, cs.realization
    for family, c in inputs["systems"]:
        name = f"{family}({c})"
        out = p.op(f"{name} generate", getattr(gen, family), c)
        if out is None:
            p.skip([f"{name} {step}" for step in ("verify", "equivalent", "json", "svg")],
                   "generate failed")
            continue
        g, r = out
        copy = relabel_realization(cs, r, _rng(seed, name))
        _verify_ops(cs, p, name, r, g)
        p.op(f"{name} equivalent", eq.equivalent, r, copy,
             check=lambda v: v is True, limit_refs=VERDICT_LIMIT_REFS)
        svg = p.op(f"{name} svg", cs.svgrender.render_svg, r,
                   check=lambda s: s.startswith("<svg") and s.rstrip().endswith("</svg>"))
        if svg:
            p.record(svg)

    classes = inputs["classes"]
    for kind, r in classes:
        p.op(f"classify({kind.name})", eq.classify_octahedron, r,
             check=lambda k, kind=kind: k is kind, limit_refs=VERDICT_LIMIT_REFS)
    for (ka, ra), (kb, rb) in itertools.combinations(classes, 2):
        p.op(f"equivalent({ka.name},{kb.name})", eq.equivalent, ra, rb,
             check=lambda v: v is False, limit_refs=VERDICT_LIMIT_REFS)

    for kind, level in ((gen.GADGET, 1), (gen.BIGADGET, 2)):
        name = f"augment_octahedron({kind})"
        g = p.op(f"{name} generate", gen.augment_octahedron, kind)
        if g is None:
            p.skip([f"{name} realize", f"{name} connectivity"], "generate failed")
            continue
        h = relabel_graph(cs, g, _rng(seed, name))
        p.op(f"{name} realize", rz.realize, h, raises=cs.errors.NotThreeConnected)
        p.op(f"{name} connectivity", cs.embedding.connectivity_level, h,
             check=lambda k, level=level: k == level)


# -- arc_oracles -----------------------------------------------------------------


def arc_setup(cs, seed):
    rng = _rng(seed, "arc")
    streams = {side: rng.getrandbits(64) for side in (cs.geometry.INTERIOR,
                                                      cs.geometry.EXTERIOR)}
    phis = [rng.uniform(0.01, math.pi - 0.01) for _ in range(ARC_PHIS)]
    inputs = {"streams": streams, "phis": phis}
    return inputs, _digest(sorted(streams.items()), phis)


def _sample_pair(geo, rng, side):
    cfg = geo.sample_arc_pair_config(rng, side)
    return cfg, geo.nested_arc_inequality(cfg)


def arc_pass(cs, inputs, seed, p):
    geo = cs.geometry
    sides = list(inputs["streams"].items())
    rngs = [(side, random.Random(s)) for side, s in sides]
    for i in range(ARC_SAMPLES):
        side, rng = rngs[i % len(rngs)]
        out = p.op(f"arc sample {i} {side}", _sample_pair, geo, rng, side,
                   check=lambda t: t[1] is True)
        if out:
            cfg = out[0]
            p.record(cfg.beta, cfg.alpha_p, cfg.beta_p,
                     cfg.rho1, cfg.rho2, cfg.rho1_p, cfg.rho2_p)
    for phi in inputs["phis"]:
        rep = p.op(f"gadget_arc_infeasibility(phi={phi!r})", geo.gadget_arc_infeasibility,
                   phi, ARC_GRID, check=lambda rep: rep.feasible_found is False)
        if rep:
            p.record(rep.tested)


WORKLOADS = {
    "medial_ladder": (medial_setup, medial_pass),
    "extremal_verdicts": (extremal_setup, extremal_pass),
    "arc_oracles": (arc_setup, arc_pass),
}
