"""The records' public API: named tuples with the fields, in the order,
that positional construction and the pinned reprs rely on."""

import pathlib
import subprocess
import sys

import pytest

import circlesystems
from circlesystems.coloring import ILGraph, SimplicityReport, TwoColoring
from circlesystems.equivalence import OrientedDual
from circlesystems.generators import GadgetFragment
from circlesystems.geometry import ArcPairConfig, InfeasibilityReport
from circlesystems.packing import Circle, Packing, Triangulation
from circlesystems.realization import (
    Arc,
    BoundsResult,
    RealPoint,
    Realization,
    VerifyReport,
)
from circlesystems.svgrender import RenderOptions

RECORDS = [
    (Circle, ("cx", "cy", "r")),
    (Triangulation, ("base", "boundary_face", "corners", "degrees")),
    (Packing, ("circles", "residual", "iterations")),
    (RealPoint, ("x", "y", "on", "kind")),
    (Arc, ("circle", "from_angle", "to_angle", "edge")),
    (Realization, ("circles", "points", "arcs")),
    (BoundsResult, ("n", "lower", "upper")),
    (VerifyReport, ("violations", "circle_count", "point_count")),
    (ArcPairConfig, ("base_radius", "alpha", "beta", "alpha_p", "beta_p",
                     "side", "rho1", "rho2", "rho1_p", "rho2_p")),
    (InfeasibilityReport, ("feasible_found", "tested", "phi", "grid")),
    (TwoColoring, ("colors",)),
    (ILGraph, ("graph", "gray_faces", "vertex_gray_pair")),
    (SimplicityReport, ("simple", "multi_pairs", "selfloop_faces")),
    (OrientedDual, ("nodes", "edges", "outer")),
    (GadgetFragment, ("graph", "endpoints", "skeleton")),
    (RenderOptions, ("width", "height", "show_circles", "show_points",
                     "show_arcs", "show_labels", "shade_gray")),
]

# records that hold lists, so that a real one cannot be hashed
LIST_HOLDERS = (Realization, VerifyReport)


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_api(cls, fields):
    assert cls._fields == fields
    values = [1.5 * i for i in range(len(fields))]
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert [getattr(record, f) for f in fields] == values
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1.0)
    if cls not in LIST_HOLDERS:
        assert hash(cls(*[v + 0.0 for v in values])) == hash(record)


def test_verify_reports_do_not_share_their_violations():
    # a NamedTuple default is one shared object, so verify_realization
    # gives each report a list of its own
    empty = Realization([], [], [])
    first = circlesystems.verify_realization(empty)
    second = circlesystems.verify_realization(empty)
    assert first.violations and first.violations == second.violations
    assert first.violations is not second.violations


def test_importing_the_package_loads_no_dataclasses():
    # -S keeps site hooks from importing modules before the package does
    src = pathlib.Path(circlesystems.__file__).parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import circlesystems, circlesystems.cli; "
            "print(circlesystems.__file__); print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    where, loaded = out.stdout.split()
    assert pathlib.Path(where) == pathlib.Path(circlesystems.__file__)
    assert loaded == "False"
