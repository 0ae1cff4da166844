"""The integer closure, torus fixed points, orbit split and torus table, and
the class lookup of inverses, against the Fraction loops and the conjugacy
scan they replaced, kept here as the reference.

Generated groups reach rotation orders 3 and 6, which no fixture has: a
hexagonal lattice has no rational basis, but a torus action takes its Gram
matrix directly.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbindex.cli import FIXTURE_DIR, load_model, parse_model
from orbindex.engine import _inverse_class_labels
from orbindex.errors import StructuralError
from orbindex.groups import (
    AffineIsometry,
    CrystGroup,
    IDENTITY_MAT,
    FixedSetDescriptor,
    close_mod_lattice,
    fixed_set,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    orbits_mod_lattice,
    vec_add,
    vec_frac,
)
from orbindex.sectors import (
    BundleSpec,
    QuotientModel,
    TorusAction,
    wallpaper_model,
)


def _powers(a):
    out, cur = [IDENTITY_MAT], a
    while cur != IDENTITY_MAT:
        out.append(cur)
        cur = mat_mul(cur, a)
    return out


# point parts of orders 1, 2, 4 on the square lattice and 1, 2, 3, 6 on the
# hexagonal one, each with a Gram matrix it preserves
FAMILIES = {
    "square": (_powers(((0, -1), (1, 0))), mat([[1, 0], [0, 1]])),
    "hexagonal": (_powers(((1, -1), (1, 0))), mat([[2, -1], [-1, 2]])),
}


# -- the Fraction loops that the integer route replaced ---------------------

def ref_mod_lattice(g):
    return AffineIsometry(g.point_part, vec_frac(g.translation))


def ref_close_mod_lattice(generators):
    elems = [AffineIsometry.identity()]
    seen = set(elems)
    for cur in elems:
        for g in generators:
            nxt = ref_mod_lattice(g.compose(cur))
            if nxt not in seen:
                if len(elems) >= 256:
                    raise StructuralError(
                        "group closure modulo the lattice exceeds the finite cap")
                seen.add(nxt)
                elems.append(nxt)
    return tuple(elems)


def ref_torus_fixed_set(g):
    a, t = g.point_part, g.translation
    m = mat_sub(IDENTITY_MAT, a)
    n = abs(int(mat_det(m)))
    minv = mat_inv(m)
    pts = {vec_frac(mat_vec(minv, vec_add(t, (Fraction(p), Fraction(q)))))
           for p in range(n) for q in range(n)}
    return FixedSetDescriptor("points", tuple(sorted(pts)))


def ref_orbit_decompose(points, elems):
    remaining = list(points)
    out = []
    while remaining:
        p = remaining[0]
        images = [vec_frac(z.apply(p)) for z in elems]
        orbit = set(images)
        out.append((p, Fraction(1, images.count(p)), len(orbit)))
        remaining = [q for q in remaining if q not in orbit]
    return out


def ref_torus_table(isometries):
    index = {g: i for i, g in enumerate(isometries)}
    return tuple(tuple(index[ref_mod_lattice(a.compose(b))] for b in isometries)
                 for a in isometries)


def ref_inverse_class_labels(model):
    handles = {}
    for c in model.sectors:
        handles.setdefault(c.label, c.class_handle)
    out = {}
    for label, handle in handles.items():
        rep = handle.representative
        inv = rep.inverse() if isinstance(model.group, CrystGroup) \
            else model.group.table.inv(rep)
        out[label] = next((lab for lab, h in handles.items() if h.contains(inv)), None)
    return out


def _orbit_decompose(points, elems):
    """The integer orbit split in the reference's shape: (first point,
    1 / |stabilizer|, orbit size) per orbit, the weight by orbit-stabilizer."""
    return [(p, Fraction(len(orbit), len(elems)), len(orbit))
            for p, orbit in orbits_mod_lattice(points, elems)[1]]


def _orbit_points(points, elems):
    """Each orbit's points mod Z^2, from the integer images over D."""
    den, orbits = orbits_mod_lattice(points, elems)
    return [{vec_frac((Fraction(x, den), Fraction(y, den))) for x, y in orbit}
            for _, orbit in orbits]


# -- generated groups --------------------------------------------------------

# translations with denominators 1 to 12 and entries of either sign
TRANSLATION = st.tuples(*[st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))] * 2)


@st.composite
def generators(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    parts, gram = FAMILIES[family]
    gens = draw(st.lists(st.tuples(st.sampled_from(parts), TRANSLATION),
                         min_size=1, max_size=3))
    return [AffineIsometry.of(a, t) for a, t in gens], gram


def _closure_or_error(close, gens):
    try:
        return close(gens)
    except StructuralError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=generators())
def test_closure_matches_the_fraction_reference(case):
    gens, _ = case
    got = _closure_or_error(close_mod_lattice, gens)
    assert got == _closure_or_error(ref_close_mod_lattice, gens)
    if not isinstance(got, str):
        assert all(type(x) is Fraction for g in got for x in g.translation)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from([a for parts, _ in FAMILIES.values() for a in parts[1:]]),
       t=TRANSLATION)
def test_torus_fixed_points_match_the_fraction_reference(a, t):
    g = AffineIsometry.of(a, t)
    got = fixed_set(g, torus=True)
    assert got == ref_torus_fixed_set(g)
    assert len(got.points) == mat_det(mat_sub(IDENTITY_MAT, a))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=generators())
def test_orbits_and_table_match_the_fraction_reference(case):
    gens, gram = case
    try:
        action = TorusAction(gens, gram)
    except StructuralError:
        return          # over the cap: the closure test compares the refusal
    if len(action.isometries) > 72:
        return          # the Fraction table would take seconds
    elems = action.isometries
    assert action.table.product == ref_torus_table(elems)
    for g in elems:
        if g.point_part != IDENTITY_MAT:
            points = fixed_set(g, torus=True).points
            assert _orbit_decompose(points, elems) == ref_orbit_decompose(points, elems)
            assert _orbit_points(points, elems) == [
                {vec_frac(z.apply(p)) for z in elems}
                for p, _, _ in ref_orbit_decompose(points, elems)]
    model = QuotientModel(action, BundleSpec())
    assert _inverse_class_labels(model) == ref_inverse_class_labels(model)


# -- inverse classes on plane groups, every fixture and the large lattices ---

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(FAMILIES["square"][0][1:]), t=TRANSLATION)
def test_plane_inverse_classes_match_the_conjugacy_scan(a, t):
    # a square-lattice rotation about shifted centres, with the unit translations
    gens = [AffineIsometry.of(a, t), AffineIsometry.of(IDENTITY_MAT, (1, 0)),
            AffineIsometry.of(IDENTITY_MAT, (0, 1))]
    model = wallpaper_model(CrystGroup([[1, 0], [0, 1]], gens), "plane")
    assert _inverse_class_labels(model) == ref_inverse_class_labels(model)


def _large_lattice(name, lattice):
    doc = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    doc["group"]["lattice"] = lattice
    return parse_model(doc, f"{name}_large")


def _half_shift_torus():
    """The half turn and the translation by (1/2, 0) on the unit torus: two
    half-turn classes, labelled r1 and r1_1."""
    doc = json.loads((FIXTURE_DIR / "t2_z2.json").read_text())
    doc["group"]["generators"].append({"matrix": [[1, 0], [0, 1]], "translation": ["1/2", "0"]})
    return parse_model(doc, "t2_z2_half_shift")


INVERSE_LABEL_MODELS = {
    **{p.stem: (lambda p=p: load_model(p)) for p in sorted(FIXTURE_DIR.glob("*.json"))},
    "p4_large": lambda: _large_lattice("p4", [["3", "0"], ["0", "3"]]),
    "p2_large": lambda: _large_lattice("p2", [["2", "0"], ["0", "3"]]),
    "t2_z2_half_shift": _half_shift_torus,
}


@pytest.mark.parametrize("name", INVERSE_LABEL_MODELS)
def test_inverse_class_labels_match_the_conjugacy_scan(name):
    model = INVERSE_LABEL_MODELS[name]()
    want = ref_inverse_class_labels(model)
    assert None not in want.values()
    assert _inverse_class_labels(model) == want
