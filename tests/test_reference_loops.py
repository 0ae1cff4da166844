"""The integer closure, torus fixed points, orbit split and torus table, the
class and sector tables built from the closure's integer pairs, and the
class lookup of inverses, against the Fraction loops and the conjugacy scan
they replaced, kept here as the reference.

Generated groups reach rotation orders 3 and 6, which no fixture has: a
hexagonal lattice has no rational basis, but a torus action takes its Gram
matrix directly.  Generated plane groups are p2 and p4 in a basis B U, U in
GL_2(Z), with the origin shifted by a rational vector and with redundant
generators.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbindex.cli import FIXTURE_DIR, load_model, parse_model
from orbindex.engine import _inverse_class_labels, equivariant_lefschetz, point_term
from orbindex.errors import StructuralError
from orbindex.groups import (
    AffineIsometry,
    CrystGroup,
    IDENTITY_MAT,
    FixedSetDescriptor,
    centralizer,
    enumerate_classes_finite,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    orbit_split,
    over_denominator,
    torus_fixed_points,
    vec_add,
    vec_frac,
    vec_mod,
    vec_over,
)
from orbindex.sectors import (
    BundleSpec,
    QuotientModel,
    TorusAction,
    cryst_fixed_classes,
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


def _torus_fixed_set(g):
    """The fixed points of a rotation g on the torus mod Z^2, by the integer
    routine that replaced `ref_torus_fixed_set`."""
    den, (u,) = over_denominator([g.translation])
    big, points = torus_fixed_points(g.point_part, u, den)
    return FixedSetDescriptor("points", tuple(vec_over(x, big) for x in points))


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


def ref_fraction_fixed_points(g):
    """The torus fixed points as the Fraction-valued routine gave them: solved
    over the denominator of g's own translation, returned as Fractions."""
    a, t = g.point_part, g.translation
    m = mat_sub(IDENTITY_MAT, a)
    n = mat_det(m)
    adj = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    den, (u,) = over_denominator([t])
    pts = sorted({vec_mod(mat_vec(adj, (u[0] + den * p, u[1] + den * q)), den * n)
                  for p in range(n) for q in range(n)})
    return tuple((Fraction(x, den * n), Fraction(y, den * n)) for x, y in pts)


def ref_orbits_mod_lattice(points, elems):
    """The Fraction-valued orbit split: points and isometries in, each
    orbit's first point and its images over the common denominator out."""
    den, ints = over_denominator([*points, *(z.translation for z in elems)])
    moves = [(z.point_part, s) for z, s in zip(elems, ints[len(points):])]
    seen = set()
    out = []
    for p, x in zip(points, ints):
        if vec_mod(x, den) in seen:
            continue
        orbit = {}
        for a, s in moves:
            y = vec_add(mat_vec(a, x), s)
            orbit.setdefault(vec_mod(y, den), y)
        seen.update(orbit)
        out.append((p, list(orbit.values())))
    return den, out


def ref_center_tag(p, ordinal):
    fp = vec_frac(p)
    if fp == (0, 0):
        return "origin"
    if fp == (Fraction(1, 2), Fraction(1, 2)):
        return "center"
    if fp in ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))):
        return "edge"
    return f"pt{ordinal}"


def _min_rotation_unit(action):
    return min((t for t in action.turns.values() if t), default=Fraction(1))


def ref_cryst_classes(group):
    """(label, center, weight, representative) per class with a nonempty
    fixed set, by the Fraction routines, sorted by label."""
    out = [("e", None, None, AffineIsometry.identity())]
    point_group = group.torus.isometries
    unit = _min_rotation_unit(group.torus)
    for g in point_group:
        a = g.point_part
        if a == IDENTITY_MAT:
            continue
        power = int(group.torus.turns[a] / unit)
        part_name = f"r{power}" if power > 1 else "r"
        used_tags = {}
        centers = ref_fraction_fixed_points(g)
        for ordinal, (center, orbit) in enumerate(ref_orbits_mod_lattice(centers, point_group)[1]):
            tag = ref_center_tag(center, ordinal)
            if tag in used_tags:
                used_tags[tag] += 1
                tag = f"{tag}{used_tags[tag]}"
            else:
                used_tags[tag] = 1
            rep = AffineIsometry(a, mat_vec(mat_sub(IDENTITY_MAT, a), center))
            out.append((f"{part_name}_{tag}", center, Fraction(len(orbit), len(point_group)), rep))
    out.sort(key=lambda row: row[0])
    return out


def ref_torus_labels(action):
    """Class representative -> label, from the Fraction angles."""
    table = action.table
    labels = {}
    seen = {}
    for h in enumerate_classes_finite(table):
        g, label = h.representative, h.label
        if g != table.identity:
            iso = action.isometries[g]
            if iso.point_part == IDENTITY_MAT:
                t = vec_frac(iso.translation)
                label = f"t{t[0]}_{t[1]}".replace("/", "d")
            else:
                label = f"r{int(action.turns[iso.point_part] / _min_rotation_unit(action))}"
        if label in seen:
            seen[label] += 1
            label = f"{label}_{seen[label]}"
        else:
            seen[label] = 0
        labels[g] = label
    return labels


def ref_sector_rows(model):
    """Every sector component as (label, tag, representative, point, weight,
    orbit size, normal angle, local group order), by the Fraction routines,
    in the order of the sector table."""
    group = model.group
    rows = []
    if isinstance(group, CrystGroup):
        for label, center, weight, rep in ref_cryst_classes(group):
            if center is None:
                rows.append((label, "full", rep, None, None, None, None,
                             group.point_group_order))
            else:
                normal = (-group.torus.turns[rep.point_part]) % 1
                rows.append((label, "p0", rep, center, weight, 1, normal, int(1 / weight)))
        return rows
    table = group.table
    for g, label in ref_torus_labels(group).items():
        iso = group.isometries[g]
        if iso.point_part == IDENTITY_MAT:
            if vec_frac(iso.translation) == (0, 0):
                rows.append((label, "full", g, None, None, None, None, table.order))
            continue
        zc = [group.isometries[z] for z in centralizer(g, table)]
        normal = (-group.turns[iso.point_part]) % 1
        points = ref_fraction_fixed_points(iso)
        for i, (p, orbit) in enumerate(ref_orbits_mod_lattice(points, zc)[1]):
            weight = Fraction(len(orbit), len(zc))
            rows.append((label, ref_center_tag(p, i), g, p, weight, len(orbit), normal,
                         int(1 / weight)))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def sector_rows(model):
    rows = []
    for c in model.sectors:
        geo = None if c.is_full else c.geometry
        rows.append((c.label, c.component_tag, c.class_handle.representative,
                     geo and geo.representative, geo and geo.weight, geo and geo.orbit_size,
                     c.normal_angle_turns, c.local_group_order))
    return rows


def _assert_public_fractions(model):
    """Points, weights, angles and translations handed out are Fractions."""
    for c in model.sectors:
        if not c.is_full:
            values = [*c.geometry.representative, c.geometry.weight, c.normal_angle_turns]
            assert all(type(x) is Fraction for x in values)
    isometries = model.group.torus.isometries if isinstance(model.group, CrystGroup) \
        else model.group.isometries
    assert all(type(x) is Fraction for g in isometries for x in g.translation)


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


def _orbit_split(points, action):
    """The integer orbit split of rational points under a torus action: the
    points over a multiple of the action's denominator, and per orbit its
    first point and its points mod Z^2, as Fractions."""
    den = math.lcm(action.den, *(x.denominator for p in points for x in p))
    ints = [vec_mod(tuple(x.numerator * (den // x.denominator) for x in p), den)
            for p in points]
    return [((Fraction(x[0], den), Fraction(x[1], den)),
             [(Fraction(y[0], den), Fraction(y[1], den)) for y in orbit])
            for x, orbit in orbit_split(ints, action.pairs_over(den), den)]


def _orbit_decompose(points, action):
    """The integer orbit split in the reference's shape: (first point,
    1 / |stabilizer|, orbit size) per orbit, the weight by orbit-stabilizer."""
    return [(p, Fraction(len(orbit), len(action.pairs)), len(orbit))
            for p, orbit in _orbit_split(points, action)]


def _orbit_points(points, action):
    """Each orbit's points mod Z^2."""
    return [set(orbit) for _, orbit in _orbit_split(points, action)]


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
    gens, gram = case
    got = _closure_or_error(lambda gens: TorusAction(gens, gram).isometries, gens)
    assert got == _closure_or_error(ref_close_mod_lattice, gens)
    if not isinstance(got, str):
        assert all(type(x) is Fraction for g in got for x in g.translation)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from([a for parts, _ in FAMILIES.values() for a in parts[1:]]),
       t=TRANSLATION)
def test_torus_fixed_points_match_the_fraction_reference(a, t):
    g = AffineIsometry.of(a, t)
    got = _torus_fixed_set(g)
    assert got == ref_torus_fixed_set(g)
    assert got.points == ref_fraction_fixed_points(g)
    assert len(got.points) == mat_det(mat_sub(IDENTITY_MAT, a))
    # the integer routine over any multiple of t's denominator
    den, (u,) = over_denominator([t])
    big, points = torus_fixed_points(a, (3 * u[0], 3 * u[1]), 3 * den)
    assert tuple((Fraction(x, big), Fraction(y, big)) for x, y in points) == got.points


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
            points = _torus_fixed_set(g).points
            assert _orbit_decompose(points, action) == ref_orbit_decompose(points, elems)
            assert _orbit_points(points, action) == [
                {vec_frac(z.apply(p)) for z in elems}
                for p, _, _ in ref_orbit_decompose(points, elems)]
            den, orbits = ref_orbits_mod_lattice(points, elems)
            assert _orbit_points(points, action) == [
                {vec_frac((Fraction(x, den), Fraction(y, den))) for x, y in orbit}
                for _, orbit in orbits]
    model = QuotientModel(action, BundleSpec())
    assert _inverse_class_labels(model) == ref_inverse_class_labels(model)


# -- class and sector tables from the integer pairs ---------------------------

# unimodular changes of lattice basis, determinants +1 and -1
UNIMODULAR = [((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0)),
              ((1, -2), (1, -1)), ((3, 2), (1, 1)), ((1, 0), (-3, 1)), ((-1, 0), (2, 1))]
SHIFT = st.tuples(*[st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))] * 2)
LATTICE_VECTOR = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
POSITIVE = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


def _unimodular_inverse(u):
    d = mat_det(u)
    return ((d * u[1][1], -d * u[0][1]), (-d * u[1][0], d * u[0][0]))


@st.composite
def plane_groups(draw):
    """p4 on a square basis or p2 on an upper-triangular one, in the basis
    B U, with the rotation's centre shifted by c and redundant generators:
    powers of the rotation times lattice translations, and translations."""
    kind = draw(st.sampled_from(["p2", "p4"]))
    s = draw(POSITIVE)
    if kind == "p4":
        a, b = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        basis = ((s * a, -s * b), (s * b, s * a))
        rot = ((0, -1), (1, 0))
    else:
        q, r = draw(st.tuples(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                              POSITIVE))
        basis = ((s, q), (0, r))
        rot = ((-1, 0), (0, -1))
    u = mat_mul(draw(st.sampled_from(UNIMODULAR)), draw(st.sampled_from(UNIMODULAR)))
    a = mat_mul(mat_mul(_unimodular_inverse(u), rot), u)
    c = draw(SHIFT)
    lift = draw(LATTICE_VECTOR)
    g = AffineIsometry.of(a, vec_add(mat_vec(mat_sub(IDENTITY_MAT, a), c), lift))
    gens = [g]
    for k, v in draw(st.lists(st.tuples(st.integers(1, 3), LATTICE_VECTOR), max_size=3)):
        h = AffineIsometry.of(IDENTITY_MAT, v)
        for _ in range(k):
            h = h.compose(g)
        gens.append(h)
    return CrystGroup(mat_mul(basis, u), gens)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(group=plane_groups())
def test_plane_class_table_matches_the_fraction_reference(group):
    # the classes' centres and weights are their sector components'
    got = [(h.label, h.representative) for h in cryst_fixed_classes(group)]
    assert got == [(label, rep) for label, _, _, rep in ref_cryst_classes(group)]
    model = wallpaper_model(group, "plane")
    assert sector_rows(model) == ref_sector_rows(model)
    _assert_public_fractions(model)


# a point part of each family with a fractional translation generator that
# its whole point group normalizes
TORUS_CASES = [
    ("square", ((0, -1), (1, 0)), (Fraction(1, 2), Fraction(1, 2))),
    ("square", ((-1, 0), (0, -1)), (Fraction(1, 3), Fraction(2, 3))),
    ("square", ((-1, 0), (0, -1)), (Fraction(1, 2), Fraction(0))),
    ("hexagonal", ((1, -1), (1, 0)), (Fraction(1, 3), Fraction(2, 3))),
    ("hexagonal", ((0, -1), (1, -1)), (Fraction(1, 3), Fraction(2, 3))),
    ("hexagonal", ((-1, 0), (0, -1)), (Fraction(1, 2), Fraction(1, 2))),
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(TORUS_CASES), t=TRANSLATION, lift=LATTICE_VECTOR)
def test_torus_sector_table_matches_the_fraction_reference(case, t, lift):
    family, a, shift = case
    # the rotation, the fractional translation, and the rotation's square
    # times a lattice translation, which is redundant
    g = AffineIsometry.of(a, t)
    gens = [g, AffineIsometry.of(IDENTITY_MAT, shift),
            AffineIsometry.of(IDENTITY_MAT, lift).compose(g).compose(g)]
    try:
        action = TorusAction(gens, FAMILIES[family][1])
    except StructuralError:
        return          # over the cap: the closure test compares the refusal
    model = QuotientModel(action, BundleSpec())
    assert sector_rows(model) == ref_sector_rows(model)
    _assert_public_fractions(model)


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


# -- torus Lefschetz numbers against the enumerated fixed points -------------

def ref_torus_lefschetz(model, g):
    """The route that equivariant_lefschetz replaced on a rotation: its point
    term times the number of fixed points that torus_fixed_points lists."""
    action = model.group
    a, u = action.pairs[g]
    count = len(torus_fixed_points(a, u, action.den)[1])
    term = point_term(action.normal_turns(a), Fraction(0), model.scalars, model.bundle.spin)
    return term * model.scalars.from_rational(count)


def _torus_doc(name):
    if name != "z4_half_shift":
        return json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    # the quarter turn and the translation by (1/2, 1/2) on the unit torus
    doc = json.loads((FIXTURE_DIR / "e_z4.json").read_text())
    doc["group"]["generators"].append({"matrix": [[1, 0], [0, 1]],
                                       "translation": ["1/2", "1/2"]})
    return doc


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["e_z4", "t2_z2", "torus_free", "z4_half_shift"])
def test_torus_lefschetz_matches_the_enumerated_fixed_points(name, mode):
    doc = _torus_doc(name)
    doc["options"]["mode"] = mode
    model = parse_model(doc, name)
    for g in model.group.table.elements():
        value = equivariant_lefschetz(model, g)
        if model.group.pairs[g][0] != IDENTITY_MAT:
            assert value == ref_torus_lefschetz(model, g), g
        else:
            # a translation fixes nothing, and the identity gives the flat
            # torus's untwisted index, 0
            assert model.scalars.is_zero(value), g
