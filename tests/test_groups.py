"""Group kernel: tables, wallpaper groups, conjugacy, fixed sets."""

import math
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from orbindex.errors import DomainError, StructuralError
from orbindex.groups import (
    AffineIsometry,
    ConjugacyClassHandle,
    CrystGroup,
    FiniteGroupTable,
    centralizer,
    conjugate_test,
    enumerate_classes_finite,
    fixed_set,
    mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_sub,
    mat_vec,
    mat_transpose,
    matrix_order,
    rotation_centre,
    rotation_turns_for_gram,
    torus_fixed_points,
    vec_frac,
    vec_over,
    IDENTITY_MAT,
    TorusAction,
)


def make_p4() -> CrystGroup:
    r = AffineIsometry.of(((0, -1), (1, 0)), (0, 0))
    t = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return CrystGroup([[1, 0], [0, 1]], [r, t])


def make_p2() -> CrystGroup:
    m = AffineIsometry.of(((-1, 0), (0, -1)), (0, 0))
    t = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
    return CrystGroup([[1, 0], [0, 1]], [m, t])


ROT = ((0, -1), (1, 0))
SQUARE = mat([[1, 0], [0, 1]])


class TestFiniteGroups:
    def test_z4_singleton_classes(self):
        cls = enumerate_classes_finite(FiniteGroupTable.cyclic(4))
        assert len(cls) == 4
        assert all(len(c.members()) == 1 for c in cls)

    def test_s3_class_sizes(self):
        cls = enumerate_classes_finite(FiniteGroupTable.symmetric(3))
        assert sorted(len(c.members()) for c in cls) == [1, 2, 3]

    def test_trivial_group(self):
        cls = enumerate_classes_finite(FiniteGroupTable.cyclic(1))
        assert len(cls) == 1 and cls[0].label == "e"

    def test_representative_is_minimal_member(self):
        for c in enumerate_classes_finite(FiniteGroupTable.symmetric(3)):
            assert c.representative == min(c.members())

    def test_malformed_table_rejected(self):
        with pytest.raises(StructuralError):
            FiniteGroupTable([[0, 1], [1, 5]])
        with pytest.raises(StructuralError):
            FiniteGroupTable([[0, 1], [0, 1]])  # no inverse row structure

    def test_hand_given_non_associative_table_rejected(self):
        # identity 0, every element its own inverse, but (2*1)*1 = 0 != 2 = 2*(1*1)
        table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        with pytest.raises(StructuralError, match="not associative"):
            FiniteGroupTable(table)
        # a table read off a composition is trusted, so only the hand path checks
        assert FiniteGroupTable.of_composition(table).identity == 0

    def test_centralizer_abelian_is_whole_group(self):
        z4 = FiniteGroupTable.cyclic(4)
        assert len(centralizer(1, z4)) == 4

    def test_centralizer_transposition_s3(self):
        s3 = FiniteGroupTable.symmetric(3)
        transposition_class = [c for c in enumerate_classes_finite(s3)
                               if len(c.members()) == 3][0]
        assert len(centralizer(transposition_class.representative, s3)) == 2

    def test_coset_section_sizes(self):
        s3 = FiniteGroupTable.symmetric(3)
        for c in enumerate_classes_finite(s3):
            k = list(c.coset_section())
            assert len(k) == len(c.members())
        z4 = FiniteGroupTable.cyclic(4)
        for c in enumerate_classes_finite(z4):
            assert list(c.coset_section()) == [0]


def _float_turns(a, gram) -> Fraction:
    """Reference angle rule: atan2 of B A B^{-1} in floats, B the transposed
    Cholesky factor of the Gram matrix, snapped to a multiple of 1/order."""
    n = matrix_order(a)
    g00, g01, g11 = float(gram[0][0]), float(gram[0][1]), float(gram[1][1])
    l00 = math.sqrt(g00)
    l10 = g01 / l00
    l11 = math.sqrt(g11 - l10 * l10)
    b = ((l00, l10), (0.0, l11))
    binv = ((1 / l00, -l10 / (l00 * l11)), (0.0, 1 / l11))
    r = mat_mul(mat_mul(b, a), binv)
    theta = math.atan2(r[1][0], r[0][0]) / (2 * math.pi)
    return Fraction(round(theta * n) % n, n)


@pytest.mark.parametrize("gram, rotations", [
    ([[1, 0], [0, 1]], 4),                       # square
    ([["9/4", 0], [0, "9/4"]], 4),               # rational square
    ([[4, 2], [2, 10]], 2),                      # rational oblique
    ([[2, 1], [1, 2]], 6),                       # hexagonal
    ([[2, -1], [-1, 2]], 6),                     # hexagonal
])
def test_exact_angle_rule_matches_float_rule(gram, rotations):
    g = mat(gram)
    found = 0
    for e in product(range(-3, 4), repeat=4):
        a = ((e[0], e[1]), (e[2], e[3]))
        if mat_det(a) != 1 or mat_mul(mat_mul(mat_transpose(a), g), a) != g:
            continue
        found += 1
        assert rotation_turns_for_gram(a, g) == _float_turns(a, g), a
    assert found == rotations


def _fraction_refusal(a, gram):
    """check_point_part's first refusal, in Fraction arithmetic, or None."""
    if mat_mul(mat_mul(mat_transpose(a), gram), a) != gram:
        return "does not preserve the lattice Gram matrix"
    if mat_det(a) != 1:
        return "orientation-reversing point part"
    try:
        order = matrix_order(a)
    except StructuralError:
        return "matrix order exceeds crystallographic cap"
    return None if order in (1, 2, 3, 4, 6) else "crystallographic restriction violated"


def _fraction_turns(a, gram) -> Fraction:
    n = matrix_order(a)
    ga = mat_mul(gram, a)
    return Fraction(1 if ga[1][0] - ga[0][1] > 0 else n - 1, n)


@pytest.mark.parametrize("gram", [
    [["5/2", 0], [0, "5/2"]],                    # rational square
    [["1/3", "1/6"], ["1/6", "1/3"]],            # rational hexagonal
    [["5/2", "-5/4"], ["-5/4", "5/2"]],          # rational hexagonal, other shear
    [["5/2", "1/3"], ["1/3", "7/5"]],            # sheared oblique
    [["2/7", "5/2"], ["5/2", 22]],               # sheared oblique, mixed entries
])
def test_integer_gram_checks_match_the_fraction_reference(gram):
    # the torus action runs its checks on G times the lcm of its
    # denominators; every verdict must be the one of the rational G
    g = mat(gram)
    accepted = 0
    for e in product(range(-2, 3), repeat=4):
        a = ((e[0], e[1]), (e[2], e[3]))
        want = _fraction_refusal(a, g)
        if want is not None:
            with pytest.raises(StructuralError, match=want):
                TorusAction([AffineIsometry.of(a, (0, 0))], g)
            continue
        accepted += 1
        action = TorusAction([AffineIsometry.of(a, (0, 0))], g)
        assert action.gram == g
        assert action.turns == {p: _fraction_turns(p, g) for p in action.point_parts}, a
    assert accepted >= 2


class TestCloseModLattice:
    def test_breadth_first_order_with_reduced_translations(self):
        r = AffineIsometry.of(ROT, (Fraction(3, 2), Fraction(1, 2)))
        elems = TorusAction([r], SQUARE).isometries
        assert elems[0].is_identity and len(elems) == 4
        assert elems[1] == AffineIsometry.of(ROT, (Fraction(1, 2), Fraction(1, 2)))
        assert elems[2] == AffineIsometry.of(((-1, 0), (0, -1)), (0, 0))
        assert all(0 <= x < 1 for g in elems for x in g.translation)

    def test_closure_cap(self):
        t = AffineIsometry.of(IDENTITY_MAT, (Fraction(1, 300), 0))
        with pytest.raises(StructuralError, match="finite cap"):
            TorusAction([t], SQUARE)

    def test_second_coset_vector_rejected(self):
        r = AffineIsometry.of(ROT, (0, 0))
        half = AffineIsometry.of(IDENTITY_MAT, (Fraction(1, 2), 0))
        with pytest.raises(StructuralError, match="conflicting coset vectors"):
            CrystGroup([[1, 0], [0, 1]], [r, half])


class TestCrystGroup:
    def test_point_group_closure(self):
        p4 = make_p4()
        assert p4.point_group_order == 4
        assert p4.point_parts[0] == IDENTITY_MAT
        assert all(s == (0, 0) for s in p4.coset_vectors.values())

    def test_rotation_angle(self):
        p4 = make_p4()
        assert p4.torus.turns[ROT] == Fraction(1, 4)
        assert p4.torus.turns[((-1, 0), (0, -1))] == Fraction(1, 2)

    def test_crystallographic_restriction_rejected(self):
        # order-5 "rotation" matrix cannot preserve any rational Gram matrix,
        # so it must be rejected at load time
        bad = AffineIsometry.of(((2, -1), (1, 0)), (0, 0))  # not Gram-orthogonal
        with pytest.raises(StructuralError):
            CrystGroup([[1, 0], [0, 1]], [bad])

    def test_membership_normal_form(self):
        p4 = make_p4()
        g = AffineIsometry.of(ROT, (3, -2))
        assert p4.contains(g)
        assert g.translation == (3, -2)
        assert not p4.contains(AffineIsometry.of(ROT, (Fraction(1, 2), 0)))

    def test_element_enumeration_deterministic(self):
        p4 = make_p4()
        ball = p4.elements_in_ball(Fraction(1))
        assert ball == p4.elements_in_ball(Fraction(1))
        norms = [max(abs(g.translation[0]), abs(g.translation[1])) for g in ball]
        assert norms == sorted(norms)
        assert len(ball) == 4 * 9  # 4 point parts x 9 lattice vectors


class TestConjugacy:
    def test_p4_rotations_same_center_orbit(self):
        p4 = make_p4()
        r = p4.element(ROT, (0, 0))
        r_at_10 = p4.element(ROT, (1, 1))  # center (0, 1)
        assert conjugate_test(r, r_at_10, p4)
        # quarter turns about (0,0) and (1,0) are conjugate by the unit translation
        r_unit = p4.element(ROT, (1, -1))  # center (1, 0)
        assert conjugate_test(r, r_unit, p4)
        t = p4.element(((1, 0), (0, 1)), (1, 0))
        assert t.compose(r).compose(t.inverse()) == r_unit

    def test_p4_rotations_different_center_orbit(self):
        p4 = make_p4()
        r = p4.element(ROT, (0, 0))
        r_half = p4.element(ROT, (1, 0))  # center (1/2, 1/2)
        assert not conjugate_test(r, r_half, p4)

    def test_p4_r_vs_r3(self):
        p4 = make_p4()
        r = p4.element(ROT, (0, 0))
        r3 = r.compose(r).compose(r)
        assert not conjugate_test(r, r3, p4)

    def test_equivalence_relation_random_triples(self):
        p4 = make_p4()
        pool = p4.elements_in_ball(Fraction(2))
        rng = random.Random(7)
        for _ in range(1000):
            g, h, k = (pool[rng.randrange(len(pool))] for _ in range(3))
            assert conjugate_test(g, g, p4)
            if conjugate_test(g, h, p4):
                assert conjugate_test(h, g, p4)
                if conjugate_test(h, k, p4):
                    assert conjugate_test(g, k, p4)

    def test_centralizer_r_origin_is_z4(self):
        p4 = make_p4()
        z = centralizer(p4.element(ROT, (0, 0)), p4)
        assert len(z) == 4
        for e in z:
            assert vec_frac(e.translation) == (0, 0)

    def test_centralizer_edge_midpoint_r2(self):
        p4 = make_p4()
        z = centralizer(p4.element(((-1, 0), (0, -1)), (1, 0)), p4)
        assert len(z) == 2

    def test_centralizer_translation_infinite(self):
        p4 = make_p4()
        # the whole translation lattice commutes with t: no element list
        t = p4.element(IDENTITY_MAT, (1, 0))
        with pytest.raises(DomainError):
            centralizer(t, p4)


class TestCosetSection:
    def test_section_injective_and_exhaustive(self):
        p4 = make_p4()
        r = p4.element(ROT, (0, 0))
        handle = ConjugacyClassHandle(group=p4, representative=r,
                                      kind_tag="infinite-class", label="r_origin")
        ks = list(islice(handle.coset_section(), 25))
        conjugates = [k.compose(r).compose(k.inverse()) for k in ks]
        assert len({(c.point_part, c.translation) for c in conjugates}) == 25
        # centers of pi/2-rotations biject with the lattice
        centers = set()
        for c in conjugates:
            fs = fixed_set(c, )
            assert fs.kind == "points"
            centers.add(fs.points[0])
        assert all(x.denominator == 1 and y.denominator == 1 for x, y in centers)

    def test_k_times_centralizer_covers_group(self):
        # the map K x Z_G(g) -> G, (k,h) -> kh is injective and hits every
        # element of bounded norm
        p4 = make_p4()
        r = p4.element(ROT, (0, 0))
        handle = ConjugacyClassHandle(group=p4, representative=r,
                                      kind_tag="infinite-class", label="r_origin")
        zs = centralizer(r, p4)
        products = {}
        for k in islice(handle.coset_section(), 60):
            for h in zs:
                kh = k.compose(h)
                key = (kh.point_part, kh.translation)
                assert key not in products, "K x Z -> G not injective"
                products[key] = (k, h)
        for g in p4.elements_in_ball(Fraction(1)):
            assert (g.point_part, g.translation) in products

    @pytest.mark.parametrize("make, translations", [
        (make_p4, {(1, 0), (0, 1), (-1, 0), (0, -1)}),
        (make_p2, {(1, 0), (-1, 0)}),
    ])
    def test_translation_class_section_is_finite(self, make, translations):
        # the conjugates of (I, t) are the finitely many (I, B t)
        group = make()
        for t, want in (((0, 0), {(0, 0)}), ((1, 0), translations)):
            g = group.element(IDENTITY_MAT, t)
            handle = ConjugacyClassHandle(group=group, representative=g,
                                          kind_tag="finite-class", label="t")
            ks = list(handle.coset_section())
            assert len(ks) == len(want)
            assert {k.compose(g).compose(k.inverse()).translation for k in ks} == want

    def test_finite_abelian_section_trivial(self):
        z4 = FiniteGroupTable.cyclic(4)
        for c in enumerate_classes_finite(z4):
            assert list(c.coset_section()) == [0]


class TestFixedSets:
    def test_rotation_on_plane(self):
        p4 = make_p4()
        fs = fixed_set(p4.element(ROT, (0, 0)), )
        assert fs.kind == "points" and fs.points == ((0, 0),)

    def test_multiplication_by_i_on_square_torus(self):
        den, points = torus_fixed_points(ROT, (0, 0), 1)
        assert {vec_over(x, den) for x in points} == {(0, 0), (Fraction(1, 2), Fraction(1, 2))}

    def test_pure_translation_empty(self):
        assert fixed_set(AffineIsometry.of(IDENTITY_MAT, (1, 0)), ).kind == "empty"

    def test_identity_full(self):
        assert fixed_set(AffineIsometry.identity(), ).kind == "full"

    def test_torus_count_equals_det(self):
        rng = random.Random(3)
        mats = [ROT, ((-1, 0), (0, -1)), ((0, 1), (-1, -1)), ((0, -1), (1, -1))]
        for a in mats:
            u = (rng.randint(0, 3), rng.randint(0, 3))
            m = mat_sub(IDENTITY_MAT, a)
            _, points = torus_fixed_points(a, u, 4)
            assert len(points) == abs(mat_det(m))

    def test_equivariance_under_conjugation(self):
        p4 = make_p4()
        g = p4.element(ROT, (1, 0))
        fs_g = fixed_set(g, )
        for h in p4.elements_in_ball(Fraction(1))[:20]:
            conj = h.compose(g).compose(h.inverse())
            fs_c = fixed_set(conj, )
            assert fs_c.points == tuple(h.apply(p) for p in fs_g.points)

    # rotations of orders 2, 4, 4 on the square lattice and 3, 3, 6, 6 on the
    # hexagonal one, whose point parts no fixture has
    @pytest.mark.parametrize("a", [((-1, 0), (0, -1)), ROT, ((0, 1), (-1, 0)),
                                   ((0, -1), (1, -1)), ((-1, 1), (-1, 0)),
                                   ((1, -1), (1, 0)), ((0, 1), (-1, 1))])
    def test_rotation_centre_solves_the_fixed_point_equation(self, a):
        assert matrix_order(a) in (2, 3, 4, 6)
        m = mat_sub(IDENTITY_MAT, a)
        rng = random.Random(str(a))
        for _ in range(50):
            b = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2))
            c = rotation_centre(a, b)
            assert mat_vec(m, c) == b
            assert c == mat_vec(mat_inv(m), b)
            assert all(type(x) is Fraction for x in c)

    def test_reflection_and_glide_rejected(self):
        # orientation-reversing input has no isolated fixed points
        refl = AffineIsometry.of(((1, 0), (0, -1)), (0, 0))
        glide = AffineIsometry.of(((1, 0), (0, -1)), (Fraction(1, 2), 0))
        for g in (refl, glide):
            with pytest.raises(StructuralError):
                fixed_set(g, )


# ---------------------------------------------------------------------------
# Direct enumeration: shells of the ball
# ---------------------------------------------------------------------------

def _enumeration_groups() -> dict:
    from orbindex.cli import FIXTURE_DIR, load_model

    groups = {name: load_model(FIXTURE_DIR / f"{name}.json").group for name in ("p4", "p2")}
    # a non-unit lattice: Gram 5 I keeps the quarter turn
    groups["p4_lattice"] = CrystGroup([[2, -1], [1, 2]], groups["p4"].generators)
    return groups


ENUMERATION_GROUPS = _enumeration_groups()


def _ball_by_ball_order(group: CrystGroup):
    """Reference order: the whole ball at every radius, new norms only."""
    radius, seen_up_to = Fraction(0), Fraction(-1)
    while True:
        for g in group.elements_in_ball(radius):
            if max(abs(g.translation[0]), abs(g.translation[1])) > seen_up_to:
                yield g
        seen_up_to = radius
        radius += 1


class TestDirectEnumeration:
    @pytest.mark.parametrize("name", ["p4", "p2", "p4_lattice"])
    def test_iterate_elements_keeps_ball_order(self, name):
        group = ENUMERATION_GROUPS[name]
        assert (list(islice(group.iterate_elements(), 600))
                == list(islice(_ball_by_ball_order(group), 600)))

    def test_plane_class_has_no_member_list(self):
        from orbindex.sectors import translation_class

        cls = translation_class(make_p4(), (Fraction(1), Fraction(0)))
        with pytest.raises(DomainError):
            cls.members()

    def test_orientation_reversing_group_rejected(self):
        # a reflection class cannot arise: the group is rejected when built
        refl = AffineIsometry.of(((1, 0), (0, -1)), (0, 0))
        t1 = AffineIsometry.of(((1, 0), (0, 1)), (1, 0))
        t2 = AffineIsometry.of(((1, 0), (0, 1)), (0, 1))
        with pytest.raises(StructuralError):
            CrystGroup([[1, 0], [0, 1]], [refl, t1, t2])
