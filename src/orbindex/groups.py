"""Exact arithmetic for finite groups and 2D crystallographic (wallpaper) groups.

Point parts are integer matrices in lattice coordinates, so every wallpaper
point group acts by exact integer arithmetic; orthogonality is checked against
the lattice Gram matrix.  Translations are stored as exact rationals.  A
TorusAction is a finite group of affine isometries mod the lattice Z^2: it
checks its generators, closes them, and holds its point parts and their
rotation angles.  A CrystGroup is such an action plus a lattice basis, since
the plane mod Z^2 is a torus on which its point group acts by the pairs
(B, s_B).  The closure mod the lattice runs on integer pairs (A, u), u the
translation times one common denominator D, and a TorusAction keeps them:
its table, the fixed points of its elements (`torus_fixed_points`) and the
orbits of points mod Z^2 (`orbit_split`) are computed from those integers,
and a Fraction is made only for a value handed out, such as an isometry's
translation.  A rotation's centre (I - A)^-1 b has one solver,
`rotation_centre`, in the integer adjugate of I - A.  The Gram matrix of a
basis is formed in integers too.  All values are immutable after construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import DomainError, StructuralError

Mat = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
IMat = tuple[tuple[int, int], tuple[int, int]]
Vec = tuple[Fraction, Fraction]
IVec = tuple[int, int]
Pair = tuple[IMat, IVec]    # (A, u): x -> A x + u / D, D the action's denominator

IDENTITY_MAT: IMat = ((1, 0), (0, 1))


# ---------------------------------------------------------------------------
# 2x2 exact linear algebra
# ---------------------------------------------------------------------------

def mat(rows: Sequence[Sequence]) -> Mat:
    return (
        (Fraction(rows[0][0]), Fraction(rows[0][1])),
        (Fraction(rows[1][0]), Fraction(rows[1][1])),
    )


def imat(rows: Sequence[Sequence]) -> IMat:
    m = ((int(rows[0][0]), int(rows[0][1])), (int(rows[1][0]), int(rows[1][1])))
    for i in range(2):
        for j in range(2):
            if m[i][j] != rows[i][j]:
                raise StructuralError(f"point part entry {rows[i][j]} is not an integer")
    return m


def vec(v: Sequence) -> Vec:
    return (Fraction(v[0]), Fraction(v[1]))


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_vec(a, v) -> Vec:
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def mat_det(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def adjugate(a):
    """det(A) A^-1, in A's entry type: A^-1 itself when det A = 1."""
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def mat_inv(a) -> Mat:
    d = mat_det(a)
    if d == 0:
        raise StructuralError("singular 2x2 matrix")
    d = Fraction(d)
    (p, q), (r, s) = adjugate(a)
    return ((p / d, q / d), (r / d, s / d))


def mat_sub(a, b):
    return tuple(tuple(a[i][j] - b[i][j] for j in range(2)) for i in range(2))


def mat_transpose(a):
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def vec_add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def vec_sub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def vec_frac(v: Vec) -> Vec:
    return (v[0] - math.floor(v[0]), v[1] - math.floor(v[1]))


def vec_mod(v: IVec, den: int) -> IVec:
    return (v[0] % den, v[1] % den)


def vec_over(v: IVec, den: int) -> Vec:
    """The rational vector v / den."""
    return (Fraction(v[0], den), Fraction(v[1], den))


def over_denominator(vectors: Sequence[Vec]) -> tuple[int, list[tuple[int, int]]]:
    """The least common denominator D of rational vectors, and each vector
    times D as a pair of ints."""
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return den, [(v[0].numerator * (den // v[0].denominator),
                  v[1].numerator * (den // v[1].denominator)) for v in vectors]


def gram_matrix(basis: Mat) -> Mat:
    """B^T B, formed in integers on L B, L the lcm of B's denominators."""
    scale, ib = over_denominator(basis)
    sq = scale * scale
    return tuple(tuple(Fraction(x, sq) for x in row)
                 for row in mat_mul(mat_transpose(ib), ib))  # type: ignore[return-value]


def vec_supnorm(v: Vec) -> Fraction:
    return max(abs(v[0]), abs(v[1]))


def matrix_order(a: IMat, cap: int = 12) -> int:
    cur = a
    for n in range(1, cap + 1):
        if cur == IDENTITY_MAT:
            return n
        cur = mat_mul(cur, a)
    raise StructuralError("matrix order exceeds crystallographic cap")


def check_point_part(a: IMat, gram: Mat) -> None:
    """Reject a point part that is not a crystallographic rotation.

    It must preserve the lattice Gram matrix, have det +1 and order 1, 2, 3,
    4 or 6.  Reflections and glides (det -1) would give 1-dimensional fixed
    sets, which this catalogue does not support; every group checks its point
    parts here when it is built.
    """
    if mat_mul(mat_mul(mat_transpose(a), gram), a) != gram:
        raise StructuralError("point part does not preserve the lattice Gram matrix")
    if mat_det(a) != 1:
        raise StructuralError(
            "orientation-reversing point part: reflections and glides give "
            "1-dimensional fixed sets, which this catalogue does not support")
    if matrix_order(a) not in (1, 2, 3, 4, 6):
        raise StructuralError(
            "crystallographic restriction violated: point-part order not in {1,2,3,4,6}")


def rotation_turns_for_gram(a: IMat, gram: Mat) -> Fraction:
    """Rotation angle of an integral Gram-orthogonal rotation, in turns.

    A lattice rotation of order n turns by +-1/n.  With B^T B = G and
    R = B A B^{-1}, GA - (GA)^T = 2 sin(theta) det(B) J, so the sign of
    sin(theta) is the sign of (GA)_10 - (GA)_01; orders 1 and 2 give 0 and 1/2.
    """
    n = matrix_order(a)
    ga = mat_mul(gram, a)
    return Fraction(1 if ga[1][0] > ga[0][1] else n - 1, n)


# ---------------------------------------------------------------------------
# Finite groups by multiplication table
# ---------------------------------------------------------------------------

class FiniteGroupTable:
    """A finite group presented by its multiplication table on 0..order-1."""

    def __init__(self, product: Sequence[Sequence[int]]):
        self._build(product)
        self._check_associative()

    @classmethod
    def of_composition(cls, product: Sequence[Sequence[int]]) -> "FiniteGroupTable":
        """A table read off the composition of maps, associative by construction."""
        table = cls.__new__(cls)
        table._build(product)
        return table

    def _build(self, product: Sequence[Sequence[int]]) -> None:
        n = self.order = len(product)
        self.product = tuple(tuple(int(x) for x in row) for row in product)
        if n == 0:
            raise StructuralError("empty group table")
        for row in self.product:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise StructuralError("group table is not closed")
        self.identity = self._find_identity()
        self.inverse = tuple(self._find_inverse(g) for g in range(self.order))

    def _check_associative(self) -> None:
        n = self.order
        if n <= 64:
            triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(10_000))
        for a, b, c in triples:
            if self.product[self.product[a][b]][c] != self.product[a][self.product[b][c]]:
                raise StructuralError("group table is not associative")

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.product[e][g] == g and self.product[g][e] == g
                   for g in range(self.order)):
                return e
        raise StructuralError("group table has no identity")

    def _find_inverse(self, g: int) -> int:
        for h in range(self.order):
            if self.product[g][h] == self.identity:
                if self.product[h][g] != self.identity:
                    raise StructuralError("one-sided inverse in group table")
                return h
        raise StructuralError(f"element {g} has no inverse")

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, k: int, g: int) -> int:
        return self.mul(self.mul(k, g), self.inv(k))

    def elements(self) -> range:
        return range(self.order)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        return FiniteGroupTable.of_composition([[(a + b) % n for b in range(n)] for a in range(n)])

    @staticmethod
    def symmetric(n: int) -> "FiniteGroupTable":
        """S_n as a table; element order is lexicographic on permutation tuples."""
        import itertools

        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
        return FiniteGroupTable.of_composition(table)


# ---------------------------------------------------------------------------
# Affine isometries and crystallographic groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineIsometry:
    """x -> A x + t in lattice coordinates; A integral, t rational."""

    point_part: IMat
    translation: Vec

    @staticmethod
    def of(point_part, translation) -> "AffineIsometry":
        return AffineIsometry(imat(point_part), vec(translation))

    @staticmethod
    def identity() -> "AffineIsometry":
        return AffineIsometry(IDENTITY_MAT, (Fraction(0), Fraction(0)))

    def compose(self, other: "AffineIsometry") -> "AffineIsometry":
        a, b = self.point_part, other.point_part
        return AffineIsometry(
            tuple(tuple(int(x) for x in row) for row in mat_mul(a, b)),  # type: ignore[arg-type]
            vec_add(self.translation, mat_vec(a, other.translation)),
        )

    def inverse(self) -> "AffineIsometry":
        ainv = mat_inv(self.point_part)
        ai = tuple(tuple(int(x) for x in row) for row in ainv)
        for i in range(2):
            for j in range(2):
                if ainv[i][j].denominator != 1:
                    raise StructuralError("point part is not invertible over the lattice")
        return AffineIsometry(ai, mat_vec(ai, (-self.translation[0], -self.translation[1])))  # type: ignore[arg-type]

    def apply(self, x: Vec) -> Vec:
        return vec_add(mat_vec(self.point_part, x), self.translation)

    @property
    def is_identity(self) -> bool:
        return self.point_part == IDENTITY_MAT and self.translation == (0, 0)

    @property
    def is_translation(self) -> bool:
        return self.point_part == IDENTITY_MAT

    def __repr__(self) -> str:
        a = self.point_part
        t = self.translation
        return f"Aff[{a[0][0]},{a[0][1]};{a[1][0]},{a[1][1]}|{t[0]},{t[1]}]"


def close_pairs(generators: Sequence[AffineIsometry]) -> tuple[int, list[Pair]]:
    """The finite group that `generators` generate modulo the lattice Z^2, as
    D, the generators' common denominator, and the pairs (A, u), u the
    translation times D reduced mod D: point parts are integral, so every
    product stays over D.

    The identity comes first and the other elements follow in breadth-first
    order of left multiplication by the generators, so the order depends
    only on the generator order.  More than 256 elements is refused.
    """
    den, shifts = over_denominator([g.translation for g in generators])
    gens = [(g.point_part, u) for g, u in zip(generators, shifts)]
    pairs = [(IDENTITY_MAT, (0, 0))]
    seen = set(pairs)
    for a, u in pairs:
        for b, v in gens:
            nxt = (mat_mul(b, a), vec_mod(vec_add(v, mat_vec(b, u)), den))
            if nxt not in seen:
                if len(pairs) >= 256:
                    raise StructuralError(
                        "group closure modulo the lattice exceeds the finite cap")
                seen.add(nxt)
                pairs.append(nxt)
    return den, pairs


def orbit_split(points: Sequence[IVec], moves: Sequence[Pair], den: int) \
        -> list[tuple[IVec, list[IVec]]]:
    """Split points mod Z^2, given times `den` and reduced mod den, into
    orbits of the finite group of pairs `moves`, whose translations are over
    the same den.

    Per orbit, in the order of its first point in `points`: that point and
    the orbit's points, reduced mod den, in the order of `moves`.  By
    orbit-stabilizer the first point's stabilizer has |moves| / |orbit|
    elements.
    """
    seen: set[IVec] = set()
    out = []
    for x in points:
        if x in seen:
            continue
        orbit = list(dict.fromkeys(vec_mod(vec_add(mat_vec(a, x), u), den) for a, u in moves))
        seen.update(orbit)
        out.append((x, orbit))
    return out


@dataclass(frozen=True)
class FixedSetDescriptor:
    """Fixed locus of an orientation-preserving affine isometry: empty,
    isolated points, or everything."""

    kind: str  # "empty" | "points" | "full"
    points: tuple[Vec, ...] = ()


class TorusAction:
    """A finite group acting on a flat torus by affine isometries mod the lattice.

    The group is the closure of `generators` modulo the lattice, after every
    generator's point part is checked: element i of `table` acts by the
    integer pair `pairs[i]` = (A, u), x -> A x + u / `den`, and by
    `isometries[i]`, the same map with a rational translation; element 0 is
    the identity.  `point_parts` lists the distinct point parts in closure
    order, and `turns` maps each to its rotation angle.  The table, built on
    first use, composes the pairs mod den.
    """

    def __init__(self, generators: Sequence[AffineIsometry], gram: Mat):
        # both checks are invariant under a positive scale of the Gram matrix,
        # so they run in ints on G times the lcm of its denominators
        igram = tuple(over_denominator(gram)[1])
        for g in generators:
            check_point_part(g.point_part, igram)
        self.gram = gram
        self.den, self.pairs = close_pairs(generators)
        self.isometries = tuple(AffineIsometry(a, vec_over(u, self.den)) for a, u in self.pairs)
        self.point_parts: tuple[IMat, ...] = tuple(dict.fromkeys(a for a, _ in self.pairs))
        self.turns = {a: rotation_turns_for_gram(a, igram) for a in self.point_parts}

    @cached_property
    def table(self) -> FiniteGroupTable:
        den, pairs = self.den, self.pairs
        index = {p: i for i, p in enumerate(pairs)}
        return FiniteGroupTable.of_composition(
            [[index[mat_mul(a, b), vec_mod(vec_add(u, mat_vec(a, v)), den)] for b, v in pairs]
             for a, u in pairs])

    @cached_property
    def area(self) -> float:
        return math.sqrt(float(mat_det(self.gram)))

    def normal_turns(self, a: IMat) -> Fraction:
        """The angle of A^-1, which is A's angle negated mod 1: the normal
        angle of A's fixed points.  A has det 1, so A^-1 is its adjugate."""
        return self.turns[adjugate(a)]

    def pairs_over(self, den: int) -> list[Pair]:
        """The pairs with their translations over `den`, a multiple of D."""
        s = den // self.den
        return [(a, (u[0] * s, u[1] * s)) for a, u in self.pairs]


class CrystGroup:
    """A 2D crystallographic group: its point group acting on the torus
    plane/lattice, plus the lattice basis.

    Elements are AffineIsometry values in lattice coordinates; the translation
    lattice is Z^2 in those coordinates, so the group mod Z^2 is the
    TorusAction `torus` of the generators, with one coset vector per point
    part.
    """

    def __init__(self, lattice_basis, generators: Sequence[AffineIsometry]):
        self.lattice_basis: Mat = mat(lattice_basis)
        if mat_det(self.lattice_basis) == 0:
            raise StructuralError("lattice basis is singular")
        self.gram: Mat = gram_matrix(self.lattice_basis)
        self.generators = tuple(generators)
        gens = sorted(self.generators, key=lambda g: (g.point_part, g.translation))
        self.torus = TorusAction(gens, self.gram)
        # Z^2 is the whole translation subgroup exactly when the closure
        # holds one coset vector per point part
        self.point_parts = self.torus.point_parts
        if len(self.point_parts) != len(self.torus.pairs):
            raise StructuralError(
                "translation lattice is not normal: conflicting coset vectors")
        self.coset_vectors: dict[IMat, Vec] = {g.point_part: g.translation
                                               for g in self.torus.isometries}
        self._pp_index = {a: i for i, a in enumerate(self.point_parts)}

    # -- structure ----------------------------------------------------------

    @property
    def point_group_order(self) -> int:
        return len(self.point_parts)

    @cached_property
    def area(self) -> float:
        return float(abs(mat_det(self.lattice_basis)))

    def contains(self, g: AffineIsometry) -> bool:
        s = self.coset_vectors.get(g.point_part)
        return s is not None and vec_frac(g.translation) == s

    def element(self, point_part, translation) -> AffineIsometry:
        g = AffineIsometry.of(point_part, translation)
        if not self.contains(g):
            raise StructuralError(f"{g} does not belong to the group")
        return g

    # -- element enumeration -------------------------------------------------

    def elements_in_ball(self, radius: Fraction) -> list[AffineIsometry]:
        """All group elements with sup-norm of translation <= radius.

        Ordered by (sup-norm, translation lexicographic, point-part index); this
        fixed order makes every downstream enumeration deterministic.
        """
        return self._elements_between(-1, radius)

    def iterate_elements(self) -> Iterator[AffineIsometry]:
        """All elements, in increasing sup-norm order, lazily.

        Yields one shell radius - 1 < sup-norm <= radius at a time, each in the
        order of elements_in_ball, so the whole sequence is that order too.
        """
        radius = 0
        while True:
            yield from self._elements_between(radius - 1, radius)
            radius += 1

    def _order_key(self, g: AffineIsometry):
        """Sort key of the fixed element order: sup-norm, translation, point part."""
        return (vec_supnorm(g.translation), g.translation, self._pp_index[g.point_part])

    def _elements_between(self, inner, radius) -> list[AffineIsometry]:
        """Elements with inner < sup-norm of translation <= radius, in order.

        Inside the outer box only the columns and rows beyond the inner radius
        are visited, so a unit shell costs time linear in its radius.
        """
        out = []
        for a in self.point_parts:
            s0, s1 = self.coset_vectors[a]
            rows = range(math.ceil(-radius - s1), math.floor(radius - s1) + 1)
            edge_rows = [n for n in rows if abs(s1 + n) > inner]
            for m in range(math.ceil(-radius - s0), math.floor(radius - s0) + 1):
                x = s0 + m
                for n in (rows if abs(x) > inner else edge_rows):
                    out.append(AffineIsometry(a, (x, s1 + n)))
        out.sort(key=self._order_key)
        return out


GroupLike = Union[FiniteGroupTable, CrystGroup]


# ---------------------------------------------------------------------------
# Conjugacy machinery
# ---------------------------------------------------------------------------

def conjugate_test(g, h, group: GroupLike) -> bool:
    """Is h = k g k^{-1} for some k in the group?

    A wallpaper point group is cyclic, so conjugation by (B, w) keeps the
    point part A of g and sends its translation a to B a + (I - A) w.
    """
    if isinstance(group, FiniteGroupTable):
        return any(group.conjugate(k, g) == h for k in group.elements())
    a = g.point_part
    if h.point_part != a:
        return False
    if a == IDENTITY_MAT:
        return any(mat_vec(b, g.translation) == h.translation for b in group.point_parts)
    # I - A is invertible for every rotation A != I: w solves
    # (I - A) w = a_h - B a_g and must lie in s_B + lattice
    for b in group.point_parts:
        w = rotation_centre(a, vec_sub(h.translation, mat_vec(b, g.translation)))
        if vec_frac(vec_sub(w, group.coset_vectors[b])) == (0, 0):
            return True
    return False


def centralizer(g, group: GroupLike) -> tuple:
    """The centralizer {h : hg = gh}, as its tuple of elements.

    A crystallographic rotation has a finite centralizer, sorted in the fixed
    element order; a translation's is infinite and raises DomainError.
    """
    if isinstance(group, FiniteGroupTable):
        return tuple(h for h in group.elements() if group.mul(h, g) == group.mul(g, h))
    a, t = g.point_part, g.translation
    if a == IDENTITY_MAT:
        raise DomainError("a translation has an infinite centralizer")
    # every B commutes with A, and (I - A) w = (I - B) a_g has one rational
    # solution per B
    elems = []
    for b in group.point_parts:
        w = rotation_centre(a, vec_sub(t, mat_vec(b, t)))
        if vec_frac(vec_sub(w, group.coset_vectors[b])) == (0, 0):
            elems.append(AffineIsometry(b, w))
    return tuple(sorted(elems, key=group._order_key))


@dataclass
class ConjugacyClassHandle:
    """A conjugacy class with representative, membership test and coset section."""

    group: GroupLike
    representative: object
    kind_tag: str  # "finite-class" | "infinite-class"
    label: str
    _members: Optional[tuple] = field(default=None, repr=False)
    _contains_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def contains(self, h) -> bool:
        key = h if isinstance(self.group, FiniteGroupTable) else (h.point_part, h.translation)
        hit = self._contains_cache.get(key)
        if hit is None:
            hit = conjugate_test(self.representative, h, self.group)
            self._contains_cache[key] = hit
        return hit

    def members(self):
        """All class members of a finite table group; a plane class is infinite."""
        if not isinstance(self.group, FiniteGroupTable):
            raise DomainError("a plane class has no member list")
        if self._members is None:
            g = self.representative
            self._members = tuple(sorted({self.group.conjugate(k, g)
                                          for k in self.group.elements()}))
        return self._members

    def coset_section(self) -> Iterator:
        """Lazily enumerate K with {k g k^{-1} : k in K} = (g), no repeats.

        Enumeration order: table order for finite groups; increasing sup-norm
        of translation part, ties lexicographic, for crystallographic groups.
        The section is finite for a translation class and infinite for a
        rotation class.
        """
        g = self.representative
        if isinstance(self.group, FiniteGroupTable):
            seen = set()
            for k in self.group.elements():
                c = self.group.conjugate(k, g)
                if c not in seen:
                    seen.add(c)
                    yield k
            return
        # the point group is cyclic, so k g k^{-1} = (A, B a + (I - A) w) for
        # k = (B, w): conjugates differ in their translations alone.  A
        # translation class is finite, the (I, B a), and ends once all are seen
        m = mat_sub(IDENTITY_MAT, g.point_part)
        size = len({mat_vec(b, g.translation) for b in self.group.point_parts}) \
            if g.point_part == IDENTITY_MAT else None
        seen_aff = set()
        for k in self.group.iterate_elements():
            c = vec_add(mat_vec(k.point_part, g.translation), mat_vec(m, k.translation))
            if c not in seen_aff:
                seen_aff.add(c)
                yield k
                if len(seen_aff) == size:
                    return


def enumerate_classes_finite(table: FiniteGroupTable) -> list[ConjugacyClassHandle]:
    """Conjugacy classes of a finite table group; representatives are minimal indices."""
    if not isinstance(table, FiniteGroupTable):
        raise StructuralError("enumerate_classes_finite expects a FiniteGroupTable")
    unassigned = set(table.elements())
    handles = []
    while unassigned:
        g = min(unassigned)
        orbit = {table.conjugate(k, g) for k in table.elements()}
        unassigned -= orbit
        label = "e" if g == table.identity else f"c{g}"
        handles.append(ConjugacyClassHandle(
            group=table, representative=g, kind_tag="finite-class", label=label,
            _members=tuple(sorted(orbit))))
    handles.sort(key=lambda h: h.representative)
    return handles


# ---------------------------------------------------------------------------
# Fixed sets of affine isometries
# ---------------------------------------------------------------------------

def rotation_centre(a: IMat, b) -> Vec:
    """The fixed point (I - A)^-1 b of a rotation (A, b), A != I: the integer
    adjugate of I - A applied to b times its denominator D, over D det(I - A)."""
    m = mat_sub(IDENTITY_MAT, a)
    den, [u] = over_denominator([b])
    big = den * mat_det(m)
    return tuple(Fraction(x, big) for x in mat_vec(adjugate(m), u))  # type: ignore[return-value]


def torus_fixed_points(a: IMat, u: IVec, den: int) -> tuple[int, list[IVec]]:
    """The fixed points of x -> A x + u / den on the torus mod Z^2, A a
    rotation other than I: their denominator den det(I - A) and the points
    times it, reduced and sorted.

    The points are x = (I - A)^{-1} (u / den + k), k in Z^2, and
    (I - A)^{-1} = adj / d, d = det(I - A) = 2 - trace(A) > 0; adj k is
    integral for k in d Z^2, so the k in [0, d)^2 reach every point mod Z^2,
    and there are d of them.
    """
    m = mat_sub(IDENTITY_MAT, a)
    n = mat_det(m)
    adj = adjugate(m)
    big = den * n
    pts = sorted({vec_mod(mat_vec(adj, (u[0] + den * p, u[1] + den * q)), big)
                  for p in range(n) for q in range(n)})
    if len(pts) != n:
        raise StructuralError("torus fixed-point count disagrees with |det(I-A)|")
    return big, pts


def fixed_set(g: AffineIsometry) -> FixedSetDescriptor:
    """Fixed locus of an orientation-preserving g on the plane: everything,
    nothing, or the one centre of a rotation.  On the torus mod Z^2 the
    det(I - A) fixed points of a rotation come from `torus_fixed_points`."""
    a, t = g.point_part, g.translation
    if a == IDENTITY_MAT:
        return FixedSetDescriptor("full" if t == (0, 0) else "empty")
    if mat_det(mat_sub(IDENTITY_MAT, a)) == 0:
        raise StructuralError("orientation-reversing isometries have no isolated fixed points")
    return FixedSetDescriptor("points", (rotation_centre(a, t),))
