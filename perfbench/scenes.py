"""Seeded scene and op generator for the three benchmark workloads.

Pure Python with no import of orbindex: everything here is derived from the
seed alone, so the same seed gives the same documents, the same op order and
the same references.  Expected values are computed here from closed forms, not
by the program under test:

* S^2/Z_n with O(k), k >= 0: index floor(k/n) + 1 (invariant monomials);
* a quotient by a group with a nontrivial rotation, untwisted: index 1;
* the free torus: index 0;
* the bundled fixtures: the README table.

Two defects of the program are known at the commit that introduced this
benchmark, and a third is folded in so that every workload has a nonzero
failure share.  The ops that hit them are marked with the defect name and run
like every other op; their failures are counted, never skipped:

* ``negative_twist_verify``: ``verify`` on a sphere with k < 0 exits 1
  ("oracle degree bounds exceeded", the oracle has no H^1 branch);
* ``non_unit_lattice_heat``: three-t ``heat`` on a large lattice exits 2,
  because the Euclidean orbital integral uses a fixed grid and misses 1e-6
  at t = 0.05;
* ``cyclo_hash_across_orders``: equal ``Cyclo`` values of different orders
  hash differently (``Cyclo.__hash__`` promotes to its own order).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

WORKLOADS = ("exact_catalogue", "heat_verify", "exact_algebra")

FIXTURE_NAMES = ("e_z4", "t2_z2", "torus_free", "s2_z3_o7", "p4", "p2", "p4_spinc")

# Quotient indices of the bundled fixtures, as tabulated in the README.
FIXTURE_INDEX = {"e_z4": 1, "t2_z2": 1, "torus_free": 0, "s2_z3_o7": 3,
                 "p4": 1, "p2": 1, "p4_spinc": 1}

ROT4 = [[0, -1], [1, 0]]
ROT2 = [[-1, 0], [0, -1]]

# Large lattices on which three-t heat misses its gate through the fixed
# orbital-integral grid.  On every p4 lattice listed the r2_* classes fail;
# on every p2 lattice listed all rotation classes fail.  Single-t (t = 0.1)
# jobs pass on all of them.  Basis rows as exact rational strings.
P4_LARGE_LATTICES = (
    (("2", "0"), ("0", "2")),
    (("3", "0"), ("0", "3")),
    (("5/2", "0"), ("0", "5/2")),
    (("2", "-1"), ("1", "2")),
    (("2", "-2"), ("2", "2")),
)
P2_LARGE_LATTICES = (
    (("2", "0"), ("0", "3")),
    (("3", "0"), ("0", "2")),
    (("3", "0"), ("0", "3")),
    (("2", "1"), ("0", "3")),
    (("5/2", "0"), ("0", "3")),
)
P4_LARGE_FAILING_LABELS = ("r2_center", "r2_edge", "r2_origin")

HEAT_TOL = 1e-6
THREE_T = "0.05,0.1,0.2"
ONE_T = "0.1"


@dataclass
class Scene:
    """One generated model document and what the benchmark expects of it."""

    name: str
    doc: dict
    index: Optional[int]          # reference quotient index, None if unknown
    finite: bool                  # acting group finite: assembly and lefschetz apply
    float_mode: bool = False
    tags: tuple = ()

    @property
    def tol(self) -> float:
        return 1e-6 if self.float_mode else 1e-9


@dataclass
class Op:
    """One closed-loop operation: a CLI command line or a library call."""

    kind: str                     # catalogue command, "heat", or an algebra op kind
    scene: str = ""
    args: tuple = ()              # CLI arguments after the model path
    known_defect: str = ""        # defect this op is expected to hit, if any
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        """Identifies repeats of the same op across cycles."""
        return (self.kind, self.scene, self.args, repr(sorted(self.params.items())))


def fixture_dir(root: Path) -> Path:
    return root / "src" / "orbindex" / "fixtures"


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


# ---------------------------------------------------------------------------
# Document builders
# ---------------------------------------------------------------------------

def _options(float_mode: bool) -> dict:
    return {"mode": "float" if float_mode else "exact", "tolerance": 1e-08}


def sphere_doc(n: int, k: int, float_mode: bool = False) -> dict:
    return {
        "schemaVersion": 1,
        "ambient": {"kind": "sphere", "radius": "1"},
        "group": {"kind": "polar_rotation", "order": n},
        "bundle": {"operatorKind": "dolbeault", "twistDegree": k},
        "options": _options(float_mode),
    }


def torus_doc(generator, lattice, float_mode: bool = False) -> dict:
    return {
        "schemaVersion": 1,
        "ambient": {"kind": "torus", "lattice": [list(r) for r in lattice]},
        "group": {"kind": "finite_torus",
                  "generators": [{"matrix": generator, "translation": ["0", "0"]}]},
        "bundle": {"operatorKind": "dolbeault", "twistDegree": 0},
        "options": _options(float_mode),
    }


def plane_doc(rotation, lattice, float_mode: bool = False) -> dict:
    gens = [{"matrix": rotation, "translation": ["0", "0"]},
            {"matrix": [[1, 0], [0, 1]], "translation": ["1", "0"]},
            {"matrix": [[1, 0], [0, 1]], "translation": ["0", "1"]}]
    return {
        "schemaVersion": 1,
        "ambient": {"kind": "plane"},
        "group": {"kind": "wallpaper", "lattice": [list(r) for r in lattice],
                  "generators": gens},
        "bundle": {"operatorKind": "dolbeault", "twistDegree": 0},
        "options": _options(float_mode),
    }


def _small_rational(rng: random.Random, lo: int = 1, hi: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def square_lattice(rng: random.Random):
    """s * [[p, -q], [q, p]]: Gram matrix a multiple of I, so the quarter
    turn is an isometry."""
    s = _small_rational(rng)
    p, q = rng.choice(((1, 0), (1, 1), (2, 1), (1, 2)))
    return ((str(s * p), str(-s * q)),
            (str(s * q), str(s * p)))


def general_lattice(rng: random.Random):
    """Upper-triangular rational basis; every lattice admits the half turn."""
    a, c = _small_rational(rng), _small_rational(rng)
    b = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return ((str(a), str(b)), ("0", str(c)))


def sphere_index(n: int, k: int) -> Optional[int]:
    return k // n + 1 if k >= 0 else None


def load_fixture(root: Path, name: str) -> dict:
    with open(fixture_dir(root) / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fixture_scenes(root: Path) -> list[Scene]:
    out = []
    for name in FIXTURE_NAMES:
        doc = load_fixture(root, name)
        finite = doc["group"]["kind"] != "wallpaper"
        out.append(Scene(name, doc, FIXTURE_INDEX[name], finite))
    return out


# ---------------------------------------------------------------------------
# exact_catalogue
# ---------------------------------------------------------------------------

def catalogue_scenes(root: Path, seed: int) -> list[Scene]:
    """Seven fixtures, 14 spheres (two twists per order 2..8, one from each
    half of 0..13), two negative twists, Z2/Z4 tori and p2/p4 planes on seeded
    rational lattices, and three float-mode copies."""
    rng = _rng("exact_catalogue", seed, "scenes")
    scenes = _fixture_scenes(root)
    for n in range(2, 9):
        for half, (lo, hi) in enumerate(((0, 6), (7, 13))):
            k = rng.randint(lo, hi)
            scenes.append(Scene(f"s2_z{n}_o{k}_{half}", sphere_doc(n, k),
                                sphere_index(n, k), True))
    for n in (3, 5):
        k = rng.randint(-6, -1)
        scenes.append(Scene(f"s2_z{n}_neg{-k}", sphere_doc(n, k), None, True,
                            tags=("negative_twist",)))
    z2_lat, z4_lat = general_lattice(rng), square_lattice(rng)
    p2_lat, p4_lat = general_lattice(rng), square_lattice(rng)
    scenes.append(Scene("t2_z2_seeded", torus_doc(ROT2, z2_lat), 1, True))
    scenes.append(Scene("t2_z4_seeded", torus_doc(ROT4, z4_lat), 1, True))
    scenes.append(Scene("p2_seeded", plane_doc(ROT2, p2_lat), 1, False))
    scenes.append(Scene("p4_seeded", plane_doc(ROT4, p4_lat), 1, False))
    k7 = rng.randint(0, 13)
    scenes.append(Scene(f"s2_z7_o{k7}_float", sphere_doc(7, k7, True),
                        sphere_index(7, k7), True, float_mode=True))
    scenes.append(Scene("t2_z4_float", torus_doc(ROT4, z4_lat, True), 1, True,
                        float_mode=True))
    scenes.append(Scene("p4_float", plane_doc(ROT4, p4_lat, True), 1, False,
                        float_mode=True))
    return scenes


def catalogue_ops(scenes: list[Scene], labels: dict[str, list[str]]) -> list[Op]:
    """Every command on every scene: classes, sectors, index for each method
    the model accepts, localized for each sector-bearing label, verify."""
    ops = []
    for sc in scenes:
        ops.append(Op("classes", sc.name))
        ops.append(Op("sectors", sc.name))
        methods = ("kawasaki", "assembly", "lefschetz") if sc.finite else ("kawasaki",)
        for m in methods:
            ops.append(Op("index", sc.name, ("--method", m)))
        for label in labels[sc.name]:
            ops.append(Op("localized", sc.name, ("--class", label)))
        defect = "negative_twist_verify" if "negative_twist" in sc.tags else ""
        ops.append(Op("verify", sc.name, (), known_defect=defect))
    return ops


# ---------------------------------------------------------------------------
# heat_verify
# ---------------------------------------------------------------------------

def heat_scenes(root: Path, seed: int) -> list[Scene]:
    """Unit-square p4 and p2, and every large rational lattice of the two
    families; the seed decides which large lattices the jobs use."""
    scenes = [Scene("p4", load_fixture(root, "p4"), 1, False),
              Scene("p2", load_fixture(root, "p2"), 1, False)]
    for i, lat in enumerate(P4_LARGE_LATTICES):
        scenes.append(Scene(f"p4_large{i}", plane_doc(ROT4, lat), 1, False))
    for i, lat in enumerate(P2_LARGE_LATTICES):
        scenes.append(Scene(f"p2_large{i}", plane_doc(ROT2, lat), 1, False))
    return scenes


# (scene family, t list, cut-off, label pool) for each slot of a cycle.
# "rot" is a seeded rotation label of the scene, "r2" a seeded p4 half-turn
# label, and a literal label is used as is.  The three-t t1_0 job has four
# of the thirteen successful slots.  Three jobs are always cheaper than it
# and four always dearer; the p4 single-t job and the p2 smooth job take
# within a fifth of its time, on either side depending on the label and the
# host.  Either way the median op is a t1_0 job (ball enumeration and
# membership tests, no quadrature), not the boundary between two kinds of
# job.  At the top, the p4 smooth job (the dearest, one slot) and the
# three-t p4 r_center job (three slots) fill the eleven dearest samples of
# any run of three or more cycles, so op_tail_ms is always the r_center job
# and the seed does not decide the tail.
HEAT_SLOTS = (
    ("p4", ONE_T, "indicator", "rot"),
    ("p2", THREE_T, "indicator", "rot"),
    ("p4_large", ONE_T, "indicator", "rot"),
    ("p2_large", ONE_T, "indicator", "rot"),
    ("p4", THREE_T, "indicator", "t1_0"),
    ("p4", THREE_T, "indicator", "t1_0"),
    ("p4", THREE_T, "indicator", "t1_0"),
    ("p4", THREE_T, "indicator", "t1_0"),
    ("p2", ONE_T, "smooth", "r_center"),
    ("p4", THREE_T, "indicator", "r_center"),
    ("p4", THREE_T, "indicator", "r_center"),
    ("p4", THREE_T, "indicator", "r_center"),
    ("p4", ONE_T, "smooth", "r_center"),
    ("p4_large", THREE_T, "indicator", "r2"),
    ("p2_large", THREE_T, "indicator", "rot"),
)


def heat_ops(seed: int, labels: dict[str, list[str]]) -> list[Op]:
    """The jobs of one cycle: the seed picks each slot's label and each large
    slot's lattice; every cycle repeats the same jobs in a new order."""
    rng = _rng("heat_verify", seed, "jobs")
    ops = []
    for family, t, cutoff, pool in HEAT_SLOTS:
        if family.endswith("_large"):
            lattices = P4_LARGE_LATTICES if family == "p4_large" else P2_LARGE_LATTICES
            scene = f"{family}{rng.randrange(len(lattices))}"
        else:
            scene = family
        if pool == "rot":
            label = rng.choice([l for l in labels[scene] if l != "e"])
        elif pool == "r2":
            label = rng.choice(P4_LARGE_FAILING_LABELS)
        else:
            label = pool
        defect = "non_unit_lattice_heat" if family.endswith("_large") and t == THREE_T else ""
        ops.append(Op("heat", scene, ("--class", label, "--t", t, "--cutoff", cutoff),
                      known_defect=defect))
    return ops


def shuffled(workload: str, seed: int, c: int, ops: list[Op]) -> list[Op]:
    """The cycle's ops in the seeded order of cycle c."""
    out = list(ops)
    _rng(workload, seed, f"order{c}").shuffle(out)
    return out


# ---------------------------------------------------------------------------
# exact_algebra
# ---------------------------------------------------------------------------

# Fixed mix per cycle.  The trace-property ops on C[p4] are the most numerous,
# so the median op is one of them.  Their cost follows the seed's random
# elements, so the median is a quantile of a seeded sample of costs: with 72
# of them it moved by a tenth between seeds, hence 144.  Every point class of
# p4 and p2 gets one direct section sum per cycle; the hash-contract ops are
# the fixed failing share.
ALGEBRA_MIX = (("trace_S3", 16), ("trace_Z4", 16), ("trace_p4", 144),
               ("section", 11), ("hash_contract", 6))


def algebra_ops(seed: int, section_targets: list[tuple[str, str]]) -> list[Op]:
    """The ops of one cycle; every cycle repeats them in a new order."""
    rng = _rng("exact_algebra", seed, "ops")
    ops = []
    for kind, count in ALGEBRA_MIX:
        if kind == "section":
            ops.extend(Op("section", scene, (label,)) for scene, label in section_targets)
            continue
        for _ in range(count):
            if kind == "hash_contract":
                ops.append(Op(kind, known_defect="cyclo_hash_across_orders",
                              params=hash_contract_params(rng)))
            else:
                ops.append(Op(kind, params={"seed": rng.getrandbits(32)}))
    return ops


def hash_contract_params(rng: random.Random) -> dict:
    """A non-rational element of Q(zeta_n) and a proper multiple of n."""
    n = rng.choice((3, 4, 5))
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)]
    coeffs[1] = coeffs[1] or Fraction(1)
    return {"order": n, "coeffs": coeffs, "promote_to": n * rng.choice((2, 3))}
