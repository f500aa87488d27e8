"""Static root-system data: Cartan matrices and paired positive roots/coroots.

Conventions
-----------
Node numbering follows Bourbaki for every family except G2, where alpha_1 is
the *long* simple root, so that ``<alpha_1, alpha_2^vee> = -3`` and
``<alpha_2, alpha_1^vee> = -1``.  For D_n the fork sits at node n-2 (nodes
n-1 and n both attach there).

The Cartan matrix is stored as ``C[i][j] = <alpha_j, alpha_i^vee>`` with
0-based storage indices; the public API speaks 1-based simple indices.
Roots are integer coordinate vectors over the simple roots, coroots over the
simple coroots, and weights are rational vectors over the fundamental
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import DimensionMismatchError, InvalidTypeError, NotACorootError

RootVec = Tuple[int, ...]
CorootVec = Tuple[int, ...]
WeightVec = Tuple[Fraction, ...]
IntMatrix = Tuple[Tuple[int, ...], ...]

_FAMILIES = "ABCDEFG"


@dataclass(frozen=True, order=True)
class CartanType:
    """A simple Cartan type, e.g. A4, D5 or G2."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam == "B" and n >= 2)
            or (fam == "C" and n >= 3)
            or (fam == "D" and n >= 4)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise InvalidTypeError(f"invalid Cartan type {fam}{n}")

    @staticmethod
    def parse(text: str) -> "CartanType":
        """Parse strings like ``"A4"``, ``"g2"`` (case-insensitive family)."""
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in _FAMILIES:
            raise InvalidTypeError(f"cannot parse Cartan type {text!r}")
        try:
            rank = int(text[1:])
        except ValueError as exc:
            raise InvalidTypeError(f"cannot parse Cartan type {text!r}") from exc
        return CartanType(text[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _edges(ct: CartanType) -> List[Tuple[int, int]]:
    """Dynkin diagram edges as 0-based node pairs (without multiplicity)."""
    n = ct.rank
    chain = [(i, i + 1) for i in range(n - 1)]
    if ct.family in ("A", "B", "C", "G"):
        return chain
    if ct.family == "F":
        return chain
    if ct.family == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    # E types, Bourbaki: chain 1-3-4-5-..., node 2 hangs off node 4.
    edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    return edges


def cartan_matrix(ct: CartanType) -> IntMatrix:
    """The Cartan matrix with C[i][j] = <alpha_j, alpha_i^vee> (0-based)."""
    n = ct.rank
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
    for a, b in _edges(ct):
        c[a][b] = -1
        c[b][a] = -1
    if ct.family == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        c[n - 1][n - 2] = -2
    elif ct.family == "C":
        # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
        c[n - 2][n - 1] = -2
    elif ct.family == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        c[2][1] = -2
    elif ct.family == "G":
        # alpha_1 long: <alpha_1, alpha_2^vee> = -3
        c[1][0] = -3
    return tuple(tuple(row) for row in c)


@dataclass(frozen=True)
class RootCorootPair:
    """A positive root together with its coroot, both as coordinate vectors."""

    root: RootVec
    coroot: CorootVec


@dataclass
class Memo:
    """The four memo tables a root datum owns; each lives as long as the
    datum.

    - ``canonical_words``: matrix -> canonical reduced word;
    - ``rightmost``: (k, reverse_ties) -> {matrix: (distance, witness word)};
    - ``reflections``: positive coroot -> its reflection;
    - ``length_drops``: matrix -> (eta, w s_eta, length drop) per inversion
      coroot eta.

    The coroot record of an element is not memoized: ``classify`` builds it
    once with ``cover_coroots`` and drops it with the report.
    """

    canonical_words: dict = field(default_factory=dict)
    rightmost: dict = field(default_factory=dict)
    reflections: dict = field(default_factory=dict)
    length_drops: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Immutable positive system for a simple Cartan type.

    ``positives`` is sorted by (coroot height, coroot coordinates, root
    coordinates); the position in this list is the *canonical index* of a
    pair, used for deterministic tie-breaking downstream.
    """

    cartan_type: CartanType
    cartan: IntMatrix
    positives: Tuple[RootCorootPair, ...]
    simply_laced: bool
    memo: Memo = field(default_factory=Memo, repr=False)

    def __post_init__(self) -> None:
        coroot_index: Dict[CorootVec, int] = {}
        pair_for_coroot: Dict[CorootVec, RootCorootPair] = {}
        for idx, pair in enumerate(self.positives):
            coroot_index[pair.coroot] = idx
            pair_for_coroot[pair.coroot] = pair
        object.__setattr__(self, "coroot_index", coroot_index)
        object.__setattr__(self, "pair_for_coroot", pair_for_coroot)
        coroots = tuple(p.coroot for p in self.positives)
        object.__setattr__(self, "positive_coroots", coroots)
        object.__setattr__(self, "highest_coroot", max(coroots, key=sum))
        # 2 rho^vee, the sum of the positive coroots: <alpha_i, 2 rho^vee> = 2
        object.__setattr__(self, "two_rho_coroot", tuple(map(sum, zip(*coroots))))

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def simple_coroot(self, i: int) -> CorootVec:
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def _reflect_root(cartan: IntMatrix, i: int, r: RootVec) -> RootVec:
    # s_i(r) = r - <r, alpha_i^vee> alpha_i, only coordinate i changes
    coef = sum(cartan[i][j] * r[j] for j in range(len(r)))
    out = list(r)
    out[i] -= coef
    return tuple(out)


def _reflect_coroot(cartan: IntMatrix, i: int, c: CorootVec) -> CorootVec:
    # s_i(c) = c - <alpha_i, c> alpha_i^vee
    coef = sum(cartan[j][i] * c[j] for j in range(len(c)))
    out = list(c)
    out[i] -= coef
    return tuple(out)


def build_root_datum(ct: CartanType | str) -> RootDatum:
    """Generate the full positive system by closing the simple pairs under
    parallel simple reflections (root and coroot components together)."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    cartan = cartan_matrix(ct)
    n = ct.rank
    simples = []
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        simples.append((unit, unit))
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for i in range(n):
                r2 = _reflect_root(cartan, i, root)
                if any(x < 0 for x in r2):
                    continue
                c2 = _reflect_coroot(cartan, i, coroot)
                if (r2, c2) not in seen:
                    seen.add((r2, c2))
                    nxt.append((r2, c2))
        frontier = nxt
    ordered = sorted(seen, key=lambda rc: (sum(rc[1]), rc[1], rc[0]))
    positives = tuple(RootCorootPair(root=r, coroot=c) for r, c in ordered)
    return RootDatum(
        cartan_type=ct,
        cartan=cartan,
        positives=positives,
        simply_laced=ct.family in ("A", "D", "E"),
    )


def pair_root_coroot(datum: RootDatum, r: RootVec, c: CorootVec) -> int:
    """Bilinear pairing <r, c> extending <alpha_j, alpha_i^vee> = C[i][j]."""
    n = datum.rank
    if len(r) != n or len(c) != n:
        raise DimensionMismatchError(
            f"expected vectors of length {n}, got {len(r)} and {len(c)}"
        )
    cartan = datum.cartan
    return sum(c[i] * cartan[i][j] * r[j] for i in range(n) for j in range(n) if c[i] and r[j])


def pair_root_with_simple_coroot(datum: RootDatum, r: RootVec, j: int) -> int:
    """<r, alpha_j^vee> for a root vector r and 1-based simple index j."""
    row = datum.cartan[j - 1]
    return sum(row[m] * r[m] for m in range(datum.rank) if r[m])


def height(c: CorootVec) -> int:
    """Sum of the coroot coefficients (pairing with rho)."""
    return sum(c)


def fundamental_weight(datum: RootDatum, i: int) -> WeightVec:
    """The weight omega_i as a coordinate vector over fundamental weights."""
    return tuple(Fraction(1 if j == i - 1 else 0) for j in range(datum.rank))


def weight_coroot_pairing(w: WeightVec, c: CorootVec) -> Fraction:
    """<sum w_i omega_i, c> = sum over i of w_i * (coefficient of
    alpha_i^vee in c)."""
    if len(w) != len(c):
        raise DimensionMismatchError(
            f"weight has length {len(w)}, coroot has length {len(c)}"
        )
    return sum((wi * ci for wi, ci in zip(w, c)), Fraction(0))


def require_positive_coroot(datum: RootDatum, c: CorootVec) -> RootCorootPair:
    pair = datum.pair_for_coroot.get(tuple(c))
    if pair is None:
        raise NotACorootError(f"{c} is not a positive coroot of {datum.cartan_type}")
    return pair
