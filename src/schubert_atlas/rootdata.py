"""Static root-system data: Cartan matrices and paired positive roots/coroots.

Conventions
-----------
Node numbering follows Bourbaki for every family except G2, where alpha_1 is
the *long* simple root, so that ``<alpha_1, alpha_2^vee> = -3`` and
``<alpha_2, alpha_1^vee> = -1``.  For D_n the fork sits at node n-2 (nodes
n-1 and n both attach there).

The Cartan matrix is stored as ``C[i][j] = <alpha_j, alpha_i^vee>`` with
0-based storage indices; the public API speaks 1-based simple indices.
Roots are integer coordinate vectors over the simple roots and coroots over
the simple coroots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import InvalidTypeError

RootVec = Tuple[int, ...]
CorootVec = Tuple[int, ...]
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

    @property
    def positive_root_count(self) -> int:
        """|Phi+|, by the closed form of each family."""
        n = self.rank
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family in "BC":
            return n * n
        if self.family == "D":
            return n * (n - 1)
        return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[str(self)]


def _edges(ct: CartanType) -> List[Tuple[int, int]]:
    """Dynkin diagram edges as 0-based node pairs (without multiplicity)."""
    n = ct.rank
    chain = [(i, i + 1) for i in range(n - 1)]
    if ct.family in ("A", "B", "C", "F", "G"):
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


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Immutable positive system for a simple Cartan type.

    ``positives`` is sorted by (coroot height, coroot coordinates, root
    coordinates); the position in this list is the *canonical index* of a
    pair, used for deterministic tie-breaking downstream and as the bit of
    the coroot in every coroot mask (``unit_masks``, ``parabolic_tables``,
    ``weyl.ElementRecord``), so the set bits of a mask, read upward, come in
    canonical order.
    ``coroot_by_pairings`` maps the pairings (<r, alpha_1^vee>, ...,
    <r, alpha_n^vee>) of each positive root r, which determine r, to its
    coroot; ``pairings`` is its inverse, from each positive coroot to the
    pairings of its root.  ``moves[i]`` lists the pairs (b, C[b][i]) with
    C[b][i] != 0, the nonzero entries of Cartan column i (0-based): the
    columns b of x that ``weyl._times_simple`` rewrites for x -> x s_{i+1},
    and the rows of w that ``weyl._lift`` sums for s_{i+1} w.
    ``coroot_keys[i]`` packs the coroot of canonical index i into one
    integer, sum_j c_j << 5j, and ``key_bits`` maps each key to the bit of
    its coroot.  Coefficients stay below 32 in every sum c * eta and gamma +
    mu that ``weyl`` forms (at most 3 * 3 in G2, 2 * 4 in F4, 6 in E8), so a
    key of such a sum carries nothing between coefficients and names the
    sum exactly.  ``bond_multiples`` is 1, ..., the largest bond
    multiplicity: every c with c * eta = mu + mu' over positive coroots.
    ``unit_masks[k - 1]`` masks the positive coroots with k-th coefficient 1.

    None of these changes once the datum is built.  The one cache,
    ``parabolic_tables``, maps each non-empty I_P used with the datum (one
    in any command-line run, none in a Borel run) to its
    ``weyl.ParabolicTable``; only ``weyl.parabolic_table`` reads or fills it.
    """

    cartan_type: CartanType
    cartan: IntMatrix
    positives: Tuple[RootCorootPair, ...]
    simply_laced: bool
    coroot_by_pairings: Dict[Tuple[int, ...], CorootVec] = field(repr=False)
    parabolic_tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        coroots = tuple(p.coroot for p in self.positives)
        object.__setattr__(self, "positive_coroots", coroots)
        object.__setattr__(self, "coroot_index", {c: i for i, c in enumerate(coroots)})
        pairings = {c: p for p, c in self.coroot_by_pairings.items()}
        object.__setattr__(self, "pairings", pairings)
        # 2 rho^vee, the sum of the positive coroots: <alpha_i, 2 rho^vee> = 2
        object.__setattr__(self, "two_rho_coroot", tuple(map(sum, zip(*coroots))))
        object.__setattr__(self, "moves", _column_moves(self.cartan))
        keys = tuple(sum(x << 5 * j for j, x in enumerate(c)) for c in coroots)
        object.__setattr__(self, "coroot_keys", keys)
        object.__setattr__(self, "key_bits", {k: 1 << i for i, k in enumerate(keys)})
        bond = max(1, -min(map(min, self.cartan)))
        object.__setattr__(self, "bond_multiples", tuple(range(1, bond + 1)))
        units = tuple(
            sum(1 << i for i, c in enumerate(coroots) if c[k0] == 1)
            for k0 in range(self.rank)
        )
        object.__setattr__(self, "unit_masks", units)

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def simple_coroot(self, i: int) -> CorootVec:
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))


def _column_moves(cartan: IntMatrix) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    # the nonzero C[b][i] of each column i, as (b, C[b][i])
    return tuple(tuple((b, a) for b, a in enumerate(col) if a) for col in zip(*cartan))


def _reflect_coroot(cartan: IntMatrix, i: int, c: CorootVec) -> CorootVec:
    # s_i(c) = c - <alpha_i, c> alpha_i^vee
    coef = sum(cartan[j][i] * c[j] for j in range(len(c)))
    out = list(c)
    out[i] -= coef
    return tuple(out)


def build_root_datum(ct: CartanType | str) -> RootDatum:
    """Generate the full positive system from the simple pairs by raising
    reflections only.  For a root r with p_i = <r, alpha_i^vee> < 0,
    s_i(r) = r - p_i alpha_i is a higher positive root whose coroot is s_i
    of r's coroot; only coordinate i changes in either, and the pairings of
    s_i(r) are r's plus -p_i times column i of the Cartan matrix.  Each
    non-simple positive root r has an i with <r, alpha_i^vee> > 0, and s_i(r)
    is a lower positive root (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.2), so raising alone reaches every root and
    the lowering reflections are skipped."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    if ct.positive_root_count > 120:  # E8's; the closure costs ~rank^3 in type A
        raise InvalidTypeError(
            f"{ct} has {ct.positive_root_count} positive roots; "
            "types with more than 120 (as many as E8) are not supported"
        )
    cartan = cartan_matrix(ct)
    n = ct.rank
    # the nonzero C[j][i] of each column i, for <alpha_i, c> and the pairings
    cols = _column_moves(cartan)
    walk = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    # root -> (coroot, pairings (<r, alpha_1^vee>, ..., <r, alpha_n^vee>))
    found = {r: (r, col) for r, col in zip(walk, zip(*cartan))}
    for root in walk:  # grows as it is walked
        coroot, pairings = found[root]
        for i, p in enumerate(pairings):
            if p < 0:
                r2 = root[:i] + (root[i] - p,) + root[i + 1:]
                if r2 not in found:
                    q = sum(a * coroot[j] for j, a in cols[i])
                    p2 = list(pairings)
                    for j, a in cols[i]:
                        p2[j] -= p * a
                    c2 = coroot[:i] + (coroot[i] - q,) + coroot[i + 1:]
                    found[r2] = (c2, tuple(p2))
                    walk.append(r2)
    ordered = sorted((sum(c), c, r) for r, (c, _) in found.items())
    positives = tuple(RootCorootPair(root=r, coroot=c) for _, c, r in ordered)
    return RootDatum(
        cartan_type=ct,
        cartan=cartan,
        positives=positives,
        simply_laced=ct.family in ("A", "D", "E"),
        coroot_by_pairings={p: c for c, p in found.values()},
    )


def height(c: CorootVec) -> int:
    """Sum of the coroot coefficients (pairing with rho)."""
    return sum(c)
