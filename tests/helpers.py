"""Shared test utilities: independent oracles kept deliberately separate from
the library code paths they check."""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import schubert_atlas as sa
from schubert_atlas import oracle, weyl
from schubert_atlas.errors import SchubertAtlasError, SingularMatrixError
from schubert_atlas.exactlinalg import invert_unimodular
from schubert_atlas.rootdata import RootCorootPair, _reflect_coroot
from schubert_atlas.schubert import CSV_FIELDS


def schubert_input(datum, inside, word):
    w = sa.element_from_word(datum, word)
    return sa.SchubertInput(
        datum=datum, parabolic=sa.parabolic(datum, inside), w=w
    )


def is_min_coset_rep(w, p) -> bool:
    """Whether w is in W^P: no j of I_P is a right descent of w."""
    return all(not weyl.has_right_descent(w, j) for j in p.inside)


def cover_coroots_direct(inp) -> FrozenSet[Tuple[int, ...]]:
    """R+_{w,P} straight from the definition: eta counts iff the reflection
    drops the length by exactly one and lands back in W^P.  No
    indecomposability logic anywhere."""
    out = set()
    for eta, u, drop in oracle._length_drop_pairs(inp.datum, inp.w):
        if drop == 1 and is_min_coset_rep(u, inp.parabolic):
            out.add(eta)
    return frozenset(out)


def valid_parabolics(datum, w) -> Iterable[Tuple[int, ...]]:
    """Every I_P with w in W^P: subsets of the non-descent indices."""
    free = [j for j in range(1, datum.rank + 1) if not weyl.has_right_descent(w, j)]
    for r in range(len(free) + 1):
        yield from itertools.combinations(free, r)


# --- matrix product, determinant, rank and inverse oracles -----------------


def mat_mul(a, b):
    cols = range(len(b[0])) if b else ()
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in cols)
        for row in a
    )



def cofactor_det(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def fraction_rank(m) -> int:
    if not m or not m[0]:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    nr, nc = len(a), len(a[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def gauss_jordan_inverse(m):
    """Exact inverse over Q by Gauss-Jordan with fractions: a reference for
    the fraction-free adjugate, raising ``SingularMatrixError`` alike."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col]), None)
        if pr is None:
            raise SingularMatrixError("matrix is singular over Q")
        a[col], a[pr] = a[pr], a[col]
        inv_piv = 1 / a[col][col]
        a[col] = [x * inv_piv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[n:]) for row in a)


# --- root system closure reference ------------------------------------------


def reflect_root(cartan, i, r):
    # s_i(r) = r - <r, alpha_i^vee> alpha_i, only coordinate i changes
    coef = sum(cartan[i][j] * r[j] for j in range(len(r)))
    out = list(r)
    out[i] -= coef
    return tuple(out)


def parallel_reflection_closure(cartan):
    """(positives, coroot_by_pairings) by closing the simple pairs under
    every simple reflection, root and coroot components together, level by
    level and dropping the images with a negative coordinate: the reference
    for the raise-only walk of ``build_root_datum``.  Reflecting r in
    alpha_i lowers its coordinate i by <r, alpha_i^vee>, which gives the
    pairings of r on the way."""
    n = len(cartan)
    simples = []
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        simples.append((unit, unit))
    seen = set(simples)
    frontier = list(simples)
    coroot_by_pairings = {}
    while frontier:
        nxt = []
        for root, coroot in frontier:
            pairings = []
            for i in range(n):
                r2 = reflect_root(cartan, i, root)
                pairings.append(root[i] - r2[i])
                if any(x < 0 for x in r2):
                    continue
                c2 = _reflect_coroot(cartan, i, coroot)
                if (r2, c2) not in seen:
                    seen.add((r2, c2))
                    nxt.append((r2, c2))
            coroot_by_pairings[tuple(pairings)] = coroot
        frontier = nxt
    ordered = sorted(seen, key=lambda rc: (sum(rc[1]), rc[1], rc[0]))
    positives = tuple(RootCorootPair(root=r, coroot=c) for r, c in ordered)
    return positives, coroot_by_pairings


# --- Poincare-polynomial row-count oracle ---------------------------------

_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "BC": lambda n: list(range(2, 2 * n + 1, 2)),
    "D": lambda n: list(range(2, 2 * n - 1, 2)) + [n],
    "E6": lambda n: [2, 5, 6, 8, 9, 12],
    "E7": lambda n: [2, 6, 8, 10, 12, 14, 18],
    "E8": lambda n: [2, 8, 12, 14, 18, 20, 24, 30],
    "F": lambda n: [2, 6, 8, 12],
    "G": lambda n: [2, 6],
}


def type_degrees(family: str, rank: int) -> List[int]:
    if family in ("B", "C"):
        return _DEGREES["BC"](rank)
    if family == "E":
        return _DEGREES[f"E{rank}"](rank)
    return _DEGREES[family](rank)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> List[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q)):
        c = num[i]
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    assert all(x == 0 for x in num), "non-exact polynomial division"
    return q


def poincare_poly(degrees: Sequence[int]) -> List[int]:
    out = [1]
    for d in degrees:
        out = _poly_mul(out, [1] * d)
    return out


def _component_degrees(sub) -> List[int]:
    size = len(sub)
    if size == 1:
        return [2]
    adj = {
        i: [j for j in range(size) if j != i and sub[i][j] != 0] for i in range(size)
    }
    if any(sub[i][j] == -3 for i in range(size) for j in range(size) if i != j):
        return type_degrees("G", 2)
    asym = [
        (i, j)
        for i in range(size)
        for j in range(size)
        if i != j and sub[i][j] == -2
    ]
    if asym:
        i, j = asym[0]
        interior = len(adj[i]) >= 2 and len(adj[j]) >= 2
        if size == 4 and interior:
            return type_degrees("F", 4)
        return type_degrees("B", size)
    degrees3 = [i for i in range(size) if len(adj[i]) == 3]
    if not degrees3:
        return type_degrees("A", size)
    center = degrees3[0]
    branch_sizes = []
    for start in adj[center]:
        count = 1
        prev, cur = center, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            count += 1
        branch_sizes.append(count)
    branch_sizes.sort()
    if branch_sizes[0] == 1 and branch_sizes[1] == 1:
        return type_degrees("D", size)
    return type_degrees("E", size)


def parabolic_subgroup_poly(datum, inside: Sequence[int]) -> List[int]:
    inside = sorted(set(inside))
    if not inside:
        return [1]
    remaining = set(inside)
    out = [1]
    while remaining:
        comp = [remaining.pop()]
        grew = True
        while grew:
            grew = False
            for i in list(remaining):
                if any(datum.cartan[i - 1][j - 1] != 0 for j in comp):
                    comp.append(i)
                    remaining.discard(i)
                    grew = True
        comp.sort()
        sub = [[datum.cartan[a - 1][b - 1] for b in comp] for a in comp]
        out = _poly_mul(out, poincare_poly(_component_degrees(sub)))
    return out


def coset_length_counts(datum, inside: Sequence[int]) -> List[int]:
    """Coefficients of W(q) / W_P(q): the number of w in W^P per length."""
    full = poincare_poly(
        type_degrees(datum.cartan_type.family, datum.cartan_type.rank)
    )
    return _poly_div_exact(full, parabolic_subgroup_poly(datum, inside))


# --- inverse-based Weyl references ------------------------------------------


def canonical_word_reference(w) -> Tuple[int, ...]:
    """Peel the smallest left descent of w, read off the exact inverse: i is a
    left descent of w exactly when it is a right descent of w^-1."""
    w_inv = weyl.WeylElement(w.datum, invert_unimodular(w.matrix), w.length)
    letters = []
    while not w_inv.is_identity:
        i = next(i for i in range(1, w.datum.rank + 1) if weyl.has_right_descent(w_inv, i))
        letters.append(i)
        w_inv = weyl.right_mul_simple(w_inv, i)
    return tuple(letters)


def enumerate_reference(datum, p, max_len, key=canonical_word_reference):
    """W^P up to length max_len by walking all of W level by level (right
    multiplication by ascents) and keeping the minimal coset
    representatives, each level sorted by ``key``."""
    level = {weyl.identity_element(datum)}
    length = 0
    while level and length <= max_len:
        yield from sorted((w for w in level if is_min_coset_rep(w, p)), key=key)
        level = {
            weyl.right_mul_simple(w, i)
            for w in level
            for i in range(1, datum.rank + 1)
            if not weyl.has_right_descent(w, i)
        }
        length += 1


# --- element helpers that only tests need ------------------------------------


def inverse(w):
    return sa.element_from_word(w.datum, sa.canonical_reduced_word(w)[::-1])


class NotACorootError(SchubertAtlasError):
    """The given vector is not a positive coroot of the root datum."""


def require_positive_coroot(datum, c) -> RootCorootPair:
    """The positive pair of the coroot c, or ``NotACorootError``."""
    index = datum.coroot_index.get(tuple(c))
    if index is None:
        raise NotACorootError(f"{c} is not a positive coroot of {datum.cartan_type}")
    return datum.positives[index]


def highest_coroot(datum):
    """The highest coroot theta: the positive coroot of greatest height."""
    return max(datum.positive_coroots, key=sum)


def multiply(a, b):
    """The product a b, its length counted by ``oracle._count_inversions``."""
    cols = tuple(zip(*b.matrix))
    matrix = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a.matrix)
    return weyl.WeylElement(a.datum, matrix, oracle._count_inversions(a.datum, matrix))


def reflection_element(datum, c):
    """The reflection attached to a positive coroot (sends it to its
    negative): column j of its matrix is alpha_j^vee - <root(c), alpha_j^vee> c."""
    c = tuple(c)
    require_positive_coroot(datum, c)
    n = datum.rank
    pairings = datum.pairings[c]  # <root, alpha_j^vee> for each j
    cols = [
        tuple((1 if r == j else 0) - pairings[j] * c[r] for r in range(n))
        for j in range(n)
    ]
    matrix = tuple(tuple(cols[j][r] for j in range(n)) for r in range(n))
    return weyl.WeylElement(datum, matrix, oracle._count_inversions(datum, matrix))


def coset_factorize(w, p):
    """Split w = u * v with u in W^P, v in W_P, lengths additive."""
    u = sa.min_coset_rep(w, p)
    return u, multiply(inverse(u), w)


def longest_element(datum):
    w = weyl.identity_element(datum)
    while w.length < len(datum.positives):  # l(w0) is the number of positive roots
        i = next(i for i in range(1, datum.rank + 1) if not weyl.has_right_descent(w, i))
        w = weyl.right_mul_simple(w, i)
    return w


def coroot_for(basis, k):
    """The coroot of an adapted basis stored under key k."""
    return dict(basis.entries)[k]


def act(w, c):
    """w(c) for a coroot c in the simple-coroot basis: the matrix of w
    applied to c."""
    return tuple(sum(x * y for x, y in zip(row, c)) for row in w.matrix)


def pair_root_coroot(datum, r, c) -> int:
    """Bilinear pairing <r, c> extending <alpha_j, alpha_i^vee> = C[i][j]."""
    cartan = datum.cartan
    return sum(ci * row[j] * r[j] for ci, row in zip(c, cartan) for j in range(len(r)))


def parabolic_images_reference(w, eta, inside):
    """(j, s_eta(alpha_j^vee)) for each j of ``inside``, ascending, whose
    image is an inversion coroot of w, by the reflection formula
    s_eta(c) = c - <root(eta), c> eta: the image is taken for every j,
    whatever the sign of the pairing, and kept when it is positive and w
    sends it negative."""
    datum = w.datum
    root = require_positive_coroot(datum, eta).root
    n = datum.rank
    out = []
    for j in inside:
        coef = sum(datum.cartan[j - 1][m] * root[m] for m in range(n))
        image = tuple((1 if m == j - 1 else 0) - coef * eta[m] for m in range(n))
        if sum(image) > 0 and sum(act(w, image)) < 0:
            out.append((j, image))
    return out


# --- Bruhat order by the right-descent recursion ---------------------------


def bruhat_leq(u, w) -> bool:
    """u <= w in the Bruhat order, by the standard right-descent recursion:
    for a right descent s of w, u <= w iff min(u, us) <= ws."""
    if u.length > w.length:
        return False
    if u.length == 0 or u.matrix == w.matrix:
        return True
    i = next(i for i in range(1, w.datum.rank + 1) if weyl.has_right_descent(w, i))
    w_short = weyl.right_mul_simple(w, i)
    if weyl.has_right_descent(u, i):
        return bruhat_leq(weyl.right_mul_simple(u, i), w_short)
    return bruhat_leq(u, w_short)


def bruhat_covers(u, w) -> bool:
    """w covers u: u < w with length difference exactly one."""
    return u.length + 1 == w.length and bruhat_leq(u, w)


# --- weights ----------------------------------------------------------------

WeightVec = Tuple[Fraction, ...]


def fundamental_weight(datum, i: int) -> WeightVec:
    """The weight omega_i as a coordinate vector over fundamental weights."""
    return tuple(Fraction(1 if j == i - 1 else 0) for j in range(datum.rank))


def weight_coroot_pairing(w: WeightVec, c) -> Fraction:
    """<sum w_i omega_i, c> = sum over i of w_i * (coefficient of
    alpha_i^vee in c)."""
    if len(w) != len(c):
        raise ValueError(f"weight has length {len(w)}, coroot has length {len(c)}")
    return sum((wi * ci for wi, ci in zip(w, c)), Fraction(0))


# --- word-carrying walks: references for the coroot-carrying ones -----------
#
# These step by matrix products with reflection matrices built here from the
# Cartan matrix, and read right descents off column signs, so that they share
# no stepping code with the library walks they check.


def identity_matrix(n):
    return tuple(tuple(int(r == j) for j in range(n)) for r in range(n))


@functools.lru_cache(maxsize=None)
def simple_reflection_matrices(cartan):
    """{i: S_i} in the simple-coroot basis: column j of S_i is
    e_j - C[j][i] e_i, the coordinates of s_i(alpha_j^vee)."""
    n = len(cartan)
    return {
        i: tuple(
            tuple(int(r == j) - (cartan[j][i - 1] if r == i - 1 else 0) for j in range(n))
            for r in range(n)
        )
        for i in range(1, n + 1)
    }


@functools.lru_cache(maxsize=1 << 14)
def times_reflection(cartan, m, i):
    """m S_i, by a matrix product."""
    return mat_mul(m, simple_reflection_matrices(cartan)[i])


def column_descents(m):
    """The right descents of a Weyl element matrix m: the i whose column
    m(alpha_i^vee) is a negative coroot."""
    return [i for i in range(1, len(m) + 1) if any(row[i - 1] < 0 for row in m)]


def inversion_sequence_reference(datum, word):
    """Entry j is s_{i_r} ... s_{i_{r-j+2}}(alpha_{i_{r-j+1}}^vee), read off
    as a column of the suffix product."""
    suffix = identity_matrix(datum.rank)
    out = []
    for i in reversed(word):
        out.append(tuple(row[i - 1] for row in suffix))
        suffix = times_reflection(datum.cartan, suffix, i)
    return tuple(out)


def reduced_words_reference(w):
    """All distinct reduced words of w with their inversion sequences, by
    right-descent recursion over matrices: the order ``iter_reduced_words``
    must keep.  The product x of the letters peeled so far gives the coroot
    x(alpha_i^vee) that the next peeled letter i realizes."""
    cartan = w.datum.cartan

    def walk(v, x):
        descents = column_descents(v)
        if not descents:
            yield (), ()
        for i in descents:
            c = tuple(row[i - 1] for row in x)
            for word, seq in walk(times_reflection(cartan, v, i), times_reflection(cartan, x, i)):
                yield word + (i,), (c,) + seq

    yield from walk(w.matrix, identity_matrix(w.datum.rank))


def rightmost_reference(w, k, reverse_ties=False):
    """(d, suffix) by a DFS over matrices that carries words: d is the
    minimal distance of the rightmost s_k from the end, and suffix is the
    last d letters of a reduced word realizing it, ties between descents
    broken by the smallest index, or the largest with ``reverse_ties``."""
    cartan = w.datum.cartan
    memo = {}

    def rec(m):
        if m in memo:
            return memo[m]
        descents = column_descents(m)
        if k in descents:
            res = (1, (k,))
        else:
            best = None
            for i in descents:
                d_i, wit = rec(times_reflection(cartan, m, i))
                if best is None or 1 + d_i < best[0] or (1 + d_i == best[0] and reverse_ties):
                    best = (1 + d_i, wit + (i,))
            res = best
        memo[m] = res
        return res

    return rec(w.matrix)


# --- round-restarting parabolic adaptation ---------------------------------


def restrict_basis(basis, keys):
    """The entries of ``basis`` whose key is among ``keys``, in order."""
    keep = set(keys)
    return sa.AdaptedBasis(entries=tuple((k, c) for k, c in basis.entries if k in keep))


def p_adapt_reference(inp, basis, sets):
    """Parabolic adaptation by rounds: each round rescans the keys from the
    smallest and moves the first mu(k0) with s_{mu(k0)}(alpha_j^vee) in the
    inversion set for a j in I_P (smallest j), until no key moves."""
    datum = inp.datum
    inv_set = frozenset(weyl.canonical_record(inp.w).inversions)
    n = datum.rank
    current = dict(basis.entries)

    def image(mu, j):
        root = require_positive_coroot(datum, mu).root
        coef = sum(datum.cartan[j - 1][m] * root[m] for m in range(n))
        return tuple((1 if m == j - 1 else 0) - coef * mu[m] for m in range(n))

    bound = len(current) * (sa.height(highest_coroot(datum)) + 1) + 1
    for _ in range(bound):
        pick = None
        for k0 in sorted(current):
            for j in inp.parabolic.inside_sorted:
                img = image(current[k0], j)
                if img in inv_set:
                    pick = (k0, img)
                    break
            if pick:
                break
        if pick is None:
            break
        current[pick[0]] = pick[1]
    else:
        raise AssertionError("parabolic adaptation failed to terminate")
    return sa.AdaptedBasis(entries=tuple((k, current[k]) for k in basis.keys))


# --- pair-scan decomposition oracle ----------------------------------------


def decompose_reference(eta, inv_elements, reverse_ties=False):
    """Search c * eta = mu + mu' pair by pair, with no map: the first pair
    (mu, mu') in lexicographic order of ``inv_elements`` whose summed
    height is a positive multiple c of ht(eta) and whose sum is c * eta;
    ``reverse_ties`` scans the pairs from the other end.  Returns
    ``(c, mu, mu')`` or None."""
    eta = tuple(eta)
    elements = list(inv_elements)
    h_eta = sum(eta)
    size = len(elements)
    a_range = range(size - 1, -1, -1) if reverse_ties else range(size)
    for a in a_range:
        mu = elements[a]
        b_range = range(size - 1, a, -1) if reverse_ties else range(a + 1, size)
        for b in b_range:
            mu2 = elements[b]
            total = sum(mu) + sum(mu2)
            if total % h_eta:
                continue
            c = total // h_eta
            if all(mu[i] + mu2[i] == c * eta[i] for i in range(len(eta))):
                return (c, mu, mu2)
    return None


def decompositions_reference(elements):
    """The decomposition map by a scan over all pairs a < b of ``elements``
    (inversion coroots in canonical order): each c dividing gcd(mu + mu')
    with (mu + mu')/c among them appends ``(c, mu, mu')`` to that coroot's
    list, in lexicographic pair order."""
    members = set(elements)
    found = {}
    size = len(elements)
    for a in range(size):
        mu = elements[a]
        for b in range(a + 1, size):
            mu2 = elements[b]
            s = tuple(x + y for x, y in zip(mu, mu2))
            g = math.gcd(*s)
            for c in range(1, g + 1):
                if g % c:
                    continue
                eta = tuple(x // c for x in s)
                if eta in members:
                    found.setdefault(eta, []).append((c, mu, mu2))
    return found


def coroot_mask(datum, coroots) -> int:
    """The mask of a set of positive coroots, bit i for the coroot at
    canonical index i, by a plain scan of ``datum.positives``."""
    members = set(coroots)
    return sum(
        1 << i for i, pair in enumerate(datum.positives) if pair.coroot in members
    )


# --- misc ------------------------------------------------------------------


def reorder_matrix(matrix, row_labels, col_labels, new_rows, new_cols):
    """Permute a labeled matrix into the given row/column label order."""
    ri = [list(row_labels).index(r) for r in new_rows]
    ci = [list(col_labels).index(c) for c in new_cols]
    return tuple(tuple(matrix[r][c] for c in ci) for r in ri)


def hat_n_map(report) -> Dict[int, Fraction]:
    return dict(zip(report.hat_n_keys, report.hat_n))


def csv_reference(rows) -> str:
    """The text ``csv.DictWriter`` writes for the ``csv_row`` dicts
    ``rows`` under the ``CSV_FIELDS`` header: each row looked up by name."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cv(*coeffs) -> Tuple[int, ...]:
    return tuple(coeffs)
