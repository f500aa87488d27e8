"""Weyl group elements and word combinatorics.

Elements are invertible integer matrices acting on the coroot lattice in the
simple-coroot basis; the matrix is the canonical equality/hash key.  Words
are applied left to right: ``element_from_word(d, (i1, ..., ir))`` acts as
``s_{i1} o ... o s_{ir}``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import (
    IndexOutOfRangeError,
    InvalidInputError,
    NonReducedWordError,
    NotInSupportError,
    NotSimplyLacedError,
)
from .exactlinalg import identity
from .rootdata import CorootVec, RootDatum, _reflect_coroot

Word = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

DEFAULT_WORD_CAP = 10**6


@dataclass(frozen=True)
class ParabolicSubset:
    """The subset I_P of simple indices generating the parabolic.

    The empty set encodes P = B; the full set encodes P = G (whose only
    minimal coset representative is the identity).
    """

    rank: int
    inside: FrozenSet[int]
    # I^P, the simple indices outside the parabolic, ascending; and I_P
    # ascending.  Derived once here; equality, hash and repr ignore them.
    complement: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    inside_sorted: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bad = [j for j in self.inside if not 1 <= j <= self.rank]
        if bad:
            raise IndexOutOfRangeError(f"parabolic indices {bad} outside 1..{self.rank}")
        inside = frozenset(self.inside)
        object.__setattr__(self, "inside", inside)
        object.__setattr__(
            self, "complement",
            tuple(j for j in range(1, self.rank + 1) if j not in inside),
        )
        object.__setattr__(self, "inside_sorted", tuple(sorted(inside)))


def parabolic(datum: RootDatum, indices: Sequence[int]) -> ParabolicSubset:
    return ParabolicSubset(rank=datum.rank, inside=frozenset(indices))


class ParabolicTable(NamedTuple):
    """What a non-empty I_P asks of each positive coroot, as masks over
    canonical indices (see ``parabolic_table``).

    ``simple_mask`` holds the alpha_j^vee, j in I_P.  For the coroot eta of
    canonical index i, ``steps[i]`` holds the pairs (j, canonical index of
    s_eta(alpha_j^vee)), j ascending, over the j in I_P with <root(eta),
    alpha_j^vee> < 0, and ``blocked[i]`` is the mask of those images.  For w
    in W^P they are the only images that can be inversion coroots:
    s_eta(alpha_j^vee) = alpha_j^vee - c eta with c = <root(eta),
    alpha_j^vee>, c = 0 gives alpha_j^vee itself, which w does not invert
    since w(alpha_j) > 0, and c > 0 gives a negative coroot, as every
    coefficient off j is -c times eta's and eta = alpha_j^vee has c = 2."""

    simple_mask: int
    blocked: Tuple[int, ...]
    steps: Tuple[Tuple[Tuple[int, int], ...], ...]


def parabolic_table(datum: RootDatum, p: ParabolicSubset) -> ParabolicTable:
    """The ``ParabolicTable`` of a non-empty I_P, built on first use and
    kept in ``datum.parabolic_tables``, the datum's one cache, which no
    other function reads or writes."""
    tables = datum.parabolic_tables
    table = tables.get(p.inside)
    if table is None:
        index = datum.coroot_index
        blocked, steps = [], []
        for eta in datum.positive_coroots:
            pairings = datum.pairings[eta]
            pairs = []
            for j in p.inside_sorted:
                c = pairings[j - 1]
                if c < 0:
                    image = [-c * e for e in eta]
                    image[j - 1] += 1
                    pairs.append((j, index[tuple(image)]))
            steps.append(tuple(pairs))
            blocked.append(sum(1 << b for _, b in pairs))
        simple = sum(1 << index[datum.simple_coroot(j)] for j in p.inside)
        table = tables[p.inside] = ParabolicTable(simple, tuple(blocked), tuple(steps))
    return table


class ElementRecord(NamedTuple):
    """What the canonical reduced word of w fixes, built together and kept
    on w (see ``canonical_record``): the word; its inversion sequence, in
    reflection order; N(w), the inversion coroots, as a mask over canonical
    indices (bit i for ``datum.positive_coroots[i]``); and the mask of the
    decomposable ones, the eta in N(w) with c * eta = mu + mu' for some
    mu != mu' in N(w)."""

    word: Word
    inversions: Tuple[CorootVec, ...]
    mask: int
    dec: int


class WeylElement:
    """A Weyl group element with its action matrix, cached length and, once
    known, its ``ElementRecord`` (see ``canonical_record``) and the interval
    graph its reduced-word walks share (see ``iter_reduced_words``).  The
    graph stays on w until its owner sets ``graph`` back to None, as the
    conjecture scan does once all its checks of w are done."""

    __slots__ = ("datum", "matrix", "length", "record", "graph")

    def __init__(self, datum: RootDatum, matrix: Matrix, length: int):
        self.datum = datum
        self.matrix = matrix
        self.length = length
        self.record = None
        self.graph = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        word = " ".join(map(str, canonical_reduced_word(self)))
        return f"WeylElement({self.datum.cartan_type}, [{word}])"

    @property
    def is_identity(self) -> bool:
        return self.length == 0


def identity_element(datum: RootDatum) -> WeylElement:
    return WeylElement(datum, identity(datum.rank), 0)


def _vec_is_negative(v: Sequence[int]) -> bool:
    # valid for vectors that are +-(positive coroot): sign of first nonzero
    for x in v:
        if x:
            return x < 0
    return False


def _apply(matrix: Matrix, v: Sequence[int]) -> CorootVec:
    n = len(v)
    return tuple(sum(row[j] * v[j] for j in range(n) if v[j]) for row in matrix)


def _left_descents(datum: RootDatum, x: Sequence[int]) -> Iterator[int]:
    # the i with <alpha_i, x> < 0, ascending: the left descents of w if x = w(2 rho^vee)
    for i, col in enumerate(zip(*datum.cartan), 1):
        if sum(a * b for a, b in zip(col, x)) < 0:
            yield i


def _times_simple(datum: RootDatum, cols: Matrix, i: int) -> Matrix:
    """x s_i from x, both by their columns x(alpha_b^vee).  Column b loses
    <alpha_i, alpha_b^vee> x(alpha_i^vee), so only the columns of
    ``datum.moves[i - 1]`` are rewritten: i itself, which is negated, and
    its Dynkin neighbours.  The one x -> x s_i step of this module."""
    ci = cols[i - 1]
    out = list(cols)
    for b, a in datum.moves[i - 1]:
        out[b] = tuple([u - a * v for u, v in zip(cols[b], ci)])
    return tuple(out)


def _check_index(datum: RootDatum, i: int) -> None:
    if not 1 <= i <= datum.rank:
        raise IndexOutOfRangeError(f"simple index {i} outside 1..{datum.rank}")


def element_from_word(datum: RootDatum, word: Sequence[int]) -> WeylElement:
    """Product of simple reflections, applied left to right.

    The word need not be reduced.  The cached length is counted as the word
    is read: l(x s_i) = l(x) + 1 when x(alpha_i^vee), column i of the
    running product x, is positive, and l(x) - 1 otherwise (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, ch. 4), so it may be smaller than
    ``len(word)``.
    """
    cols = identity(datum.rank)
    length = 0
    for i in word:
        _check_index(datum, i)
        length += -1 if _vec_is_negative(cols[i - 1]) else 1
        cols = _times_simple(datum, cols, i)
    return WeylElement(datum, tuple(zip(*cols)), length)


def has_right_descent(w: WeylElement, i: int) -> bool:
    """Whether w(alpha_i^vee), column i of the matrix, is negative."""
    i0 = i - 1
    return _vec_is_negative([row[i0] for row in w.matrix])


def right_mul_simple(w: WeylElement, i: int) -> WeylElement:
    _check_index(w.datum, i)
    delta = -1 if has_right_descent(w, i) else 1
    matrix = tuple(zip(*_times_simple(w.datum, tuple(zip(*w.matrix)), i)))
    return WeylElement(w.datum, matrix, w.length + delta)


def canonical_record(w: WeylElement) -> ElementRecord:
    """The ``ElementRecord`` of w, kept on w.

    The word peels the smallest left descent i, read off x = w(2 rho^vee),
    which s_i w carries as s_i x: word(w) = (i,) + word(s_i w)
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 1.3).  Elements from
    ``enumerate_coset_reps`` arrive with the record of their canonical
    parent extended; any other element builds all of it here on first use,
    in one pass: peel the word, take its inversion sequence, then fold
    ``_newly_decomposable`` once per coroot as its bit enters the mask.
    """
    if w.record is None:
        datum = w.datum
        x = _apply(w.matrix, datum.two_rho_coroot)
        word: List[int] = []
        while (i := next(_left_descents(datum, x), None)) is not None:
            word.append(i)
            x = _reflect_coroot(datum.cartan, i - 1, x)
        seq = inversion_sequence(datum, word)
        index, keys = datum.coroot_index, datum.coroot_keys
        mask = dec = 0
        for c in seq:
            g = index[c]
            dec |= _newly_decomposable(datum, mask, dec, keys[g])
            mask |= 1 << g
        w.record = ElementRecord(tuple(word), seq, mask, dec)
    return w.record


def _newly_decomposable(datum: RootDatum, mask: int, dec: int, gamma: int) -> int:
    """The coroots that the positive coroot of key ``gamma`` makes
    decomposable as it enters the inversion set ``mask``, whose decomposable
    coroots are ``dec``: the eta in mask, not in dec, with c * eta - gamma
    in mask for some c (keys as in ``RootDatum``).

    Every prefix of an inversion sequence is an inversion set, and
    inversion sets are closed: mu, mu' in N and c eta = mu + mu' give eta
    in N (P. Papi, Proc. AMS 120 (1994)).  So in reflection order eta comes
    between mu and mu', the coroot that enters last is never decomposable,
    and eta becomes decomposable exactly when the first of its splittings
    completes: dec(N + gamma) = dec(N) | (this mask)."""
    keys, bits = datum.coroot_keys, datum.key_bits
    multiples = datum.bond_multiples
    new = 0
    rest = mask & ~dec
    while rest:
        low = rest & -rest
        rest ^= low
        key = keys[low.bit_length() - 1]
        for c in multiples:
            if mask & bits.get(c * key - gamma, 0):
                new |= low
                break
    return new


def canonical_reduced_word(w: WeylElement) -> Word:
    """Deterministic reduced word: repeatedly peel the smallest left descent
    (see ``canonical_record``)."""
    return canonical_record(w).word


def support(w: WeylElement) -> FrozenSet[int]:
    """{i : s_i <= w}, the letters of any reduced word.

    Row i of the matrix is e_i exactly when w^-1 fixes omega_i, that is,
    when s_i is in no reduced word of w.
    """
    return frozenset(
        i
        for i, row in enumerate(w.matrix, 1)
        if row[i - 1] != 1 or sum(map(abs, row)) != 1
    )


def min_coset_rep(w: WeylElement, p: ParabolicSubset) -> WeylElement:
    """The unique u in W^P with u W_P = w W_P."""
    cur = w
    while True:
        j = next((j for j in p.inside_sorted if has_right_descent(cur, j)), None)
        if j is None:
            return cur
        cur = right_mul_simple(cur, j)


def inversion_sequence(datum: RootDatum, word: Sequence[int]) -> Tuple[CorootVec, ...]:
    """The inversion coroots of a reduced word, in reflection order.

    Entry k (1-based) is s_{i_r} ... s_{i_{r-k+2}} (alpha_{i_{r-k+1}}^vee).
    The word is reduced exactly when every entry is positive.
    """
    word = tuple(word)
    out: List[CorootVec] = []
    suffix = identity(datum.rank)  # by columns
    for i in reversed(word):
        _check_index(datum, i)
        c = suffix[i - 1]
        if _vec_is_negative(c):
            raise NonReducedWordError(f"word {word} is not reduced")
        out.append(c)
        suffix = _times_simple(datum, suffix, i)
    return tuple(out)


def rightmost_distance(
    w: WeylElement, k: int, reverse_ties: bool = False
) -> Tuple[int, CorootVec]:
    """Minimal distance d of the rightmost occurrence of s_k from the end of
    a reduced word of w, together with the inversion coroot that occurrence
    realizes: entry d of the inversion sequence of a witness word.  The end
    position has distance 1.  Simply-laced types only.

    With N(w) the inversion coroots and h the least height of a gamma in
    N(w) with gamma_k = 1, d = h and the coroot is gamma if it alone has
    height h; no gamma exists iff k is outside the support, whose coroots
    span N(w).  The gamma are the set bits of the record's ``mask`` and the
    datum's unit mask of k, and canonical order is by height, so the lowest
    bit is a gamma of height h and a tie is the next bit at the same height.
    alpha_k^vee is the one such gamma of height 1, so a right descent k is
    never a tie.  Proof:
    - The coroot is x(alpha_k^vee), x the d - 1 letters peeled from the
      end, none of them k.  s_j, j != k, keeps the k-th coefficient at 1, so
      it moves the height by -<alpha_j, .> in {-1, 0, 1}: h <= ht <= d.
    - d <= h, by induction on h; h = 1 makes k a right descent.  If h > 1
      and gamma reaches it, 2 = <gamma, gamma> = sum_j gamma_j <alpha_j,
      gamma> with <alpha_k, gamma> <= 1 gives j != k, <alpha_j, gamma> = 1.
      gamma - alpha_j^vee is too low to be in the co-closed N(w), so
      alpha_j^vee is: j is a right descent, and N(w s_j) = s_j(N(w) -
      alpha_j^vee) has least height h - 1, at s_j(gamma).  A reduced word of
      w s_j with its rightmost s_k at distance <= h - 1, then s_j, is one of w.

    A tie is broken by that induction step, run on all tied gamma at once,
    each kept with the one it started from.  A word reaching distance h
    peels at every step a j != k with <alpha_j, gamma> = 1 for some gamma of
    the least height, and s_j lowers exactly those to gamma - alpha_j^vee,
    the least height h - 1 in N(w s_j); the others keep their height or
    rise.  So the step takes the smallest such j (the largest with
    ``reverse_ties``) and keeps the gamma it lowers, until one is left: the
    peeled letters are the lexicographically first sequence reaching h.
    The Cartan matrix is symmetric, so <alpha_j, gamma> = pairings[gamma][j-1].
    The list of tied gamma is built only once a second gamma of height h is
    seen, so an untied call reads two bits and returns.
    """
    datum = w.datum
    if not datum.simply_laced:
        raise NotSimplyLacedError("rightmost distances need a simply-laced type")
    _check_index(datum, k)
    gammas = canonical_record(w).mask & datum.unit_masks[k - 1]
    if not gammas:
        raise NotInSupportError(f"s_{k} is not below {w!r}")
    coroots = datum.positive_coroots
    gamma = coroots[(gammas & -gammas).bit_length() - 1]
    h, pairs = sum(gamma), None  # (current, original) for each tied gamma
    gammas &= gammas - 1
    while gammas and sum(tied := coroots[(gammas & -gammas).bit_length() - 1]) == h:
        pairs = pairs or [(gamma, gamma)]
        pairs.append((tied, tied))
        gammas &= gammas - 1
    if pairs is None:
        return h, gamma
    pairings, k0 = datum.pairings, k - 1
    order = range(datum.rank - 1, -1, -1) if reverse_ties else range(datum.rank)
    order = [j for j in order if j != k0]
    while len(pairs) > 1:
        j = next(j for j in order if any(pairings[c][j] == 1 for c, _ in pairs))
        pairs = [(c[:j] + (c[j] - 1,) + c[j + 1:], g) for c, g in pairs if pairings[c][j] == 1]
    return h, pairs[0][1]


def _lift(matrix: Matrix, i: int, q: Sequence[int]) -> Matrix:
    """S_i . matrix, the matrix of s_i w, for an ascent i of w and q_a =
    sum_b C[b][i] M[b][a] = <w^-1(alpha_i), alpha_a^vee>, the pairings that
    name w^-1(alpha_i^vee): s_i w differs from w only in row i, by -q.
    Only the matrix is lifted; the child's record extends the parent's."""
    i0 = i - 1
    return matrix[:i0] + (tuple(u - v for u, v in zip(matrix[i0], q)),) + matrix[i0 + 1:]


def enumerate_coset_reps(
    datum: RootDatum, p: ParabolicSubset, max_len: int
) -> Iterator[WeylElement]:
    """All w in W^P with l(w) <= max_len, each once, in length-then-canonical-
    word order, each carrying its ``ElementRecord``, built in one call from
    the parent's: the letter i before the word, the one new coroot
    w^-1(alpha_i^vee) after the inversion sequence, its bit in the mask and
    what it makes decomposable (``_newly_decomposable``) in the decomposable
    mask.  W^P is a lower ideal of the left weak order, so a BFS by s_i w
    over the left ascents i of w reaches all of it; such an s_i w is w s_j,
    outside W^P, exactly when its new coroot is alpha_j^vee, j in I_P, a
    bit of the ``parabolic_table`` simple mask, which is tested on the
    pairings that name the coroot before the child's matrix is lifted, so
    a child outside W^P costs no matrix.
    s_i w is built only from its canonical parent w, when i is its smallest
    left descent, read off the pairings x_j = <alpha_j, w(2 rho^vee)>
    carried along; children come out i-major in parent order, which is
    canonical-word order."""
    n = datum.rank
    cartan = datum.cartan
    index, keys = datum.coroot_index, datum.coroot_keys
    simple = parabolic_table(datum, p).simple_mask if p.inside else 0
    e = identity_element(datum)
    e.record = ElementRecord((), (), 0, 0)
    level = [(e, (2,) * n)] if max_len >= 0 else []
    while level:
        yield from (w for w, _ in level)
        if level[0][0].length == max_len:
            return
        nxt = []
        for i in range(1, n + 1):
            row, moves = cartan[i - 1], datum.moves[i - 1]
            for w, x in level:
                xi = x[i - 1]
                if xi < 0 or any(x[j] < xi * row[j] for j in range(i - 1)):
                    continue
                q = [0] * n
                for b, c in moves:
                    q = [u + c * v for u, v in zip(q, w.matrix[b])]
                coroot = datum.coroot_by_pairings[tuple(q)]
                g = index[coroot]
                if simple >> g & 1:
                    continue
                child = WeylElement(datum, _lift(w.matrix, i, q), w.length + 1)
                word, seq, mask, dec = w.record
                child.record = ElementRecord(
                    (i,) + word, seq + (coroot,), mask | 1 << g,
                    dec | _newly_decomposable(datum, mask, dec, keys[g]),
                )
                nxt.append((child, tuple(u - xi * c for u, c in zip(x, row))))
        level = nxt


def coset_counts_by_length(datum: RootDatum, p: ParabolicSubset) -> List[int]:
    """The number of w in W^P of each length 0, 1, ...: the coefficients of
    the Poincare quotient W(q) / W_P(q), where W_J(q) is the product of
    1 + q + ... + q^m over the exponents m of the roots supported on J."""

    def exponents(inside) -> Iterator[int]:
        # as many exponents are at least h as there are roots of height h
        # (Kostant)
        per_height = Counter(
            sum(pair.root)
            for pair in datum.positives
            if all(j in inside for j, c in enumerate(pair.root, 1) if c)
        )
        for h in per_height:
            yield from [h] * (per_height[h] - per_height[h + 1])

    poly = [1]
    for m in exponents(range(1, datum.rank + 1)):
        poly = [sum(poly[max(0, k - m):k + 1]) for k in range(len(poly) + m)]
    for m in exponents(p.inside):
        quotient: List[int] = []
        for k in range(len(poly) - m):
            quotient.append(poly[k] - sum(quotient[max(0, k - m):k]))
        poly = quotient
    return poly


def iter_reduced_words(w: WeylElement) -> Iterator[Tuple[Word, Tuple[CorootVec, ...]]]:
    """All distinct reduced words of w, each with its inversion sequence, by
    right-descent recursion.  The product x of the letters peeled so far is
    carried by its columns: w x has right descent i exactly when
    x(alpha_i^vee) is an inversion coroot of w, which s_i then realizes.

    The words come lazily, in the order of the plain recursion: depth
    first, the peeled letters ascending at each step.  The walk keeps one
    stack of step iterators and the letters and coroots peeled so far, and
    builds a word's tuples only at its leaf.

    The x are the elements of the right weak-order interval below w^-1.
    Each x that a step leads to is a node [cols, steps], where steps is
    None until a walk first arrives at x and then holds
    (i, x(alpha_i^vee), node of x s_i) for each i, ascending.  A step holds its child node, so x s_i is
    built and its matrix hashed once per edge of the interval, not once per
    time a walk crosses it.  Every word ends at w^-1, after l(w) letters,
    and the walk never builds its steps, which would be empty.  The graph,
    the root node and the dict of nodes by matrix, is a function of w alone
    and is kept on w (``WeylElement.graph``): a later walk of w, or one
    consumed in lockstep with this one, reuses every node and step already
    built and builds the rest as it arrives.  Steps are built only at the x
    a walk has reached, at most l(w) per word yielded, each with at most
    rank child nodes, so a caller that stops after a capped number of words
    also caps the graph it leaves on w."""
    if w.length == 0:
        yield (), ()
        return
    datum = w.datum
    inversions = frozenset(canonical_record(w).inversions)
    if w.graph is None:
        w.graph = ([identity(datum.rank), None], {})
    root, nodes = w.graph

    def expand(x: list) -> tuple:
        cols, steps = x[0], []
        for i, c in enumerate(cols, 1):
            if c in inversions:
                child = _times_simple(datum, cols, i)
                steps.append((i, c, nodes.setdefault(child, [child, None])))
        x[1] = tuple(steps)
        return x[1]

    letters: List[int] = []
    coroots: List[CorootVec] = []
    stack = [iter(root[1] or expand(root))]
    while stack:
        for i, c, child in stack[-1]:
            letters.append(i)
            coroots.append(c)
            if len(letters) < w.length:
                steps = child[1]
                if steps is None:
                    steps = expand(child)
                stack.append(iter(steps))
                break
            yield tuple(reversed(letters)), tuple(coroots)
            letters.pop()
            coroots.pop()
        else:
            stack.pop()
            if letters:
                letters.pop()
                coroots.pop()


def parse_word(text: str) -> Word:
    """Words parse from whitespace- or comma-separated index lists."""
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError:
        raise InvalidInputError(f"{text!r} is not a list of integers") from None
