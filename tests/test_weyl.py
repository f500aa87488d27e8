import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubert_atlas as sa
from schubert_atlas import oracle, weyl
from schubert_atlas.errors import (
    IndexOutOfRangeError,
    NonReducedWordError,
    NotInSupportError,
    NotSimplyLacedError,
)

from helpers import (
    NotACorootError,
    act,
    bruhat_covers,
    bruhat_leq,
    canonical_word_reference,
    coroot_mask,
    coset_factorize,
    coset_length_counts,
    decompositions_reference,
    enumerate_reference,
    inverse,
    inversion_sequence_reference,
    is_min_coset_rep,
    longest_element,
    multiply,
    reduced_words_reference,
    reflection_element,
    rightmost_reference,
    times_reflection,
)


def el(datum, word):
    return sa.element_from_word(datum, word)


def words_of(w):
    return [word for word, _ in weyl.iter_reduced_words(w)]


# --- words, lengths, actions ------------------------------------------------


def test_element_from_word_lengths(datum):
    a2 = datum("A2")
    assert el(a2, (1, 2, 1)).length == 3
    assert el(a2, (1, 1)).length == 0
    assert el(datum("G2"), (2, 1, 2, 1)).length == 4


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D5", "E6", "E7", "F4", "G2"])
def test_element_from_word_length_on_unreduced_words(type_str, datum):
    """The length counted while the word is read is the number of positive
    coroots the product sends negative, on seeded words of 0-30 letters that
    repeat letters and need not be reduced."""
    d = datum(type_str)
    rng = random.Random(f"unreduced-{type_str}")
    words = [()]
    for _ in range(40):
        word = [rng.randint(1, d.rank) for _ in range(rng.randint(0, 30))]
        if word and rng.random() < 0.5:  # a letter twice in a row
            k = rng.randrange(len(word))
            word.insert(k, word[k])
        words.append(tuple(word[:30]))
    unreduced = 0
    for word in words:
        w = el(d, word)
        inversions = sum(any(x < 0 for x in act(w, c)) for c in d.positive_coroots)
        assert w.length == inversions, word
        unreduced += w.length < len(word)
    assert unreduced >= 20


def test_element_from_word_rejects_bad_index(datum):
    with pytest.raises(IndexOutOfRangeError):
        el(datum("A2"), (1, 3))


def test_act_on_coroot(datum):
    a2 = datum("A2")
    w0 = el(a2, (1, 2, 1))
    assert act(w0, (1, 0)) == (0, -1)
    g2 = datum("G2")
    assert act(el(g2, (1,)), (0, 1)) == (3, 1)
    assert act(el(a2, (2,)), (0, 1)) == (0, -1)


def test_equality_is_by_matrix(datum):
    a2 = datum("A2")
    assert el(a2, (1, 2, 1)) == el(a2, (2, 1, 2))
    assert el(a2, (1, 1)) == weyl.identity_element(a2)
    assert hash(el(a2, (1, 2, 1))) == hash(el(a2, (2, 1, 2)))


def test_multiply_inverse(datum):
    g2 = datum("G2")
    w = el(g2, (2, 1, 2, 1, 2))
    assert multiply(w, inverse(w)).is_identity
    assert inverse(w).length == w.length


# --- canonical words ---------------------------------------------------------


def test_canonical_reduced_word(datum):
    a2 = datum("A2")
    assert sa.canonical_reduced_word(weyl.identity_element(a2)) == ()
    assert sa.canonical_reduced_word(el(a2, (1, 2, 1))) == (1, 2, 1)
    g2 = datum("G2")
    w2 = el(g2, (2, 1, 2, 1, 2))
    word = sa.canonical_reduced_word(w2)
    assert len(word) == 5
    assert el(g2, word) == w2


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2", "C3", "D4", "F4"])
def test_canonical_word_round_trips_everywhere(type_str, datum):
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        word = sa.canonical_reduced_word(w)
        assert len(word) == w.length
        assert el(d, word) == w
        assert weyl.support(w) == set(word)


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_integer_weyl_layer_matches_inverse_references(type_str, datum):
    """The w(2 rho^vee) peel and the BFS over W^P alone agree with the
    inverse-based peel and the walk over all of W, on every parabolic."""
    d = datum(type_str)
    reference_word = functools.cache(canonical_word_reference)
    for r in range(d.rank + 1):
        for inside in itertools.combinations(range(1, d.rank + 1), r):
            p = sa.parabolic(d, inside)
            got = list(sa.enumerate_coset_reps(d, p, 99))
            want = list(enumerate_reference(d, p, 99, key=reference_word))
            assert [(w.matrix, w.length) for w in got] == [
                (w.matrix, w.length) for w in want
            ]
            for w in got:
                assert sa.canonical_reduced_word(w) == reference_word(w)


# --- descents and coset representatives -------------------------------------


def test_is_min_coset_rep(datum):
    a2 = datum("A2")
    w0 = el(a2, (1, 2, 1))
    assert is_min_coset_rep(w0, sa.parabolic(a2, []))
    assert not is_min_coset_rep(w0, sa.parabolic(a2, [2]))
    a4 = datum("A4")
    w = el(a4, (3, 4, 1, 2, 3))
    assert is_min_coset_rep(w, sa.parabolic(a4, [4]))


def test_min_coset_rep_examples(datum):
    a2 = datum("A2")
    w0 = el(a2, (1, 2, 1))
    rep = sa.min_coset_rep(w0, sa.parabolic(a2, [2]))
    assert rep == el(a2, (2, 1))
    assert rep.length == 2
    # already minimal: idempotent
    assert sa.min_coset_rep(rep, sa.parabolic(a2, [2])) == rep

    d5 = datum("D5")
    w0 = longest_element(d5)
    assert w0.length == 20
    rep = sa.min_coset_rep(w0, sa.parabolic(d5, [1, 3, 4, 5]))
    assert rep.length == 13
    assert rep == el(d5, (2, 3, 4, 1, 2, 3, 5, 3, 4, 2, 3, 1, 2))


@pytest.mark.parametrize("type_str,inside", [("A3", (2,)), ("B3", (1, 3)), ("G2", (1,))])
def test_coset_factorization_lengths_additive(type_str, inside, datum):
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        u, v = coset_factorize(w, p)
        assert is_min_coset_rep(u, p)
        assert multiply(u, v) == w
        assert u.length + v.length == w.length
        assert set(sa.canonical_reduced_word(v)) <= set(inside)


# --- inversion sequences ------------------------------------------------------


def test_inversion_sequence_g2_orderings(datum):
    g2 = datum("G2")
    seq = sa.inversion_sequence(g2, (1, 2, 1, 2, 1, 2))
    assert seq == ((0, 1), (1, 1), (3, 2), (2, 1), (3, 1), (1, 0))
    assert sa.inversion_sequence(g2, (2, 1, 2, 1, 2, 1)) == tuple(reversed(seq))


def test_inversion_sequence_single_letter(datum):
    assert sa.inversion_sequence(datum("A2"), (2,)) == ((0, 1),)


def test_inversion_sequence_rejects_non_reduced(datum):
    with pytest.raises(NonReducedWordError):
        sa.inversion_sequence(datum("A2"), (1, 1))


@pytest.mark.parametrize("word", [(0,), (1, 3)])
def test_inversion_sequence_rejects_bad_index(word, datum):
    with pytest.raises(IndexOutOfRangeError):
        sa.inversion_sequence(datum("A2"), word)


@pytest.mark.parametrize("type_str", ["A4", "B3", "D4", "G2", "F4"])
def test_inversion_sequence_suffix_is_prefix(type_str, datum):
    """Entry k of an inversion sequence depends only on the last k letters."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        word = sa.canonical_reduced_word(w)
        seq = sa.inversion_sequence(d, word)
        for k in range(len(word) + 1):
            suffix = word[len(word) - k:]
            assert sa.inversion_sequence(d, suffix) == seq[:k], (type_str, word, k)


@pytest.mark.parametrize("type_str", ["A3", "B3"])
def test_inversion_set_word_independent(type_str, datum):
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        sets = {frozenset(sa.inversion_sequence(d, word)) for word in words_of(w)}
        assert len(sets) == 1
        assert len(next(iter(sets))) == w.length


def _positive_combination_inside(eta, mu1, mu2):
    """Solve eta = a*mu1 + b*mu2 exactly; return True iff a, b > 0."""
    cols = [mu1, mu2]
    # pick two coordinates giving an invertible 2x2 system
    n = len(eta)
    for i in range(n):
        for j in range(i + 1, n):
            det = cols[0][i] * cols[1][j] - cols[0][j] * cols[1][i]
            if det == 0:
                continue
            a = Fraction(eta[i] * cols[1][j] - eta[j] * cols[1][i], det)
            b = Fraction(cols[0][i] * eta[j] - cols[0][j] * eta[i], det)
            if all(a * mu1[m] + b * mu2[m] == eta[m] for m in range(n)):
                return a > 0 and b > 0
            return False
    return False


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2"])
def test_reflection_ordering_property_exhaustive(type_str, datum):
    """Any positive combination of two sequence entries that is itself a
    positive coroot must sit strictly between them, in every reduced word."""
    d = datum(type_str)
    positives = set(d.positive_coroots)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        for word in words_of(w):
            seq = sa.inversion_sequence(d, word)
            pos = {c: i for i, c in enumerate(seq)}
            for a in range(len(seq)):
                for b in range(a + 1, len(seq)):
                    for eta in positives:
                        if eta in (seq[a], seq[b]):
                            continue
                        if _positive_combination_inside(eta, seq[a], seq[b]):
                            assert eta in pos
                            assert a < pos[eta] < b


# --- rightmost distances -------------------------------------------------------


def test_rightmost_distance_53142(datum):
    """In 53142 = s2 s1 s3 s4 s3 s2 s1 the rightmost s3 sits three letters
    from the end at best; the two tie orders reach it through different
    words and realize different inversion coroots."""
    a4 = datum("A4")
    w = el(a4, (2, 1, 3, 4, 3, 2, 1))
    for k, simple in ((1, (1, 0, 0, 0)), (2, (0, 1, 0, 0)), (4, (0, 0, 0, 1))):
        assert sa.rightmost_distance(w, k) == (1, simple)
    assert sa.rightmost_distance(w, 3) == (3, (1, 1, 1, 0))
    assert sa.rightmost_distance(w, 3, reverse_ties=True) == (3, (0, 1, 1, 1))


def test_rightmost_distance_descent_is_one(datum):
    d4 = datum("D4")
    w = el(d4, (1, 2, 3, 4, 2, 1))
    assert sa.rightmost_distance(w, 1) == (1, (1, 0, 0, 0))


@pytest.mark.parametrize("type_str", ["B3", "C3", "G2", "F4"])
def test_rightmost_distance_needs_simply_laced(type_str, datum):
    """Its callers need it in simply-laced types only, so any other type is
    refused, even for a right descent or a letter outside the support."""
    d = datum(type_str)
    w = el(d, (1, 2, 1))
    for k in (1, 2, d.rank):
        with pytest.raises(NotSimplyLacedError):
            sa.rightmost_distance(w, k)


def test_rightmost_distance_not_in_support(datum):
    a4 = datum("A4")
    with pytest.raises(NotInSupportError):
        sa.rightmost_distance(el(a4, (1, 2)), 4)


@pytest.mark.parametrize("type_str", ["A3", "A4"])
def test_rightmost_distance_vs_all_words(type_str, datum):
    """d_w(k) is the true minimum over reduced words, and the coroot is the
    one some word realizing it carries at its rightmost s_k."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        if w.is_identity:
            continue
        pairs = list(weyl.iter_reduced_words(w))
        for k in set(sa.canonical_reduced_word(w)):
            dist = {
                word: len(word) - max(i for i, x in enumerate(word) if x == k)
                for word, _ in pairs
            }
            expected = min(dist.values())
            realized = {seq[expected - 1] for word, seq in pairs if dist[word] == expected}
            for reverse_ties in (False, True):
                got, coroot = sa.rightmost_distance(w, k, reverse_ties)
                assert got == expected
                assert coroot in realized


def test_rightmost_distance_walks_only_on_ties(datum, monkeypatch):
    """D5 Borel: every (w, k) is answered from the datum's masks and
    pairings alone.  No call, in either tie order, builds a Weyl-group
    product or an identity matrix or reads the record's inversion sequence,
    which is removed before the calls.  That holds for the 512 ties too,
    the (w, k) with more than one inversion coroot of the least height
    among those with unit k-th coefficient: the tied coroots go down by
    their pairings.  Nothing walks any more; the name is kept from when
    ties did."""
    d5 = datum("D5")
    elements = list(sa.enumerate_coset_reps(d5, sa.parabolic(d5, ()), 99))
    inversions = [weyl.canonical_record(w).inversions for w in elements]
    for w in elements:
        w.record = w.record._replace(inversions=None)

    def refuse(*_):
        raise AssertionError("Weyl-group product built")

    monkeypatch.setattr(weyl, "_times_simple", refuse)
    monkeypatch.setattr(weyl, "identity", refuse)
    ties = 0
    for w, inv in zip(elements, inversions):
        for k in weyl.support(w):
            heights = [sum(g) for g in inv if g[k - 1] == 1]
            ties += heights.count(min(heights)) > 1
            for reverse_ties in (False, True):
                weyl.rightmost_distance(w, k, reverse_ties)
    assert ties == 512


@pytest.mark.parametrize(
    "type_str, max_len, ties", [("A5", 99, 127), ("D5", 99, 512), ("E6", 8, 170)]
)
def test_rightmost_distance_ties_match_reference(type_str, max_len, ties, datum):
    """Every tied (w, k) of the Borel elements up to ``max_len``, in both
    tie orders, against the word-carrying DFS of ``rightmost_reference``:
    the distance, and the coroot that its witness suffix realizes there.
    The three types have 809 ties, 1,618 calls."""
    d = datum(type_str)
    found = 0
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, ()), max_len):
        inv = weyl.canonical_record(w).inversions
        for k in weyl.support(w):
            heights = [sum(g) for g in inv if g[k - 1] == 1]
            if heights.count(min(heights)) == 1:
                continue
            found += 1
            for reverse_ties in (False, True):
                dist, suffix = rightmost_reference(w, k, reverse_ties)
                expected = (dist, inversion_sequence_reference(d, suffix)[-1])
                assert sa.rightmost_distance(w, k, reverse_ties) == expected, (
                    sa.canonical_reduced_word(w), k, reverse_ties
                )
    assert found == ties


@pytest.mark.parametrize("type_str", ["A4", "D4", "D5"])
def test_support_is_where_an_inversion_coroot_has_unit_coefficient(type_str, datum):
    """In simply-laced types k is in the support of w exactly when some
    inversion coroot has k-th coefficient 1, which the closed form of
    ``rightmost_distance`` reads instead of calling ``support``."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, ()), 99):
        inv = weyl.canonical_record(w).inversions
        units = {k for k in range(1, d.rank + 1) if any(g[k - 1] == 1 for g in inv)}
        assert weyl.support(w) == units, sa.canonical_reduced_word(w)


def test_rightmost_distance_d5_descents_build_no_product(datum, monkeypatch):
    """D5 Borel: each of the 4,800 right descents k gets (1, alpha_k^vee) in
    both tie orders, since alpha_k^vee is the one height-1 coroot with unit
    k-th coefficient and is never a tie.  The values and the count are what
    this test adds: that no call builds a product is checked on every
    (w, k) by ``test_rightmost_distance_walks_only_on_ties``."""
    d5 = datum("D5")
    elements = list(sa.enumerate_coset_reps(d5, sa.parabolic(d5, ()), 99))

    def refuse(*_):
        raise AssertionError("walk entered")

    monkeypatch.setattr(weyl, "_times_simple", refuse)
    monkeypatch.setattr(weyl, "identity", refuse)
    descents = 0
    for w in elements:
        for k in range(1, 6):
            if weyl.has_right_descent(w, k):
                descents += 1
                for reverse_ties in (False, True):
                    got = weyl.rightmost_distance(w, k, reverse_ties)
                    assert got == (1, d5.simple_coroot(k)), (w, k)
    assert descents == 1920 * 5 // 2  # each s_k is a right descent of half of W


def test_rightmost_distance_simply_laced_calls_no_support(datum, monkeypatch):
    a4 = datum("A4")
    w = el(a4, (1, 2))

    def refuse(_):
        raise AssertionError("support called")

    monkeypatch.setattr(weyl, "support", refuse)
    with pytest.raises(NotInSupportError):
        sa.rightmost_distance(w, 4)
    assert sa.rightmost_distance(w, 1) == (2, (1, 1, 0, 0))


# --- reflections ---------------------------------------------------------------


def test_reflection_element_examples(datum):
    a2 = datum("A2")
    assert reflection_element(a2, (1, 0)) == el(a2, (1,))
    assert reflection_element(a2, (1, 1)) == el(a2, (1, 2, 1))
    g2 = datum("G2")
    assert reflection_element(g2, (3, 2)).length == 5
    with pytest.raises(NotACorootError):
        reflection_element(a2, (2, 1))


def test_reflection_element_is_involution_sending_coroot_negative(datum):
    for t in ("A3", "B3", "G2"):
        d = datum(t)
        for c in d.positive_coroots:
            r = reflection_element(d, c)
            assert multiply(r, r).is_identity
            assert act(r, c) == tuple(-x for x in c)


def test_reflection_element_matches_conjugation(datum):
    """s_eta = u s_i u^{-1} whenever eta = u(alpha_i^vee)."""
    g2 = datum("G2")
    u = el(g2, (2, 1))
    i = 2
    eta = act(u, g2.simple_coroot(i))
    assert all(x >= 0 for x in eta)
    lhs = reflection_element(g2, eta)
    rhs = multiply(multiply(u, el(g2, (i,))), inverse(u))
    assert lhs == rhs


@pytest.mark.parametrize("type_str", ["B3", "C3", "G2", "F4", "E6", "E8"])
def test_multiply_and_reflection_lengths_match_inversion_count(type_str):
    """The lengths that ``multiply`` and ``reflection_element`` count with
    ``oracle._count_inversions`` from a fresh product matrix are the number
    of positive coroots it sends negative, counted here from whole images:
    on 20 seeded pairs of words that need not be reduced, whose product is
    also read as one word, and on the reflection of every positive coroot
    of a fresh datum, whose entries go above 1 in each of these types."""
    d = sa.build_root_datum(type_str)
    rng = random.Random(f"multiply-{type_str}")

    def inversions(w):
        return sum(any(x < 0 for x in act(w, c)) for c in d.positive_coroots)

    def word():
        return tuple(rng.randint(1, d.rank) for _ in range(rng.randint(0, len(d.positives))))

    for _ in range(20):
        left, right = word(), word()
        product = multiply(el(d, left), el(d, right))
        assert product.length == inversions(product), (left, right)
        assert product == el(d, left + right), (left, right)
        assert product.length == el(d, left + right).length, (left, right)
    assert any(max(c) > 1 for c in d.positive_coroots)
    for c in d.positive_coroots:
        r = reflection_element(d, c)
        assert r.length == inversions(r), c


# --- enumeration ---------------------------------------------------------------


def test_enumerate_counts(datum):
    g2 = datum("G2")
    assert len(list(sa.enumerate_coset_reps(g2, sa.parabolic(g2, []), 12))) == 12
    assert len(list(sa.enumerate_coset_reps(g2, sa.parabolic(g2, [2]), 6))) == 6
    a4 = datum("A4")
    assert len(list(sa.enumerate_coset_reps(a4, sa.parabolic(a4, []), 10))) == 120


def test_enumerate_respects_max_len(datum):
    a4 = datum("A4")
    reps = list(sa.enumerate_coset_reps(a4, sa.parabolic(a4, []), 2))
    assert all(w.length <= 2 for w in reps)
    assert len(reps) == 1 + 4 + 9  # Mahonian counts for S5 at lengths 0, 1, 2


def test_enumerate_ordered_and_unique(datum):
    d = datum("B3")
    seen = []
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, [1]), 9):
        seen.append((w.length, sa.canonical_reduced_word(w)))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize(
    "type_str,inside",
    [
        ("A3", ()),
        ("A3", (1, 3)),
        ("B3", (2,)),
        ("G2", (1,)),
        ("D5", ()),
        ("E7", (1, 2, 3, 4, 5, 6)),
        ("E7", (2, 3, 4, 5, 6, 7)),
        ("E8", (1, 2, 3, 4, 5, 6, 7)),
        ("C3", (3,)),
        ("F4", (2, 3)),
        ("D4", (1, 3, 4)),
    ],
)
def test_enumerate_matches_poincare_counts(type_str, inside, datum):
    d = datum(type_str)
    expected = coset_length_counts(d, inside)
    assert weyl.coset_counts_by_length(d, sa.parabolic(d, inside)) == expected
    reps = list(sa.enumerate_coset_reps(d, sa.parabolic(d, inside), 99))
    by_len = {}
    for w in reps:
        by_len[w.length] = by_len.get(w.length, 0) + 1
    assert by_len == {
        length: count for length, count in enumerate(expected) if count
    }


@pytest.mark.parametrize(
    "type_str,inside", [("E6", (1, 2, 3, 4, 5)), ("E6", (2, 3, 4, 5, 6)), ("D4", ())]
)
def test_enumerate_lifts_a_matrix_only_for_each_child_in_w_p(
    type_str, inside, datum, monkeypatch
):
    """The walk tests a child's new coroot against I_P before it lifts the
    child's matrix, so it lifts one matrix per element of W^P other than
    the identity: on the two E6 parabolics, whose walks reach 68 and 70
    children, and on a Borel walk, which drops none."""
    d = datum(type_str)
    lifts = []
    real = weyl._lift
    monkeypatch.setattr(weyl, "_lift", lambda *args: lifts.append(None) or real(*args))
    reps = list(sa.enumerate_coset_reps(d, sa.parabolic(d, inside), 99))
    assert len(reps) == sum(coset_length_counts(d, inside))
    assert len(lifts) == len(reps) - 1


@pytest.mark.parametrize(
    "type_str", ["A1", "A5", "B4", "C3", "D6", "E6", "E7", "E8", "F4", "G2"]
)
def test_coset_counts_match_degree_formula_on_every_parabolic(type_str, datum):
    """The Levi degrees read off root heights give the same Poincare
    quotient as the degree table of each component's type, on every
    parabolic of up to three nodes, and on the full one."""
    d = datum(type_str)
    subsets = [
        inside
        for r in range(min(d.rank, 3) + 1)
        for inside in itertools.combinations(range(1, d.rank + 1), r)
    ]
    for inside in subsets + [tuple(range(1, d.rank + 1))]:
        assert weyl.coset_counts_by_length(d, sa.parabolic(d, inside)) == (
            coset_length_counts(d, inside)
        ), (type_str, inside)


# --- reduced words --------------------------------------------------------------


def test_all_reduced_words_examples(datum):
    a2 = datum("A2")
    assert set(words_of(el(a2, (1, 2, 1)))) == {(1, 2, 1), (2, 1, 2)}
    g2 = datum("G2")
    assert len(words_of(el(g2, (1, 2, 1, 2, 1, 2)))) == 2
    assert list(weyl.iter_reduced_words(weyl.identity_element(a2))) == [((), ())]
    a3 = datum("A3")
    w0 = longest_element(a3)
    words = words_of(w0)
    assert len(words) == len(set(words)) == 16  # reduced words of w0 in S4
    assert all(sa.element_from_word(a3, word) == w0 for word in words)


def _assert_walks_match_references(w, with_words=True):
    """The walks that carry coroots agree with the word-carrying references
    over matrices: the same reduced words in the same order, each with its
    own inversion sequence, and for every support letter and both tie
    orders the distance of the reference witness with the coroot it
    realizes there, which ``inversion_sequence`` of the witness suffix
    ends with too.  The rightmost walk is checked in simply-laced types,
    the only ones it serves."""
    d = w.datum
    if with_words:
        pairs = list(weyl.iter_reduced_words(w))
        assert pairs == list(reduced_words_reference(w)), sa.canonical_reduced_word(w)
    if not d.simply_laced:
        return
    for k in weyl.support(w):
        for reverse_ties in (False, True):
            dist, suffix = rightmost_reference(w, k, reverse_ties)
            seq = inversion_sequence_reference(d, suffix)
            assert sa.inversion_sequence(d, suffix) == seq, suffix
            expected = (dist, seq[-1])
            assert sa.rightmost_distance(w, k, reverse_ties) == expected, (
                sa.canonical_reduced_word(w), k, reverse_ties
            )


def _random_reduced_element(d, rng, length):
    """A reduced word of the given length, one random ascent at a time."""
    w = weyl.identity_element(d)
    while w.length < length:
        ascents = [i for i in range(1, d.rank + 1) if not weyl.has_right_descent(w, i)]
        w = weyl.right_mul_simple(w, rng.choice(ascents))
    return w


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_walks_match_word_carrying_references(type_str, datum):
    """Every Borel element.  In F4 the reduced words are compared up to
    length 10 only, to keep the time down."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        _assert_walks_match_references(w, with_words=type_str != "F4" or w.length <= 10)


@pytest.mark.parametrize(
    "type_str, count, length, with_words", [("E6", 20, 8, True), ("E7", 10, 16, False)]
)
def test_walks_match_word_carrying_references_on_random_words(
    type_str, count, length, with_words, datum
):
    """Seeded random elements of E6 and E7.  E7 checks the rightmost walk
    only: its length-16 elements have tens of thousands of reduced words."""
    d = datum(type_str)
    rng = random.Random(type_str)
    for _ in range(count):
        _assert_walks_match_references(_random_reduced_element(d, rng, length), with_words)


def test_reduced_words_come_lazily_in_reference_order_on_e7_and_e8(datum):
    """On the seeded length-16 E7 elements above, the first 2,000 pairs of
    (reduced word, inversion sequence) are the reference recursion's first
    2,000, in its order.  The first word of the E8 longest element, one of
    an astronomical number of 120-letter words, comes back at once and is
    the reference's first, so the walk yields before it has seen them all."""
    d = datum("E7")
    rng = random.Random("E7")
    for _ in range(10):
        w = _random_reduced_element(d, rng, 16)
        head = list(itertools.islice(weyl.iter_reduced_words(w), 2000))
        assert len(head) == 2000
        assert head == list(itertools.islice(reduced_words_reference(w), 2000)), (
            sa.canonical_reduced_word(w)
        )
    w0 = longest_element(datum("E8"))
    start = time.perf_counter()
    first = next(weyl.iter_reduced_words(w0))
    assert time.perf_counter() - start < 0.5
    assert len(first[0]) == 120
    assert first == next(reduced_words_reference(w0))


# off-diagonal Cartan entries of each type: -2 in B and C, -3 in G2
BONDS = {"A4": {-1}, "B3": {-1, -2}, "C3": {-1, -2}, "D4": {-1}, "G2": {-1, -3}, "F4": {-1, -2}}


@pytest.mark.parametrize("type_str", sorted(BONDS))
def test_times_simple_matches_reflection_product(type_str, datum):
    """On every Borel element w and every letter i, the move-list kernel
    gives the columns of w s_i that a full product with the reflection
    matrix S_i gives; and ``moves`` is a plain scan of the Cartan columns,
    the diagonal 2 and each bond entry of the type included."""
    d = datum(type_str)
    n = d.rank
    scan = tuple(
        tuple((b, d.cartan[b][i]) for b in range(n) if d.cartan[b][i]) for i in range(n)
    )
    assert d.moves == scan
    assert {a for moves in d.moves for _, a in moves} == {2} | BONDS[type_str]
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        cols = tuple(zip(*w.matrix))
        for i in range(1, n + 1):
            expected = tuple(zip(*times_reflection(d.cartan, w.matrix, i)))
            assert weyl._times_simple(d, cols, i) == expected, (w, i)


@pytest.mark.parametrize("type_str", sorted(BONDS))
def test_count_inversions_is_the_length(type_str, datum):
    """The height-sign count of inversions is the length on every Borel
    element, whose length the walk carries from its canonical parent."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        assert oracle._count_inversions(d, w.matrix) == w.length, w


def _interval_edges(w):
    """The edges (x, i) of the interval below w^-1 that the reference
    recursion crosses: x is named by the inversion coroots its peeled
    letters realize, which determine it, and i is the next letter peeled."""
    edges = set()
    for word, seq in reduced_words_reference(w):
        for j, i in enumerate(reversed(word)):
            edges.add((frozenset(seq[:j]), i))
    return len(edges)


def test_reduced_word_walk_builds_each_edge_once(datum, monkeypatch):
    """A full walk calls the kernel once per edge of the interval, however
    many words cross it: on the longest element of D4 (2,316 words) and on
    every element of A4."""
    calls = []
    real = weyl._times_simple
    monkeypatch.setattr(
        weyl, "_times_simple", lambda *args: calls.append(None) or real(*args)
    )

    def walk(w):
        weyl.canonical_record(w)  # built by the kernel for an element not enumerated
        calls.clear()
        words = sum(1 for _ in weyl.iter_reduced_words(w))
        assert len(calls) == _interval_edges(w), sa.canonical_reduced_word(w)
        return words, len(calls)

    # all 192 elements of D4 lie below w0^-1 = w0, each joined to 4: 192 * 4 / 2 edges
    assert walk(longest_element(datum("D4"))) == (2316, 384)
    a4 = datum("A4")
    for w in sa.enumerate_coset_reps(a4, sa.parabolic(a4, []), 99):
        walk(w)


def _walk_elements(datum):
    """The longest element of D4 and every element of A4, each with its
    canonical record built, since the kernel builds it for an element not
    enumerated."""
    elements = [longest_element(datum("D4"))]
    a4 = datum("A4")
    elements += sa.enumerate_coset_reps(a4, sa.parabolic(a4, []), 99)
    for w in elements:
        weyl.canonical_record(w)
    return elements


def test_later_walks_of_an_element_reuse_its_graph(datum, monkeypatch):
    """Three walks of one element, a full one, one stopped after a few
    words and a full one again, call the kernel once per edge of the
    interval in all, since the graph stays on the element; each yields the
    reference's words and inversion sequences, in its order."""
    elements = _walk_elements(datum)
    calls = []
    real = weyl._times_simple
    monkeypatch.setattr(
        weyl, "_times_simple", lambda *args: calls.append(None) or real(*args)
    )
    for w in elements:
        reference = list(reduced_words_reference(w))
        calls.clear()
        assert list(weyl.iter_reduced_words(w)) == reference
        assert list(itertools.islice(weyl.iter_reduced_words(w), 3)) == reference[:3]
        assert list(weyl.iter_reduced_words(w)) == reference
        assert len(calls) == _interval_edges(w), sa.canonical_reduced_word(w)


def test_walks_in_lockstep_share_a_graph(datum, monkeypatch):
    """Two walks of one element consumed together through ``zip``, each
    arriving at nodes the other may have expanded, both yield the
    reference's pairs, and together build each edge once.  A walk stopped
    after a few words first leaves a half-built graph for them."""
    elements = _walk_elements(datum)
    calls = []
    real = weyl._times_simple
    monkeypatch.setattr(
        weyl, "_times_simple", lambda *args: calls.append(None) or real(*args)
    )
    for w in elements:
        reference = list(reduced_words_reference(w))
        calls.clear()
        assert list(itertools.islice(weyl.iter_reduced_words(w), 3)) == reference[:3]
        pairs = list(zip(weyl.iter_reduced_words(w), weyl.iter_reduced_words(w)))
        assert [a for a, _ in pairs] == [b for _, b in pairs] == reference
        assert len(calls) == _interval_edges(w), sa.canonical_reduced_word(w)


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_canonical_record_matches_references(type_str, datum):
    """On every Borel element the record holds the inverse-based canonical
    word with the inversion sequence of that word: carried along the walk
    from the canonical parent, and built again from cold on a fresh element
    of a fresh datum through ``element_from_word``, all four fields equal."""
    d = datum(type_str)
    cold = sa.build_root_datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        word = canonical_word_reference(w)
        expected = (word, sa.inversion_sequence(d, word))
        carried = w.record
        assert type(carried) is weyl.ElementRecord, (type_str, word)
        assert weyl.canonical_record(w)[:2] == expected, (type_str, word)
        fresh = el(cold, word)
        assert fresh.record is None
        assert weyl.canonical_record(fresh)[:2] == expected, (type_str, word)
        assert carried == fresh.record, (type_str, word)


def _assert_mask_matches_record(w):
    """The mask of the record w carries, or builds on first use, is the
    mask of its inversion sequence, and a cold element of a fresh datum
    built from the canonical word builds the same mask and the same whole
    record."""
    d = w.datum
    word, seq, mask, _ = weyl.canonical_record(w)
    expected = coroot_mask(d, seq)
    assert mask == expected, word
    assert w.record.mask == expected, word
    assert bin(expected).count("1") == w.length, word
    fresh = el(sa.build_root_datum(str(d.cartan_type)), word)
    assert fresh.record is None
    assert weyl.canonical_record(fresh).mask == expected, word
    assert fresh.record == w.record, word


def _assert_unit_masks_match_scan(d):
    """The unit masks the datum builds with itself are, for each k, the
    mask of a plain scan for a unit k-th coefficient."""
    scan = tuple(
        coroot_mask(d, [p.coroot for p in d.positives if p.coroot[k - 1] == 1])
        for k in range(1, d.rank + 1)
    )
    assert d.unit_masks == scan


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_inversion_mask_matches_record(type_str):
    """Every Borel element, with the mask carried from the canonical parent
    by the walk, and again from cold; then the datum's unit masks."""
    d = sa.build_root_datum(type_str)
    elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99))
    for w in elements:
        assert w.record is not None
        _assert_mask_matches_record(w)
    _assert_unit_masks_match_scan(d)


@pytest.mark.parametrize("type_str", ["E7", "E8"])
def test_inversion_mask_matches_record_on_e7_and_e8(type_str):
    """Carried masks of the walk to length 4, and cold masks of seeded
    random reduced words of length 1 to 60; then the unit masks."""
    d = sa.build_root_datum(type_str)
    elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, []), 4))
    for w in elements:
        _assert_mask_matches_record(w)
    rng = random.Random(f"mask-{type_str}")
    walked = [_random_reduced_element(d, rng, rng.randint(1, 60)) for _ in range(12)]
    for w in walked:
        assert w.record is None
        _assert_mask_matches_record(w)
    _assert_unit_masks_match_scan(d)


def _assert_decomposable_matches_pair_scan(w):
    """The decomposable mask of the record w carries, or folds on first
    use, is the mask of the keys of a plain pair scan over its inversion
    coroots, and a fresh element of the same word folds the same mask into
    the same whole record."""
    d = w.datum
    word, seq, _, dec = weyl.canonical_record(w)
    elements = sorted(seq, key=d.coroot_index.__getitem__)
    expected = coroot_mask(d, decompositions_reference(elements))
    assert dec == expected, word
    fresh = el(d, word)
    assert fresh.record is None
    assert weyl.canonical_record(fresh).dec == expected, word
    assert fresh.record == weyl.canonical_record(w), word


@pytest.mark.parametrize(
    "type_str, max_len",
    [("A4", 99), ("B3", 99), ("C3", 99), ("G2", 99), ("D4", 99), ("F4", 99),
     ("D5", 99), ("E6", 8)],
)
def test_decomposable_mask_matches_pair_scan(type_str, max_len, datum):
    """Every Borel element up to ``max_len``, with the mask carried from
    the canonical parent by the walk, and again folded from its word."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), max_len):
        assert w.record is not None
        _assert_decomposable_matches_pair_scan(w)


@pytest.mark.parametrize("type_str", ["E7", "E8"])
def test_decomposable_mask_matches_pair_scan_on_e7_and_e8(type_str, datum):
    """100 seeded random reduced words of length 1 to 60, each folded from
    its inversion sequence."""
    d = datum(type_str)
    rng = random.Random(f"decomposable-{type_str}")
    for _ in range(100):
        w = _random_reduced_element(d, rng, rng.randint(1, 60))
        assert w.record is None
        _assert_decomposable_matches_pair_scan(w)


@pytest.mark.parametrize(
    "type_str, inside, max_len",
    [
        ("E6", (1, 2, 3, 4, 5), 99),
        ("E6", (2, 3, 4, 5, 6), 99),
        ("E6", (), 8),
        ("E7", (1, 2, 3, 4, 5, 6), 99),
        ("E7", (2, 3, 4, 5, 6, 7), 99),
        ("E8", (1, 2, 3, 4, 5, 6, 7), 99),
    ],
)
def test_canonical_parent_walk_on_exceptional_parabolics(type_str, inside, max_len, datum):
    """The walk from canonical parents emits W^P in (length, canonical word)
    order, each element once and as many per length as the Poincare
    quotient says, and each carries the whole record that a cold element
    built from its word computes, with the inversion sequence of that word."""
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    reps = list(sa.enumerate_coset_reps(d, p, max_len))
    keys = [(w.length, canonical_word_reference(w)) for w in reps]
    assert keys == sorted(keys)
    assert len({w.matrix for w in reps}) == len(reps)
    counts = weyl.coset_counts_by_length(d, p)[: max_len + 1]
    assert [sum(1 for w in reps if w.length == k) for k in range(len(counts))] == counts
    for w, (_, word) in zip(reps, keys):
        assert w.record[:2] == (word, sa.inversion_sequence(d, word)), word
        cold = el(d, word)
        assert cold.record is None
        assert weyl.canonical_record(cold) == w.record, word


def test_canonical_record_long_e8_elements_from_cold(datum):
    """Seeded random reduced E8 words of length 100 to 120, each built into
    an element of a fresh datum, so the cold path peels a long chain."""
    d = datum("E8")
    rng = random.Random(8)
    for length in (100, 104, 108, 112, 116, 120):
        w, letters = weyl.identity_element(d), []
        while w.length < length:
            ascents = [i for i in range(1, 9) if not weyl.has_right_descent(w, i)]
            letters.append(rng.choice(ascents))
            w = weyl.right_mul_simple(w, letters[-1])
        cold = sa.build_root_datum("E8")
        word, seq, _, _ = weyl.canonical_record(el(cold, letters))
        assert word == canonical_word_reference(w), length
        assert seq == sa.inversion_sequence(d, word), length


# --- Bruhat order ----------------------------------------------------------------


def test_bruhat_leq_basics(datum):
    a2 = datum("A2")
    e = weyl.identity_element(a2)
    w0 = el(a2, (1, 2, 1))
    assert bruhat_leq(e, w0)
    assert bruhat_leq(el(a2, (1, 2)), w0)
    assert not bruhat_leq(w0, el(a2, (1, 2)))
    assert bruhat_leq(w0, w0)


def test_bruhat_covers_match_cover_coroots(datum):
    """w covers u exactly when u = w*s_eta for a cover coroot eta."""
    for t in ("A2", "B2", "G2"):
        d = datum(t)
        elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99))
        for w in elements:
            if w.is_identity:
                continue
            via_coroots = {
                multiply(w, reflection_element(d, eta))
                for eta, u, drop in oracle._length_drop_pairs(d, w)
                if drop == 1
            }
            via_order = {u for u in elements if bruhat_covers(u, w)}
            assert via_coroots == via_order


def test_bruhat_leq_matches_subword_definition(datum):
    d = datum("A3")
    elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99))
    for w in elements:
        words = words_of(w)
        below = set()
        for word in words:
            for r in range(len(word) + 1):
                for subset in itertools.combinations(range(len(word)), r):
                    below.add(el(d, tuple(word[i] for i in subset)))
        for u in elements:
            assert bruhat_leq(u, w) == (u in below)


# --- property-based sanity --------------------------------------------------------

_types = st.sampled_from(["A2", "A3", "B2", "B3", "C3", "G2", "D4"])


@settings(deadline=None, max_examples=120)
@given(_types, st.lists(st.integers(min_value=1, max_value=4), max_size=10))
def test_right_multiplication_changes_length_by_one(type_str, word):
    d = sa.build_root_datum(type_str)
    word = tuple(1 + (i - 1) % d.rank for i in word)
    w = sa.element_from_word(d, word)
    for i in range(1, d.rank + 1):
        delta = weyl.right_mul_simple(w, i).length - w.length
        assert delta in (-1, 1)
        assert (delta == -1) == weyl.has_right_descent(w, i)


@settings(deadline=None, max_examples=120)
@given(_types, st.lists(st.integers(min_value=1, max_value=4), max_size=10))
def test_incremental_length_matches_inversion_count(type_str, word):
    d = sa.build_root_datum(type_str)
    word = tuple(1 + (i - 1) % d.rank for i in word)
    w = weyl.identity_element(d)
    for i in word:
        w = weyl.right_mul_simple(w, i)
    assert w.length == sa.element_from_word(d, word).length


def test_parse_word():
    assert weyl.parse_word("3 4 1 2 3") == (3, 4, 1, 2, 3)
    assert weyl.parse_word("3,4,1") == (3, 4, 1)
    assert weyl.parse_word("") == ()
