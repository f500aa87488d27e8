import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schubert_atlas as sa
from schubert_atlas import weyl
from schubert_atlas.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonReducedWordError,
    NotACorootError,
    NotInSupportError,
)

from helpers import canonical_word_reference, coset_length_counts, enumerate_reference


def el(datum, word):
    return sa.element_from_word(datum, word)


# --- words, lengths, actions ------------------------------------------------


def test_element_from_word_lengths(datum):
    a2 = datum("A2")
    assert el(a2, (1, 2, 1)).length == 3
    assert el(a2, (1, 1)).length == 0
    assert el(datum("G2"), (2, 1, 2, 1)).length == 4


def test_element_from_word_rejects_bad_index(datum):
    with pytest.raises(IndexOutOfRangeError):
        el(datum("A2"), (1, 3))


def test_act_on_coroot(datum):
    a2 = datum("A2")
    w0 = el(a2, (1, 2, 1))
    assert sa.act_on_coroot(w0, (1, 0)) == (0, -1)
    g2 = datum("G2")
    assert sa.act_on_coroot(el(g2, (1,)), (0, 1)) == (3, 1)
    assert sa.act_on_coroot(el(a2, (2,)), (0, 1)) == (0, -1)
    with pytest.raises(DimensionMismatchError):
        sa.act_on_coroot(w0, (1, 0, 0))


def test_equality_is_by_matrix(datum):
    a2 = datum("A2")
    assert el(a2, (1, 2, 1)) == el(a2, (2, 1, 2))
    assert el(a2, (1, 1)) == weyl.identity_element(a2)
    assert hash(el(a2, (1, 2, 1))) == hash(el(a2, (2, 1, 2)))


def test_multiply_inverse(datum):
    g2 = datum("G2")
    w = el(g2, (2, 1, 2, 1, 2))
    assert weyl.multiply(w, weyl.inverse(w)).is_identity
    assert weyl.inverse(w).length == w.length


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
    assert sa.is_min_coset_rep(w0, sa.parabolic(a2, []))
    assert not sa.is_min_coset_rep(w0, sa.parabolic(a2, [2]))
    a4 = datum("A4")
    w = el(a4, (3, 4, 1, 2, 3))
    assert sa.is_min_coset_rep(w, sa.parabolic(a4, [4]))


def test_min_coset_rep_examples(datum):
    a2 = datum("A2")
    w0 = el(a2, (1, 2, 1))
    rep = sa.min_coset_rep(w0, sa.parabolic(a2, [2]))
    assert rep == el(a2, (2, 1))
    assert rep.length == 2
    # already minimal: idempotent
    assert sa.min_coset_rep(rep, sa.parabolic(a2, [2])) == rep

    d5 = datum("D5")
    w0 = weyl.longest_element(d5)
    assert w0.length == 20
    rep = sa.min_coset_rep(w0, sa.parabolic(d5, [1, 3, 4, 5]))
    assert rep.length == 13
    assert rep == el(d5, (2, 3, 4, 1, 2, 3, 5, 3, 4, 2, 3, 1, 2))


@pytest.mark.parametrize("type_str,inside", [("A3", (2,)), ("B3", (1, 3)), ("G2", (1,))])
def test_coset_factorization_lengths_additive(type_str, inside, datum):
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        u, v = weyl.coset_factorize(w, p)
        assert sa.is_min_coset_rep(u, p)
        assert weyl.multiply(u, v) == w
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
    """Entry k of an inversion sequence depends only on the last k letters,
    so build_B_wB may read the rightmost coroot off a suffix."""
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
        words = sa.all_reduced_words(w).words
        sets = {frozenset(sa.inversion_sequence(d, word)) for word in words}
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
        for word in sa.all_reduced_words(w).words:
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
    a4 = datum("A4")
    w = el(a4, (2, 1, 3, 4, 3, 2, 1))
    assert sa.rightmost_distance(w, 3)[0] == 3
    for k in (1, 2, 4):
        assert sa.rightmost_distance(w, k)[0] == 1
    d, witness = sa.rightmost_distance(w, 3)
    assert el(a4, witness) == w
    assert witness[len(witness) - d] == 3


def test_rightmost_distance_descent_is_one(datum):
    g2 = datum("G2")
    w = el(g2, (1, 2, 1))
    assert sa.rightmost_distance(w, 1)[0] == 1


def test_rightmost_distance_not_in_support(datum):
    a4 = datum("A4")
    with pytest.raises(NotInSupportError):
        sa.rightmost_distance(el(a4, (1, 2)), 4)


@pytest.mark.parametrize("type_str", ["A3", "A4"])
def test_rightmost_distance_vs_all_words(type_str, datum):
    """d_w(k) is the true minimum over reduced words, and the witness
    realizes it."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        if w.is_identity:
            continue
        words = sa.all_reduced_words(w).words
        for k in set(sa.canonical_reduced_word(w)):
            expected = min(
                len(word) - max(i for i, x in enumerate(word) if x == k)
                for word in words
            )
            dist, witness = sa.rightmost_distance(w, k)
            assert dist == expected
            assert witness in words
            assert len(witness) - max(
                i for i, x in enumerate(witness) if x == k
            ) == dist


# --- reflections ---------------------------------------------------------------


def test_reflection_element_examples(datum):
    a2 = datum("A2")
    assert sa.reflection_element(a2, (1, 0)) == el(a2, (1,))
    assert sa.reflection_element(a2, (1, 1)) == el(a2, (1, 2, 1))
    g2 = datum("G2")
    assert sa.reflection_element(g2, (3, 2)).length == 5
    with pytest.raises(NotACorootError):
        sa.reflection_element(a2, (2, 1))


def test_reflection_element_is_involution_sending_coroot_negative(datum):
    for t in ("A3", "B3", "G2"):
        d = datum(t)
        for c in d.positive_coroots:
            r = sa.reflection_element(d, c)
            assert weyl.multiply(r, r).is_identity
            assert sa.act_on_coroot(r, c) == tuple(-x for x in c)


def test_reflection_element_matches_conjugation(datum):
    """s_eta = u s_i u^{-1} whenever eta = u(alpha_i^vee)."""
    g2 = datum("G2")
    u = el(g2, (2, 1))
    i = 2
    eta = sa.act_on_coroot(u, g2.simple_coroot(i))
    assert all(x >= 0 for x in eta)
    lhs = sa.reflection_element(g2, eta)
    rhs = weyl.multiply(weyl.multiply(u, el(g2, (i,))), weyl.inverse(u))
    assert lhs == rhs


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
    ],
)
def test_enumerate_matches_poincare_counts(type_str, inside, datum):
    d = datum(type_str)
    expected = coset_length_counts(d, inside)
    reps = list(sa.enumerate_coset_reps(d, sa.parabolic(d, inside), 99))
    by_len = {}
    for w in reps:
        by_len[w.length] = by_len.get(w.length, 0) + 1
    assert by_len == {
        length: count for length, count in enumerate(expected) if count
    }


# --- reduced words --------------------------------------------------------------


def test_all_reduced_words_examples(datum):
    a2 = datum("A2")
    assert set(sa.all_reduced_words(el(a2, (1, 2, 1))).words) == {
        (1, 2, 1),
        (2, 1, 2),
    }
    g2 = datum("G2")
    w0 = el(g2, (1, 2, 1, 2, 1, 2))
    scan = sa.all_reduced_words(w0)
    assert len(scan.words) == 2 and not scan.truncated
    assert sa.all_reduced_words(weyl.identity_element(a2)).words == ((),)


def test_all_reduced_words_cap(datum):
    a3 = datum("A3")
    w0 = weyl.longest_element(a3)
    scan = sa.all_reduced_words(w0, cap=3)
    assert len(scan.words) == 3 and scan.truncated
    full = sa.all_reduced_words(w0)
    assert not full.truncated
    assert len(full.words) == 16  # reduced words of the longest element of S4
    assert all(sa.element_from_word(a3, word) == w0 for word in full.words)


# --- Bruhat order ----------------------------------------------------------------


def test_bruhat_leq_basics(datum):
    a2 = datum("A2")
    e = weyl.identity_element(a2)
    w0 = el(a2, (1, 2, 1))
    assert weyl.bruhat_leq(e, w0)
    assert weyl.bruhat_leq(el(a2, (1, 2)), w0)
    assert not weyl.bruhat_leq(w0, el(a2, (1, 2)))
    assert weyl.bruhat_leq(w0, w0)


def test_bruhat_covers_match_cover_coroots(datum):
    """w covers u exactly when u = w*s_eta for a cover coroot eta."""
    from schubert_atlas import oracle

    for t in ("A2", "B2", "G2"):
        d = datum(t)
        elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99))
        for w in elements:
            if w.is_identity:
                continue
            via_coroots = {
                weyl.multiply(w, sa.reflection_element(d, eta))
                for eta, u, drop in oracle._length_drop_pairs(d, w)
                if drop == 1
            }
            via_order = {u for u in elements if weyl.bruhat_covers(u, w)}
            assert via_coroots == via_order


def test_bruhat_leq_matches_subword_definition(datum):
    d = datum("A3")
    elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99))
    for w in elements:
        words = sa.all_reduced_words(w).words
        below = set()
        for word in words:
            for r in range(len(word) + 1):
                for subset in itertools.combinations(range(len(word)), r):
                    below.add(el(d, tuple(word[i] for i in subset)))
        for u in elements:
            assert weyl.bruhat_leq(u, w) == (u in below)


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
