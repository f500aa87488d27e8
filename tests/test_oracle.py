import random
from operator import mul

import pytest

import schubert_atlas as sa
from schubert_atlas import oracle, weyl
from schubert_atlas.errors import InternalError, NotSimplyLacedError

from helpers import (
    cover_coroots_direct,
    decompositions_reference,
    highest_coroot,
    longest_element,
    multiply,
    reflection_element,
    schubert_input,
    valid_parabolics,
)


def test_direct_cover_g2_grassmannian(datum):
    g2 = datum("G2")
    inp = schubert_input(g2, (2,), (2, 1, 2, 1))
    assert cover_coroots_direct(inp) == frozenset({(3, 2)})


def test_direct_cover_single_reflection(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (2,))
    assert cover_coroots_direct(inp) == frozenset({(0, 1, 0, 0)})


def test_direct_cover_a4_borel(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (3, 4, 1, 2, 3))
    assert cover_coroots_direct(inp) == frozenset(
        {
            (0, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 1, 1, 0),
            (0, 0, 1, 1),
            (0, 1, 1, 1),
        }
    )


@pytest.mark.parametrize("type_str", ["A3", "B2", "G2"])
def test_direct_cover_matches_filter_everywhere(type_str, datum):
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        for inside in valid_parabolics(d, w):
            inp = sa.SchubertInput(
                datum=d, parabolic=sa.parabolic(d, inside), w=w
            )
            assert frozenset(sa.cover_coroots(inp).cover_P or ()) == (
                cover_coroots_direct(inp)
            )


@pytest.mark.parametrize("type_str", ["E6", "E7", "E8"])
def test_direct_cover_matches_filter_on_exceptional_types(type_str, datum):
    """Seeded random walks up the right weak order of E6, E7 and E8 (up to
    40 letters drawn, descents skipped), each with a random I_P it is a
    minimal coset representative for: the filtered cover coroots are the
    definition's."""
    d = datum(type_str)
    rng = random.Random(f"cover-{type_str}")
    for _ in range(20):
        w = weyl.identity_element(d)
        for _ in range(rng.randint(1, 40)):
            i = rng.randint(1, d.rank)
            if not weyl.has_right_descent(w, i):
                w = weyl.right_mul_simple(w, i)
        inside = rng.choice(list(valid_parabolics(d, w)))
        inp = sa.SchubertInput(datum=d, parabolic=sa.parabolic(d, inside), w=w)
        assert set(sa.cover_coroots(inp).cover_P or ()) == (
            cover_coroots_direct(inp)
        ), (type_str, sa.canonical_reduced_word(w), inside)


@pytest.mark.parametrize(
    "type_str,inside,sample",
    [("E7", (1, 2, 3, 4, 5, 6), None), ("E8", (1, 2, 3, 4, 5, 6, 7), 60)],
    ids=["E7-P7-all", "E8-P8-sample"],
)
def test_direct_cover_matches_filter_on_exceptional_parabolics(
    type_str, inside, sample, datum
):
    """Every element of E7/P7 and a seeded sample of E8/P8 (all 240 take
    ~2 s): the filtered cover coroots, where each reflection image of an
    alpha_j^vee (j in I_P) is read off the datum's pairings, are the
    definition's."""
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    elements = list(sa.enumerate_coset_reps(d, p, len(d.positives)))
    if sample is not None:
        elements = random.Random(f"cover-{type_str}-P").sample(elements, sample)
    for w in elements:
        inp = sa.SchubertInput(datum=d, parabolic=p, w=w)
        assert set(sa.cover_coroots(inp).cover_P) == cover_coroots_direct(inp), (
            type_str,
            sa.canonical_reduced_word(w),
        )


@pytest.mark.parametrize(
    "type_str,sample",
    [("A4", None), ("B3", None), ("C3", None), ("D4", None), ("G2", None),
     ("F4", None), ("E6", 30), ("E7", 30)],
)
def test_length_drop_pairs_reflect_by_the_formula(type_str, sample, datum):
    """Each w s_eta of ``_length_drop_pairs``, built by the rank-one update
    w - (w eta) p^T, is the product of w with the reflection matrix of eta,
    in matrix and length, and its length is the number of positive coroots
    it sends negative, counted from whole images: on every Borel element of
    the smaller types, and on seeded random reduced elements of E6 and E7
    (up to l(w0) letters drawn, descents skipped)."""
    d = datum(type_str)
    if sample is None:
        elements = list(sa.enumerate_coset_reps(d, sa.parabolic(d, ()), 99))
    else:
        rng = random.Random(f"reflect-{type_str}")
        elements = []
        for _ in range(sample):
            w = weyl.identity_element(d)
            for _ in range(rng.randint(1, len(d.positives))):
                i = rng.randint(1, d.rank)
                if not weyl.has_right_descent(w, i):
                    w = weyl.right_mul_simple(w, i)
            elements.append(w)
    reflections = {eta: reflection_element(d, eta) for eta in d.positive_coroots}
    for w in elements:
        for eta, u, drop in oracle._length_drop_pairs(d, w):
            expected = multiply(w, reflections[eta])
            assert (u.matrix, u.length) == (expected.matrix, expected.length), eta
            # a coroot is inverted when some coordinate of its image is negative
            inverted = sum(
                any(sum(map(mul, row, c)) < 0 for row in u.matrix) for c in d.positive_coroots
            )
            assert (u.length, drop) == (inverted, w.length - inverted), eta


def _one_line(w, rank):
    perm = list(range(1, rank + 2))
    for i in sa.canonical_reduced_word(w):
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def test_type_a_covers_match_permutation_model(datum):
    """Type A sanity from scratch: cover coroots are the transpositions
    (i, j) with w(i) > w(j) and no intermediate value, in one-line terms."""
    a4 = datum("A4")
    w = sa.element_from_word(a4, (2, 1, 3, 4, 3, 2, 1))
    assert _one_line(w, 4) == (5, 3, 1, 4, 2)
    for w in sa.enumerate_coset_reps(a4, sa.parabolic(a4, []), 99):
        p = _one_line(w, 4)
        assert sum(
            1
            for a in range(5)
            for b in range(a + 1, 5)
            if p[a] > p[b]
        ) == w.length
        model = set()
        for i in range(5):
            for j in range(i + 1, 5):
                if p[i] > p[j] and not any(
                    p[i] > p[k] > p[j] for k in range(i + 1, j)
                ):
                    model.add(tuple(1 if i <= m < j else 0 for m in range(4)))
        inp = sa.SchubertInput(datum=a4, parabolic=sa.parabolic(a4, []), w=w)
        assert frozenset(sa.cover_coroots(inp).cover_P) == model


# --- conjecture 1: order reversal ------------------------------------------


@pytest.mark.parametrize("type_str", ["A4", "D4", "D5"])
def test_pair_decompositions_match_reference(type_str, datum):
    """On every Borel element the oracle's own pair scan finds the
    decomposable inversion coroots of the reference scan, each with the
    same pairs in the same order, and every splitting has c = 1."""
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, ()), 99):
        seq = weyl.canonical_record(w).inversions
        reference = decompositions_reference(seq)
        assert {c for witnesses in reference.values() for c, _, _ in witnesses} <= {1}
        expected = {
            eta: [(mu, mu_prime) for _, mu, mu_prime in witnesses]
            for eta, witnesses in reference.items()
        }
        assert oracle._pair_decompositions(seq) == expected, sa.canonical_reduced_word(w)


def test_order_reversal_a2_longest(datum):
    a2 = datum("A2")
    w0 = sa.element_from_word(a2, (1, 2, 1))
    frag = oracle.check_order_reversal(w0)
    assert frag.verified and not frag.truncated
    assert frag.words_scanned == 2


def test_order_reversal_vacuous_when_all_indecomposable(datum):
    a4 = datum("A4")
    w = sa.element_from_word(a4, (3, 4, 1, 2, 3))
    frag = oracle.check_order_reversal(w)
    assert frag.verified and frag.words_scanned == 0


def test_order_reversal_d5_example(datum):
    """The highest coroot of the 13-letter element reverses across the braid
    move s_3 s_5 s_3 -> s_5 s_3 s_5."""
    d5 = datum("D5")
    word_i = (2, 3, 4, 1, 2, 3, 5, 3, 4, 2, 3, 1, 2)
    word_j = (2, 3, 4, 1, 2, 5, 3, 5, 4, 2, 3, 1, 2)
    w = sa.element_from_word(d5, word_i)
    assert sa.element_from_word(d5, word_j) == w
    theta = highest_coroot(d5)
    mu, mu2 = (1, 1, 1, 1, 0), (0, 1, 1, 0, 1)
    assert tuple(a + b for a, b in zip(mu, mu2)) == theta
    seq_i = sa.inversion_sequence(d5, word_i)
    seq_j = sa.inversion_sequence(d5, word_j)
    assert (seq_i.index(mu) < seq_i.index(mu2)) != (
        seq_j.index(mu) < seq_j.index(mu2)
    )
    frag = oracle.check_order_reversal(w)
    assert frag.verified and not frag.truncated


def test_order_reversal_requires_simply_laced(datum):
    with pytest.raises(NotSimplyLacedError):
        oracle.check_order_reversal(sa.element_from_word(datum("B2"), (1, 2)))


def test_order_reversal_truncation_flag(datum):
    d4 = datum("D4")
    w0 = longest_element(d4)
    frag = oracle.check_order_reversal(w0, cap=1)
    assert frag.truncated and not frag.verified
    assert frag.counterexamples == ()  # inconclusive, not refuted


# --- conjecture 2: deletion between equal neighbours -------------------------


def test_coxeter_deletion_vacuous(datum):
    a2 = datum("A2")
    frag = oracle.check_coxeter_deletion(sa.element_from_word(a2, (1, 2)))
    assert frag.verified and frag.words_scanned == 0


def test_coxeter_deletion_a2_longest(datum):
    a2 = datum("A2")
    frag = oracle.check_coxeter_deletion(sa.element_from_word(a2, (1, 2, 1)))
    assert frag.verified and not frag.counterexamples


def test_coxeter_deletion_d5_boxed_pattern(datum):
    """Deleting the middle letter of the boxed s_5 s_3 s_5 realizes the
    reflection of the highest coroot."""
    d5 = datum("D5")
    word_j = (2, 3, 4, 1, 2, 5, 3, 5, 4, 2, 3, 1, 2)
    w = sa.element_from_word(d5, word_j)
    theta = highest_coroot(d5)
    seq_j = sa.inversion_sequence(d5, word_j)
    position = 7  # 1-based; neighbours are both s_5
    assert word_j[position - 2] == word_j[position] == 5
    assert seq_j[len(word_j) - position] == theta
    refl = reflection_element(d5, theta)
    assert multiply(w, refl).length < w.length - 1
    frag = oracle.check_coxeter_deletion(w)
    assert frag.verified and not frag.truncated


def test_coxeter_deletion_exhaustive_a3(datum):
    a3 = datum("A3")
    for w in sa.enumerate_coset_reps(a3, sa.parabolic(a3, []), 99):
        frag = oracle.check_coxeter_deletion(w)
        assert frag.verified, sa.canonical_reduced_word(w)
        assert not frag.counterexamples and not frag.manual_review


# --- conjecture 3: rightmost indecomposability --------------------------------


def test_rightmost_indecomposable_53142(datum):
    a4 = datum("A4")
    w = sa.element_from_word(a4, (2, 1, 3, 4, 3, 2, 1))
    frag = oracle.check_rightmost_indecomposable(w)
    assert frag.verified and not frag.counterexamples


def test_rightmost_indecomposable_longest_element(datum):
    d4 = datum("D4")
    frag = oracle.check_rightmost_indecomposable(longest_element(d4))
    assert frag.verified


def test_rightmost_indecomposable_requires_simply_laced(datum):
    with pytest.raises(NotSimplyLacedError):
        oracle.check_rightmost_indecomposable(
            sa.element_from_word(datum("G2"), (1, 2))
        )


@pytest.mark.parametrize("shift, match", [(1, "closer than"), (-1, "reaches")])
def test_rightmost_scan_checks_distances_against_its_words(shift, match, datum, monkeypatch):
    """The scan takes its distances from ``rightmost_distance`` and tests
    them against the words: a distance one too large meets a word whose
    rightmost s_k sits closer, and one too small is reached by no word."""
    d4 = datum("D4")
    w = sa.element_from_word(d4, (2, 1, 3, 4, 2, 1, 3))
    assert w.length == 7
    assert oracle.check_rightmost_indecomposable(w).verified
    real = oracle.rightmost_distance
    monkeypatch.setattr(
        oracle, "rightmost_distance", lambda w, k: (real(w, k)[0] + shift, None)
    )
    with pytest.raises(InternalError, match=match):
        oracle.check_rightmost_indecomposable(w)


# --- determinism ----------------------------------------------------------------


def test_scans_are_deterministic(datum):
    a3 = datum("A3")
    w0 = longest_element(a3)
    assert oracle.check_order_reversal(w0) == oracle.check_order_reversal(w0)
    assert oracle.check_coxeter_deletion(w0) == oracle.check_coxeter_deletion(w0)
    assert oracle.check_rightmost_indecomposable(
        w0
    ) == oracle.check_rightmost_indecomposable(w0)
