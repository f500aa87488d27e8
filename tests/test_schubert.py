import itertools
import json
import random
from fractions import Fraction

import pytest

import schubert_atlas as sa
from schubert_atlas import exactlinalg, schubert, weyl
from schubert_atlas.errors import (
    InternalError,
    InvalidInputError,
    NotMinimalCosetRepError,
    NotSimplyLacedError,
)

from helpers import (
    coroot_for,
    coroot_mask,
    cover_coroots_direct,
    decompose_reference,
    decompositions_reference,
    fraction_rank,
    hat_n_map,
    highest_coroot,
    longest_element,
    mat_mul,
    multiply,
    p_adapt_reference,
    parabolic_images_reference,
    reflection_element,
    reorder_matrix,
    restrict_basis,
    rightmost_reference,
    schubert_input,
)


def frac(x):
    return Fraction(x)


# --- input validation --------------------------------------------------------


def test_input_rejects_non_minimal_rep(datum):
    a2 = datum("A2")
    w0 = sa.element_from_word(a2, (1, 2, 1))
    with pytest.raises(NotMinimalCosetRepError) as err:
        sa.SchubertInput(datum=a2, parabolic=sa.parabolic(a2, [2]), w=w0)
    assert err.value.violating_index == 2


@pytest.mark.parametrize("type_str", ["A4", "B3", "G2", "D4"])
def test_input_names_the_smallest_violating_index(type_str, datum):
    """For every Borel element and every I_P holding one of its right
    descents, the refusal names the smallest such j, though the simple
    coroots sit in canonical order opposite to j."""
    d = datum(type_str)
    indices = range(1, d.rank + 1)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), 99):
        descents = {j for j in indices if weyl.has_right_descent(w, j)}
        for r in range(1, d.rank + 1):
            for inside in itertools.combinations(indices, r):
                violating = descents.intersection(inside)
                if not violating:
                    sa.SchubertInput(datum=d, parabolic=sa.parabolic(d, inside), w=w)
                    continue
                with pytest.raises(NotMinimalCosetRepError) as err:
                    sa.SchubertInput(datum=d, parabolic=sa.parabolic(d, inside), w=w)
                assert err.value.violating_index == min(violating), (w, inside)


@pytest.mark.parametrize("word", [(1, 2), (1, 2, 3, 4, 5)])
def test_input_rejects_an_element_of_another_type(word, datum):
    """An A5 element under a D5 datum is refused before anything reads its
    inversion coroots against D5's canonical indices: (1, 2) used to be
    classified as a D5 element, and (1, 2, 3, 4, 5) failed in a dict lookup."""
    a5, d5 = datum("A5"), datum("D5")
    w = sa.element_from_word(a5, word)
    with pytest.raises(InvalidInputError, match="A5"):
        sa.SchubertInput(datum=d5, parabolic=sa.parabolic(d5, ()), w=w)


def test_input_rejects_a_parabolic_of_another_rank(datum):
    """A parabolic of the wrong rank is a bad input, not a w outside W^P:
    the error names both ranks and no violating index."""
    a3, a4 = datum("A3"), datum("A4")
    w = sa.element_from_word(a4, (1, 2))
    with pytest.raises(InvalidInputError, match="rank 3, but A4 has rank 4"):
        sa.SchubertInput(datum=a4, parabolic=sa.parabolic(a3, [1]), w=w)


def test_input_accepts_an_element_of_another_datum_of_the_same_type(datum):
    """Canonical indices depend only on the type, so a D5 element of a
    separately built D5 datum is classified as the same element."""
    d5 = datum("D5")
    w = sa.element_from_word(sa.build_root_datum("D5"), (2, 3, 1, 2, 3, 4, 5, 3))
    inp = sa.SchubertInput(datum=d5, parabolic=sa.parabolic(d5, ()), w=w)
    expected = sa.classify(schubert_input(d5, (), (2, 3, 1, 2, 3, 4, 5, 3)))
    assert sa.classify(inp) == expected


def test_identity_is_valid_for_any_parabolic(datum):
    a2 = datum("A2")
    inp = schubert_input(a2, (1, 2), ())
    report = sa.classify(inp)
    assert report.regime == "point"
    assert report.b2 == report.b_top == 0
    assert report.q_factorial and report.factorial
    assert report.gorenstein is schubert.Status.YES
    assert report.fano is schubert.Status.YES
    assert report.c1 == (frac(0), frac(0))
    assert report.anticanonical_weil == ()


# --- inversion sets ------------------------------------------------------------


def test_inversion_set_g2_w2(datum):
    inp = schubert_input(datum("G2"), (), (2, 1, 2, 1, 2))
    sets = schubert.cover_coroots(inp)
    inversions = weyl.canonical_record(inp.w).inversions
    assert set(inversions) == {(0, 1), (1, 1), (3, 2), (2, 1), (3, 1)}
    assert sets.support_B == (1, 2)


def test_inversion_set_single_reflection(datum):
    inp = schubert_input(datum("A4"), (), (3,))
    assert weyl.canonical_record(inp.w).inversions == ((0, 0, 1, 0, 0)[:4],)


def test_inversion_set_a4_example(datum):
    inp = schubert_input(datum("A4"), (), (3, 4, 1, 2, 3))
    assert set(weyl.canonical_record(inp.w).inversions) == {
        (0, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (0, 0, 1, 1),
        (0, 1, 1, 1),
    }


# --- decompositions --------------------------------------------------------------


def _canonical(d, coroots):
    return tuple(sorted(coroots, key=d.coroot_index.__getitem__))


def _pair_masks(d, witnesses):
    """The pair masks of reference witnesses (c, mu, mu'), in their order."""
    index = d.coroot_index
    return tuple((1 << index[mu]) | (1 << index[mu2]) for _, mu, mu2 in witnesses)


def _entering(d, mask, gamma):
    """What the coroot ``gamma`` makes decomposable as it enters ``mask``,
    none of whose coroots is taken as decomposable yet."""
    return weyl._newly_decomposable(d, mask, 0, d.coroot_keys[d.coroot_index[gamma]])


def _fold_steps(w):
    """(gamma, mask before gamma, decomposable after gamma) along the
    inversion sequence of w, folded one coroot at a time."""
    d = w.datum
    mask = dec = 0
    for gamma in weyl.canonical_record(w).inversions:
        i = d.coroot_index[gamma]
        dec |= weyl._newly_decomposable(d, mask, dec, d.coroot_keys[i])
        yield gamma, mask, dec
        mask |= 1 << i


def test_decompose_g2_scaled_witness(datum):
    """3 * (1, 1) = (0, 1) + (3, 2) is the one splitting of (1, 1) inside
    N(s2 s1 s2): (1, 1) enters between its summands, and (3, 2) entering
    last makes it decomposable, with c = 3."""
    g2 = datum("G2")
    inp = schubert_input(g2, (), (2, 1, 2))
    assert weyl.canonical_record(inp.w).inversions == ((0, 1), (1, 1), (3, 2))
    assert _entering(g2, coroot_mask(g2, [(0, 1), (1, 1)]), (3, 2)) == coroot_mask(
        g2, [(1, 1)]
    )
    assert [dec for _, _, dec in _fold_steps(inp.w)] == [0, 0, coroot_mask(g2, [(1, 1)])]
    assert weyl.canonical_record(inp.w).dec == coroot_mask(g2, [(1, 1)])


def test_decompose_simple_coroot_is_none(datum):
    """No coroot entering any set of positive coroots makes a simple coroot
    decomposable: a simple coroot has no splitting at all."""
    g2 = datum("G2")
    inp = schubert_input(g2, (), (2, 1, 2))
    record = weyl.canonical_record(inp.w)
    assert (0, 1) in record.inversions
    assert not record.dec & coroot_mask(g2, [(0, 1)])
    simple = coroot_mask(g2, [(1, 0), (0, 1)])
    full = (1 << len(g2.positives)) - 1
    for i, gamma in enumerate(g2.positive_coroots):
        assert not _entering(g2, full & ~(1 << i), gamma) & simple, gamma


def test_decompose_d5_theta(datum):
    """theta is decomposable in N(w) of the longest element of W^P, P =
    P{2}, and the coroot whose entry makes it so completes a splitting
    gamma + mu = theta with mu already inside."""
    d5 = datum("D5")
    w0 = longest_element(d5)
    rep = sa.min_coset_rep(w0, sa.parabolic(d5, [1, 3, 4, 5]))
    inp = sa.SchubertInput(
        datum=d5, parabolic=sa.parabolic(d5, [1, 3, 4, 5]), w=rep
    )
    theta = highest_coroot(d5)
    bit = coroot_mask(d5, [theta])
    record = weyl.canonical_record(rep)
    assert theta in record.inversions
    assert record.dec & bit
    gamma, before, _ = next(step for step in _fold_steps(rep) if step[2] & bit)
    mu = tuple(a - b for a, b in zip(theta, gamma))
    assert before & bit and before & coroot_mask(d5, [mu]), (gamma, mu)


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_splittings_match_pair_scan(type_str, datum):
    """The update rule against a plain pair scan over all positive coroots:
    gamma entering the set of every other positive coroot makes exactly
    the eta decomposable that have a splitting c * eta = gamma + mu (G2 has
    splittings with c = 3), and none it is told are decomposable already."""
    d = datum(type_str)
    reference = decompositions_reference(d.positive_coroots)
    full = (1 << len(d.positives)) - 1
    for i, gamma in enumerate(d.positive_coroots):
        expected = coroot_mask(
            d,
            [
                eta
                for eta, splits in reference.items()
                if any(gamma in (mu, mu2) for _, mu, mu2 in splits)
            ],
        )
        got = _entering(d, full & ~(1 << i), gamma)
        assert got == expected, (type_str, gamma)
        key = d.coroot_keys[i]
        assert weyl._newly_decomposable(d, full & ~(1 << i), expected, key) == 0


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_decompose_matches_pair_scan_everywhere(type_str, datum):
    """On every Borel element the decomposable mask that ``cover_coroots``
    carries is the mask of the keys of a plain pair scan over the inversion
    coroots, and the cover set is exactly the inversion coroots that a
    search from either end cannot decompose."""
    d = datum(type_str)
    borel = sa.parabolic(d, [])
    for w in sa.enumerate_coset_reps(d, borel, 99):
        sets = sa.cover_coroots(sa.SchubertInput(datum=d, parabolic=borel, w=w))
        record = weyl.canonical_record(w)
        elements = _canonical(d, record.inversions)
        reference = decompositions_reference(elements)
        assert record.dec == coroot_mask(d, reference), (type_str, w)
        for reverse_ties in (False, True):
            indecomposable = [
                eta
                for eta in elements
                if decompose_reference(eta, elements, reverse_ties) is None
            ]
            assert sets.cover_B == tuple(indecomposable), (type_str, w, reverse_ties)


# --- cover sets ------------------------------------------------------------------


def test_cover_g2_w1(datum):
    g2 = datum("G2")
    inp = schubert_input(g2, (), (2, 1, 2, 1))
    sets = sa.cover_coroots(inp)
    assert set(sets.cover_B) == {(1, 0), (3, 2)}
    inp_p = schubert_input(g2, (2,), (2, 1, 2, 1))
    sets_p = sa.cover_coroots(inp_p)
    assert set(sets_p.cover_P) == {(3, 2)}


def test_cover_g2_w2(datum):
    g2 = datum("G2")
    sets = sa.cover_coroots(schubert_input(g2, (), (2, 1, 2, 1, 2)))
    assert set(sets.cover_B) == {(0, 1), (3, 1)}
    sets_p = sa.cover_coroots(schubert_input(g2, (1,), (2, 1, 2, 1, 2)))
    assert set(sets_p.cover_P) == {(3, 1)}


def test_cover_a4_parabolic(datum):
    a4 = datum("A4")
    sets = sa.cover_coroots(schubert_input(a4, (4,), (3, 4, 1, 2, 3)))
    assert set(sets.cover_P) == {(1, 1, 1, 0), (0, 0, 1, 1), (0, 1, 1, 1)}
    inp_b = schubert_input(a4, (), (3, 4, 1, 2, 3))
    sets_b = sa.cover_coroots(inp_b)
    assert set(sets_b.cover_B) == set(weyl.canonical_record(inp_b.w).inversions)


def test_cover_single_reflection(datum):
    a4 = datum("A4")
    sets = sa.cover_coroots(schubert_input(a4, (4,), (3,)))
    assert sets.cover_P == ((0, 0, 1, 0),)


@pytest.mark.parametrize(
    "type_str,inside,sample",
    [
        ("E6", (2, 3, 4, 5, 6), None),
        ("E6", (1, 2, 3, 4, 5), None),
        ("E7", (1, 2, 3, 4, 5, 6), None),
        ("E7", (1, 2, 3, 5, 6, 7), 100),
    ],
    ids=["E6-P1", "E6-P6", "E7-P7", "E7-P4-sample"],
)
def test_parabolic_table_matches_reflection_formula(type_str, inside, sample, datum):
    """On every element of W^P, or on a seeded sample projected into W^P
    from random words, each coroot's inverted images under the table's
    steps are those of the reflection formula over every j in I_P, in the
    same order, and its blocked mask meets N(w) exactly when there is one.
    The simple mask holds the alpha_j^vee of I_P.  The whole record w
    carries is the one a cold element of its word builds."""
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    table = weyl.parabolic_table(d, p)
    assert weyl.parabolic_table(d, p) is table
    simple = [tuple(int(m == j - 1) for m in range(d.rank)) for j in inside]
    assert table.simple_mask == coroot_mask(d, simple)
    if sample is None:
        elements = list(sa.enumerate_coset_reps(d, p, len(d.positives)))
    else:
        rng = random.Random(f"table-{type_str}")
        elements = [
            sa.min_coset_rep(
                sa.element_from_word(d, [rng.randint(1, d.rank) for _ in range(40)]), p
            )
            for _ in range(sample)
        ]
    coroots = d.positive_coroots
    for w in elements:
        inv_mask = weyl.canonical_record(w).mask
        word = sa.canonical_reduced_word(w)
        cold = sa.element_from_word(d, word)
        assert cold.record is None
        assert weyl.canonical_record(cold) == w.record, word
        for i, eta in enumerate(coroots):
            expected = parabolic_images_reference(w, eta, inside)
            got = [(j, coroots[b]) for j, b in table.steps[i] if inv_mask >> b & 1]
            assert got == expected, (sa.canonical_reduced_word(w), eta)
            assert bool(inv_mask & table.blocked[i]) == bool(expected)


def test_cover_matches_oracle_b2(datum):
    inp = schubert_input(datum("B2"), (), (1, 2, 1))
    sets = sa.cover_coroots(inp)
    assert sets.cover_P
    assert frozenset(sets.cover_P) == cover_coroots_direct(inp)


# --- picard matrix -----------------------------------------------------------------


def test_picard_matrix_a4_borel_rank(datum):
    a4 = datum("A4")
    pic = sa.classify(schubert_input(a4, (), (3, 4, 1, 2, 3))).picard_matrix
    assert len(pic.entries) == 5 and len(pic.entries[0]) == 4
    assert fraction_rank(pic.entries) == 4


def test_picard_matrix_a4_parabolic_reorders_to_display(datum):
    a4 = datum("A4")
    pic = sa.classify(schubert_input(a4, (4,), (3, 4, 1, 2, 3))).picard_matrix
    rows = [(0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0)]
    cols = [3, 2, 1]
    assert reorder_matrix(pic.entries, pic.row_labels, pic.col_labels, rows, cols) == (
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    )


def test_picard_matrix_g2_grassmannian_single_row(datum):
    g2 = datum("G2")
    pic = sa.classify(schubert_input(g2, (2,), (2, 1))).picard_matrix
    assert pic.entries == ((3,),)
    assert pic.col_labels == (1,)


# --- factoriality -----------------------------------------------------------------


def test_classify_factorial_g2(datum):
    rep = sa.classify(schubert_input(datum("G2"), (), (2, 1, 2)))
    assert rep.q_factorial and not rep.factorial
    assert abs(rep.factorial_evidence["determinant"]) == 3


def test_classify_factorial_a4(datum):
    a4 = datum("A4")
    rep = sa.classify(schubert_input(a4, (4,), (3, 4, 1, 2, 3)))
    assert rep.q_factorial and rep.factorial
    rep = sa.classify(schubert_input(a4, (), (3, 4, 1, 2, 3)))
    assert not rep.q_factorial and not rep.factorial
    assert "determinant" not in rep.factorial_evidence


# --- adapted bases -----------------------------------------------------------------


def test_build_B_wB_a4_example(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (3, 4, 1, 2, 3))
    basis = sa.build_B_wB(inp, sa.cover_coroots(inp))
    assert {c for _, c in basis.entries} == {
        (0, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (0, 0, 1, 1),
    }
    # ordered by rightmost distance (1, 2, 2, 3), ties by index
    assert basis.keys == (3, 2, 4, 1)


def test_build_B_wB_53142_both_choices(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (2, 1, 3, 4, 3, 2, 1))
    sets = sa.cover_coroots(inp)
    default = sa.build_B_wB(inp, sets)
    reverse = sa.build_B_wB(inp, sets, reverse_ties=True)
    assert coroot_for(default, 3) == (1, 1, 1, 0)
    assert coroot_for(reverse, 3) == (0, 1, 1, 1)
    simple = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)}
    assert simple < {c for _, c in default.entries}
    assert simple < {c for _, c in reverse.entries}


def test_build_B_wB_d5_example(datum):
    d5 = datum("D5")
    inp = schubert_input(d5, (), (2, 3, 1, 2, 3, 4, 5, 3))
    basis = sa.build_B_wB(inp, sa.cover_coroots(inp))
    expected = {
        3: (0, 0, 1, 0, 0),
        5: (0, 0, 1, 0, 1),
        4: (0, 0, 1, 1, 0),
        2: (0, 1, 1, 0, 0),
        1: (1, 1, 1, 0, 0),
    }
    assert dict(basis.entries) == expected


def test_build_B_wB_d4_example(datum):
    d4 = datum("D4")
    inp = schubert_input(d4, (), (1, 3, 4, 2, 1, 3, 4, 2))
    basis = sa.build_B_wB(inp, sa.cover_coroots(inp))
    assert dict(basis.entries) == {
        2: (0, 1, 0, 0),
        1: (1, 1, 0, 0),
        3: (0, 1, 1, 0),
        4: (0, 1, 0, 1),
    }


def _assert_rightmost_coroot_is_least_unit_height(w):
    """The height theorem behind ``build_B_wB``: for every support letter k
    the rightmost distance is the least height h of an inversion coroot
    with unit k-th coefficient, and under both tie orders the walk's coroot
    has height h and is indecomposable."""
    d = w.datum
    _, inv, _, decomposable = weyl.canonical_record(w)
    assert decomposable == coroot_mask(d, decompositions_reference(inv))
    for k in weyl.support(w):
        h = min(sa.height(g) for g in inv if g[k - 1] == 1)
        where = (sa.canonical_reduced_word(w), k)
        assert rightmost_reference(w, k)[0] == h, where
        for reverse_ties in (False, True):
            dist, mu = sa.rightmost_distance(w, k, reverse_ties)
            assert (dist, sa.height(mu)) == (h, h), (where, reverse_ties)
            assert not decomposable & coroot_mask(d, [mu]), (where, reverse_ties)


@pytest.mark.parametrize("type_str", ["A4", "D4", "D5"])
def test_rightmost_coroot_is_least_unit_height_on_borel(type_str, datum):
    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, ()), len(d.positives)):
        _assert_rightmost_coroot_is_least_unit_height(w)


@pytest.mark.parametrize("type_str", ["E6", "E7", "E8"])
def test_rightmost_coroot_is_least_unit_height_on_random_words(type_str, datum):
    """Seeded walks up the right weak order (up to 40 letters drawn,
    descents skipped)."""
    d = datum(type_str)
    rng = random.Random(f"height-{type_str}")
    for _ in range(20):
        w = weyl.identity_element(d)
        for _ in range(rng.randint(1, 40)):
            i = rng.randint(1, d.rank)
            if not weyl.has_right_descent(w, i):
                w = weyl.right_mul_simple(w, i)
        _assert_rightmost_coroot_is_least_unit_height(w)


def test_build_B_wB_rejects_non_simply_laced(datum):
    inp = schubert_input(datum("G2"), (), (1, 2))
    with pytest.raises(NotSimplyLacedError):
        sa.build_B_wB(inp, sa.cover_coroots(inp))


def test_p_adapt_a4_example(datum):
    a4 = datum("A4")
    inp_b = schubert_input(a4, (), (3, 4, 1, 2, 3))
    borel = sa.build_B_wB(inp_b, sa.cover_coroots(inp_b))
    inp = schubert_input(a4, (4,), (3, 4, 1, 2, 3))
    sets = sa.cover_coroots(inp)
    adapted = sa.p_adapt(inp, restrict_basis(borel, sets.support_P), sets)
    assert dict(adapted.entries) == {
        3: (0, 0, 1, 1),
        2: (0, 1, 1, 1),
        1: (1, 1, 1, 0),
    }
    assert adapted.keys == (3, 2, 1)


def test_p_adapt_borel_is_identity(datum):
    """With I_P empty no step applies, so ``p_adapt`` hands back the very
    basis it was given, on every element of A4 and D5."""
    for type_str in ("A4", "D5"):
        d = datum(type_str)
        p = sa.parabolic(d, ())
        for w in sa.enumerate_coset_reps(d, p, len(d.positives)):
            inp = sa.SchubertInput(datum=d, parabolic=p, w=w)
            sets = sa.cover_coroots(inp)
            borel = sa.build_B_wB(inp, sets)
            assert sa.p_adapt(inp, borel, sets) is borel


def test_p_adapt_refuses_an_unmoved_basis_outside_the_cover_set(datum):
    """The path that moves nothing still checks that every coroot is a cover
    coroot: an A4 Borel basis of 121 with alpha_2^vee swapped for the
    decomposable inversion coroot alpha_1^vee + alpha_2^vee is refused."""
    inp = schubert_input(datum("A4"), (), (1, 2, 1))
    sets = sa.cover_coroots(inp)
    basis = sa.build_B_wB(inp, sets)
    assert basis.entries == ((1, (1, 0, 0, 0)), (2, (0, 1, 0, 0)))
    assert weyl.canonical_record(inp.w).dec & coroot_mask(inp.datum, [(1, 1, 0, 0)])
    bad = schubert.AdaptedBasis(entries=((1, (1, 0, 0, 0)), (2, (1, 1, 0, 0))))
    with pytest.raises(InternalError, match="escaped the cover set"):
        sa.p_adapt(inp, bad, sets)


def test_p_adapt_d5_maximal_parabolic(datum):
    d5 = datum("D5")
    inside = (1, 2, 4, 5)
    inp = schubert_input(d5, inside, (2, 3, 1, 2, 3, 4, 5, 3))
    sets = sa.cover_coroots(inp)
    inp_b = schubert_input(d5, (), (2, 3, 1, 2, 3, 4, 5, 3))
    borel = sa.build_B_wB(inp_b, sa.cover_coroots(inp_b))
    adapted = sa.p_adapt(inp, restrict_basis(borel, sets.support_P), sets)
    assert adapted.keys == (3,)
    assert [c for _, c in adapted.entries][0] in cover_coroots_direct(inp)


@pytest.mark.parametrize("reverse_ties", [False, True], ids=["ties", "reverse-ties"])
@pytest.mark.parametrize(
    "type_str,parabolics",
    [
        ("A4", [c for r in range(5) for c in itertools.combinations(range(1, 5), r)]),
        ("D4", [(1, 3, 4), (2,)]),
        ("E6", [(2, 3, 4, 5, 6)]),
        ("E6", [(1, 2, 3, 4, 5)]),
        ("E7", [(1, 2, 3, 4, 5, 6)]),
        ("E8", [(1, 2, 3, 4, 5, 6, 7)]),
    ],
    ids=["A4-all", "D4-P134-P2", "E6-P23456", "E6-P12345", "E7-P7", "E8-P8"],
)
def test_p_adapt_matches_round_scan(type_str, parabolics, reverse_ties, datum):
    """The per-key adaptation makes the picks of the round-restarting scan
    on every element of W^P, and some of those picks move a coroot.  The
    basis it starts from is the Borel basis of w restricted to I^P_w."""
    d = datum(type_str)
    moved = 0
    for inside in parabolics:
        p = sa.parabolic(d, inside)
        for w in sa.enumerate_coset_reps(d, p, len(d.positives)):
            inp = sa.SchubertInput(datum=d, parabolic=p, w=w)
            sets = sa.cover_coroots(inp)
            start = sa.build_B_wB(inp, sets, reverse_ties=reverse_ties)
            inp_b = sa.SchubertInput(datum=d, parabolic=sa.parabolic(d, ()), w=w)
            borel = sa.build_B_wB(inp_b, sa.cover_coroots(inp_b), reverse_ties)
            assert start == restrict_basis(borel, sets.support_P)
            adapted = sa.p_adapt(inp, start, sets)
            assert adapted.entries == p_adapt_reference(inp, start, sets).entries
            moved += adapted.entries != start.entries
    assert moved > 0


# --- full reports -------------------------------------------------------------------


def test_report_a4_borel(datum):
    report = sa.classify(schubert_input(datum("A4"), (), (3, 4, 1, 2, 3)))
    assert not report.q_factorial and not report.factorial
    assert report.gorenstein is schubert.Status.YES
    assert report.fano is schubert.Status.YES
    assert hat_n_map(report) == {3: 2, 2: 1, 4: 1, 1: 1}
    assert report.c1 == (frac(1), frac(1), frac(2), frac(1))
    assert report.anticanonical_weil == (2, 3, 3, 4, 4)


def test_report_a4_parabolic(datum):
    report = sa.classify(schubert_input(datum("A4"), (4,), (3, 4, 1, 2, 3)))
    assert report.factorial
    assert report.gorenstein is schubert.Status.YES
    assert report.fano is schubert.Status.NO
    assert report.nef_anticanonical is True
    assert hat_n_map(report) == {3: 3, 2: 1, 1: 0}
    assert report.c1 == (frac(0), frac(1), frac(3), frac(0))


def test_report_53142_sum_of_dual_basis_invariant(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (2, 1, 3, 4, 3, 2, 1))
    rep = sa.classify(inp)
    rev = sa.classify(inp, reverse_ties=True)
    assert rep.gorenstein is schubert.Status.YES

    def dual_basis_sum(report):
        n = report.n_matrix.entries
        keys = report.hat_n_keys
        total = {}
        for col in range(len(keys)):
            for row, k in enumerate(keys):
                total[k] = total.get(k, 0) + n[row][col]
        return total

    expected = {1: 1, 2: 1, 3: -1, 4: 1}
    assert dual_basis_sum(rep) == expected
    assert dual_basis_sum(rev) == expected
    assert rep.c1 == rev.c1


def test_report_d4_eight_letter_element_corrected(datum):
    """The eight-letter D4 element: the highest coroot decomposes as
    (1,1,1,0)+(0,1,0,1), so the cover set has 7 elements and the variety is
    Gorenstein (indeed Fano); verified against the brute-force oracle."""
    d4 = datum("D4")
    inp = schubert_input(d4, (), (1, 3, 4, 2, 1, 3, 4, 2))
    report = sa.classify(inp)
    theta = (1, 2, 1, 1)
    assert set(report.inversion_coroots) == {
        (0, 1, 0, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 1, 0, 0),
        theta,
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (0, 1, 1, 1),
    }
    assert theta not in set(report.cover_coroots)
    assert report.b_top == 7
    assert frozenset(report.cover_coroots) == cover_coroots_direct(inp)
    w = sa.element_from_word(d4, (1, 3, 4, 2, 1, 3, 4, 2))
    refl = reflection_element(d4, theta)
    assert multiply(w, refl).length == 1
    assert report.gorenstein is schubert.Status.YES
    assert report.fano is schubert.Status.YES
    assert report.c1 == (frac(1), frac(2), frac(1), frac(1))


def test_report_d5_sets(datum):
    report = sa.classify(schubert_input(datum("D5"), (), (2, 3, 1, 2, 3, 4, 5, 3)))
    assert set(report.inversion_coroots) == {
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 1, 2, 1, 1),
        (1, 1, 2, 1, 1),
        (0, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
    }
    assert set(report.cover_coroots) == {
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
    }


def test_report_g2_grassmannians(datum):
    g2 = datum("G2")
    rep = sa.classify(schubert_input(g2, (2,), (2, 1)))
    assert rep.q_factorial and not rep.factorial
    assert rep.m_matrix.entries == ((3,),)
    assert rep.n_matrix.entries == ((Fraction(1, 3),),)
    assert rep.gorenstein is schubert.Status.NO
    assert rep.q_gorenstein is schubert.Status.YES
    assert rep.q_gorenstein_fano is schubert.Status.YES
    assert rep.hat_n == (Fraction(5, 3),)
    assert rep.c1 == (Fraction(5, 3), frac(0))

    rep2 = sa.classify(schubert_input(g2, (1,), (1, 2)))
    assert rep2.gorenstein is schubert.Status.YES
    assert rep2.fano is schubert.Status.YES
    assert rep2.c1 == (frac(0), frac(3))


def test_report_g2_borel_surfaces_matrices(datum):
    g2 = datum("G2")
    rep = sa.classify(schubert_input(g2, (), (2, 1, 2)))
    assert reorder_matrix(
        rep.m_matrix.entries,
        rep.m_matrix.row_labels,
        rep.m_matrix.col_labels,
        [(0, 1), (3, 2)],
        [2, 1],
    ) == ((1, 0), (2, 3))
    assert reorder_matrix(
        rep.n_matrix.entries,
        rep.n_matrix.row_labels,
        rep.n_matrix.col_labels,
        [2, 1],
        [(0, 1), (3, 2)],
    ) == ((Fraction(1), Fraction(0)), (Fraction(-2, 3), Fraction(1, 3)))
    assert rep.c1 == (Fraction(2, 3), frac(2))
    assert rep.q_gorenstein_fano is schubert.Status.YES


def test_report_single_reflection_is_projective_line(datum):
    rep = sa.classify(schubert_input(datum("A1"), (), (1,)))
    assert rep.factorial and rep.gorenstein is schubert.Status.YES
    assert rep.fano is schubert.Status.YES
    assert rep.c1 == (frac(2),)
    rep = sa.classify(schubert_input(datum("G2"), (), (1,)))
    assert rep.c1 == (frac(2), frac(0))


def test_report_undetermined_regime(datum):
    """A non-simply-laced, non-Q-factorial input lands in the honest
    'undetermined' regime."""
    b3 = datum("B3")
    found = None
    for w in sa.enumerate_coset_reps(b3, sa.parabolic(b3, []), 9):
        if w.is_identity:
            continue
        inp = sa.SchubertInput(datum=b3, parabolic=sa.parabolic(b3, []), w=w)
        sets = sa.cover_coroots(inp)
        if len(sets.cover_P) != len(sets.support_P):
            found = inp
            break
    assert found is not None
    rep = sa.classify(found)
    assert rep.regime == "general_undetermined"
    assert rep.gorenstein is schubert.Status.UNDETERMINED
    assert rep.q_gorenstein is schubert.Status.UNDETERMINED
    assert rep.fano is schubert.Status.UNDETERMINED
    assert rep.c1 is None and rep.hat_n is None
    assert rep.anticanonical_weil  # Weil anticanonical data is still emitted


@pytest.mark.parametrize("type_str,cap", [("E6", 4), ("F4", 5), ("B4", 4)])
def test_report_invariants_sweep(type_str, cap, datum):
    """Structural report invariants on types outside the small golden set:
    q-factorial iff b2 == b_top, factorial implies q-factorial, a Gorenstein
    verdict comes with an integral anticanonical class, and the Picard
    matrix has full rank b2."""
    from helpers import valid_parabolics

    d = datum(type_str)
    for w in sa.enumerate_coset_reps(d, sa.parabolic(d, []), cap):
        for inside in valid_parabolics(d, w):
            inp = sa.SchubertInput(
                datum=d, parabolic=sa.parabolic(d, inside), w=w
            )
            rep = sa.classify(inp)
            assert rep.q_factorial == (rep.b2 == rep.b_top)
            if rep.factorial:
                assert rep.q_factorial
            if rep.gorenstein is schubert.Status.YES:
                assert rep.c1 is not None
                assert all(x.denominator == 1 for x in rep.c1)
            assert rep.anticanonical_weil == tuple(
                sum(eta) + 1 for eta in rep.cover_coroots
            )
            assert fraction_rank(rep.picard_matrix.entries) == rep.b2


@pytest.mark.parametrize(
    "type_str,inside",
    [("A4", ()), ("D4", ()), ("E6", (2, 3, 4, 5, 6))],
    ids=["A4", "D4", "E6-P1"],
)
def test_simply_laced_anticanonical_data_are_integers(type_str, inside, datum):
    """In simply-laced types N = M^-1, hat-n, c1 and every Gorenstein defect
    are Python ints: no Fraction is built on that path."""
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    for w in sa.enumerate_coset_reps(d, p, 99):
        rep = sa.classify(sa.SchubertInput(datum=d, parabolic=p, w=w))
        values = list(rep.hat_n) + list(rep.c1 or ())
        values += [defect for _, defect in rep.gorenstein_failures]
        if rep.n_matrix is not None:
            values += [x for row in rep.n_matrix.entries for x in row]
        assert all(type(x) is int for x in values), (type_str, w)


@pytest.mark.parametrize(
    "type_str,inside",
    [("B3", ()), ("F4", ()), ("A4", (1,)), ("D4", (1,)), ("D5", (1,)),
     ("E6", (2, 3, 4, 5, 6))],
    ids=["B3", "F4", "A4-IP1", "D4-IP1", "D5-IP1", "E6-IP23456"],
)
def test_q_factorial_general_n_inverts_m(type_str, inside, datum):
    """In both determined regimes the N that a written report derives
    inverts M, and hat-n, solved for its one right-hand side, is N (ht + 1)
    over the rows of M."""
    d = datum(type_str)
    p = sa.parabolic(d, inside)
    regimes = set()
    for w in sa.enumerate_coset_reps(d, p, 99):
        rep = sa.classify(sa.SchubertInput(datum=d, parabolic=p, w=w))
        if rep.m_matrix is None:
            continue
        regimes.add(rep.regime)
        n = rep.n_matrix.entries
        size = len(rep.hat_n_keys)
        assert mat_mul(rep.m_matrix.entries, n) == tuple(
            tuple(int(i == j) for j in range(size)) for i in range(size)
        ), (type_str, w)
        rows = rep.m_matrix.row_labels
        if rep.regime == "simply_laced":
            rows = [coroot for _, coroot in rows]
        h1 = [sa.height(c) + 1 for c in rows]
        assert rep.hat_n == tuple(
            sum(x * h for x, h in zip(row, h1)) for row in n
        ), (type_str, w)
    assert regimes == {"simply_laced" if d.simply_laced else "q_factorial_general"}


def test_q_factorial_solve_checks_its_determinant(datum, monkeypatch):
    """The adjugate's determinant and the Picard determinant that decides
    factoriality come from two eliminations of P: a mismatch is an internal
    error, not a report."""
    inp = schubert_input(datum("G2"), (), (2, 1, 2))
    assert sa.classify(inp).regime == "q_factorial_general"
    det = exactlinalg.det
    monkeypatch.setattr(exactlinalg, "det", lambda m: det(m) + 1)
    with pytest.raises(InternalError, match="adjugate determinant"):
        sa.classify(inp)


def test_simply_laced_factoriality_mismatch_is_an_internal_error(datum, monkeypatch):
    """In simply-laced types Q-factorial and factorial agree: a square
    Picard matrix whose determinant is not +-1 is an internal error, not a
    report.  A4/P{4} at 34123 is factorial with a square P."""
    inp = schubert_input(datum("A4"), (4,), (3, 4, 1, 2, 3))
    assert sa.classify(inp).factorial
    monkeypatch.setattr(exactlinalg, "det", lambda m: 2)
    with pytest.raises(InternalError, match="simply-laced factoriality mismatch"):
        sa.classify(inp)


def test_simply_laced_solve_needs_a_unipotent_lower_basis(datum):
    """Forward substitution is exact only over a unipotent lower-triangular
    M: the 53142 basis in reverse order is refused as it is built, so no
    solve ever sees it, and so is the inverse of a simply-laced M with
    determinant 2."""
    inp = schubert_input(datum("A4"), (), (2, 1, 3, 4, 3, 2, 1))
    sets = sa.cover_coroots(inp)
    basis = sa.build_B_wB(inp, sets)
    with pytest.raises(InternalError, match="adapted basis matrix is not lower-triangular"):
        flipped = schubert.AdaptedBasis(entries=basis.entries[::-1])
        sa.gorenstein_fano_report(inp, sets, flipped)
    m = schubert.LabeledMatrix(row_labels=(1, 2), col_labels=(1, 2),
                               entries=((1, 1), (-1, 1)))
    rep = schubert.ClassificationReport("A2", (), regime="simply_laced", m_matrix=m)
    with pytest.raises(InternalError, match="not unimodular"):
        rep.n_matrix


def test_simply_laced_defects_recheck_the_rows_of_m(datum):
    """The simply-laced report takes the defect of every Picard row, the
    rows of M included, so a forward substitution that goes wrong cannot
    pass as Gorenstein.  A4/P{4} at 34123 is factorial: every cover coroot
    is a row of M, and no other row could show the fault.  One is added to
    the first entry of M's last row after the basis is built: the last entry
    of hat-n drops by the first, and the last row fails with defect 1 minus
    that first entry."""
    inp = schubert_input(datum("A4"), (4,), (3, 4, 1, 2, 3))
    sets = sa.cover_coroots(inp)
    basis = sa.p_adapt(inp, sa.build_B_wB(inp, sets), sets)
    report = sa.gorenstein_fano_report(inp, sets, basis)
    assert report.factorial and report.gorenstein is schubert.Status.YES
    assert report.gorenstein_failures == ()
    assert len(basis.entries) == len(sets.cover_P) == 3
    last = basis.matrix[-1]
    bent = basis.matrix[:-1] + ((last[0] + 1,) + last[1:],)
    object.__setattr__(basis, "matrix", bent)
    report = sa.gorenstein_fano_report(inp, sets, basis)
    hat0 = report.hat_n[0]
    assert hat0 != 0
    assert report.gorenstein_failures == ((basis.entries[-1][1], 1 - hat0),)
    assert report.gorenstein is report.q_gorenstein is schubert.Status.NO
    assert report.c1 is None


def test_derived_fields_leave_equality_hash_and_repr_alone(datum):
    """``ParabolicSubset.complement``/``.inside_sorted`` and
    ``AdaptedBasis.keys``/``.matrix`` are set once at construction; they
    equal the comprehensions over the declared fields, and equality, hashing and repr
    still read only the declared fields.  The basis compared against is
    another unipotent one, since ``AdaptedBasis`` refuses any other."""
    a4 = datum("A4")
    assert repr(sa.parabolic(a4, (3, 1))) == (
        "ParabolicSubset(rank=4, inside=frozenset({1, 3}))"
    )
    same = sa.ParabolicSubset(rank=4, inside=frozenset({1, 3}))
    assert same == sa.parabolic(a4, (1, 3))
    assert hash(same) == hash(sa.parabolic(a4, (3, 1)))
    for d in (a4, datum("D5")):
        for n in range(d.rank + 1):
            for inside in itertools.combinations(range(1, d.rank + 1), n):
                p = sa.parabolic(d, inside)
                assert p.complement == tuple(
                    j for j in range(1, d.rank + 1) if j not in p.inside
                )
                assert p.inside_sorted == tuple(sorted(p.inside))

    entries = ((3, (0, 0, 1, 0)), (1, (1, 1, 1, 0)))
    basis = schubert.AdaptedBasis(entries=entries)
    assert basis.keys == tuple(k for k, _ in basis.entries) == (3, 1)
    assert basis.matrix == tuple(
        tuple(c[k - 1] for k in basis.keys) for _, c in basis.entries
    ) == ((1, 0), (1, 1))
    twin = schubert.AdaptedBasis(entries=tuple(entries))
    assert basis == twin and hash(basis) == hash(twin)
    assert basis != schubert.AdaptedBasis(entries=((3, (0, 0, 1, 0)), (1, (1, 0, 0, 0))))
    assert repr(basis) == f"AdaptedBasis(entries={entries!r})"
    empty = schubert.AdaptedBasis(entries=())
    assert empty.keys == empty.matrix == ()


@pytest.mark.parametrize(
    "type_str, word, b2",
    [("A4", (), 0), ("A4", (1,), 1), ("D5", (2, 3, 1, 2, 3, 4, 5, 3), 5)],
    ids=["point", "A4-1", "D5-generic"],
)
def test_matrix_columns_and_shared_provenance(type_str, word, b2, datum):
    """The Picard matrix and M read the same entries as the plain
    comprehension at 0, 1 and several Cartier indices.  The provenance is
    read-only, and ``report_to_dict`` copies it into a fresh sorted dict."""
    inp = schubert_input(datum(type_str), (), word)
    report = sa.classify(inp)
    ks = report.cartier_indices
    assert len(ks) == b2
    pic = report.picard_matrix
    assert pic.entries == tuple(
        tuple(eta[k - 1] for k in ks) for eta in report.cover_coroots
    )
    if report.m_matrix is not None:
        keys = report.basis.keys
        assert report.m_matrix.entries == report.basis.matrix == tuple(
            tuple(c[k - 1] for k in keys) for _, c in report.basis.entries
        )
    with pytest.raises(TypeError):
        report.provenance["gorenstein"] = "edited"
    fields = schubert.report_to_dict(report)["provenance"]
    assert list(fields) == sorted(report.provenance)
    assert fields == dict(report.provenance)
    fields["gorenstein"] = "edited"
    assert report.provenance["gorenstein"] != "edited"
    assert schubert.report_to_dict(report)["provenance"] != fields


def test_anticanonical_weil_recomputation(datum):
    report = sa.classify(schubert_input(datum("A4"), (4,), (3, 4, 1, 2, 3)))
    for eta, entry in zip(report.cover_coroots, report.anticanonical_weil):
        assert entry == sum(eta) + 1


def test_report_field_order():
    """``gorenstein_fano_report`` builds the report by one positional call,
    which relies on this order of its fields."""
    assert schubert.ClassificationReport._fields == (
        "cartan_type", "parabolic_inside", "word", "length", "regime", "b2",
        "b_top", "support", "cartier_indices", "inversion_coroots",
        "cover_coroots", "picard_matrix", "q_factorial", "factorial",
        "factorial_evidence", "basis", "m_matrix", "hat_n_keys", "hat_n",
        "gorenstein", "q_gorenstein", "fano", "q_gorenstein_fano",
        "gorenstein_failures", "nef_anticanonical", "c1", "anticanonical_weil",
        "provenance",
    )


def test_records_refuse_assignment(datum):
    """A report, its coroot record and its matrices are immutable:
    assigning to a field raises ``AttributeError``."""
    d4 = datum("D4")
    inp = schubert_input(d4, (), (2, 1, 3, 4, 2))
    report = sa.classify(inp)
    records = (
        (report, "gorenstein"),
        (sa.cover_coroots(inp), "cover_B"),
        (report.picard_matrix, "entries"),
        (report.m_matrix, "entries"),
    )
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


# --- serialization -------------------------------------------------------------------


def test_json_round_trip_byte_identical(datum):
    report = sa.classify(schubert_input(datum("G2"), (), (2, 1, 2)))
    doc = schubert.report_to_dict(report)
    doc["conventions"] = schubert.report_conventions(datum("G2"))
    text = schubert.canonical_json(doc)
    assert schubert.canonical_json(json.loads(text)) == text
    doc = json.loads(text)
    assert doc["hat_n"] == {"1": "2/3", "2": "2"}
    assert doc["c1"] == ["2/3", "2"]
    assert doc["gorenstein"] == "no"


@pytest.mark.parametrize(
    "x", [0, 3, -7, 10**30, True, False, Fraction(4, 2), Fraction(-2, 3)]
)
def test_frac_str_matches_fraction(x):
    """An int skips ``Fraction`` and a bool does not, so each entry reads
    as its ``Fraction`` does: a bool as 1 or 0, not True or False."""
    assert schubert._frac_str(x) == str(Fraction(x))


def test_c1_pretty(datum):
    rep = sa.classify(schubert_input(datum("G2"), (), (2, 1)))
    assert schubert.c1_pretty(rep) == "2*w1 - w2"
    rep = sa.classify(schubert_input(datum("A1"), (), ()))
    assert schubert.c1_pretty(rep) == "0"


def test_csv_row_fields(datum):
    row = schubert.csv_row(sa.classify(schubert_input(datum("A1"), (), (1,))))
    assert set(row) == set(schubert.CSV_FIELDS)
    assert row["c1"] == "2*w1"
    assert row["gorenstein"] == "yes"
