import json
from fractions import Fraction

import pytest

import schubert_atlas as sa
from schubert_atlas import oracle, schubert, weyl
from schubert_atlas.errors import (
    NotInInversionSetError,
    NotMinimalCosetRepError,
    NotSimplyLacedError,
)

from helpers import decompose_reference, hat_n_map, reorder_matrix, schubert_input


def frac(x):
    return Fraction(x)


# --- input validation --------------------------------------------------------


def test_input_rejects_non_minimal_rep(datum):
    a2 = datum("A2")
    w0 = sa.element_from_word(a2, (1, 2, 1))
    with pytest.raises(NotMinimalCosetRepError) as err:
        sa.SchubertInput(datum=a2, parabolic=sa.parabolic(a2, [2]), w=w0)
    assert err.value.violating_index == 2


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
    assert set(sets.inv_ordered) == {(0, 1), (1, 1), (3, 2), (2, 1), (3, 1)}
    assert sets.support_B == (1, 2)


def test_inversion_set_single_reflection(datum):
    inp = schubert_input(datum("A4"), (), (3,))
    sets = schubert.cover_coroots(inp)
    assert sets.inv_ordered == ((0, 0, 1, 0, 0)[:4],)


def test_inversion_set_a4_example(datum):
    inp = schubert_input(datum("A4"), (), (3, 4, 1, 2, 3))
    sets = schubert.cover_coroots(inp)
    assert set(sets.inv_ordered) == {
        (0, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (0, 0, 1, 1),
        (0, 1, 1, 1),
    }


# --- decompose -------------------------------------------------------------------


def test_decompose_g2_scaled_witness(datum):
    g2 = datum("G2")
    inp = schubert_input(g2, (), (2, 1, 2))
    sets = schubert.cover_coroots(inp)
    elements = schubert._canonical_sorted(g2, sets.inv_ordered)
    assert set(elements) == {(0, 1), (1, 1), (3, 2)}
    wit = sa.decompose((1, 1), elements)
    assert wit is not None
    assert (wit.c, wit.mu, wit.mu_prime) == (3, (0, 1), (3, 2))


def test_decompose_simple_coroot_is_none(datum):
    g2 = datum("G2")
    inp = schubert_input(g2, (), (2, 1, 2))
    elements = schubert._canonical_sorted(
        g2, schubert.cover_coroots(inp).inv_ordered
    )
    assert sa.decompose((0, 1), elements) is None


def test_decompose_d5_theta(datum):
    d5 = datum("D5")
    w0 = weyl.longest_element(d5)
    rep = sa.min_coset_rep(w0, sa.parabolic(d5, [1, 3, 4, 5]))
    inp = sa.SchubertInput(
        datum=d5, parabolic=sa.parabolic(d5, [1, 3, 4, 5]), w=rep
    )
    elements = schubert._canonical_sorted(
        d5, schubert.cover_coroots(inp).inv_ordered
    )
    theta = d5.highest_coroot
    wit = sa.decompose(theta, elements)
    assert wit is not None and wit.c == 1
    assert tuple(a + b for a, b in zip(wit.mu, wit.mu_prime)) == theta


@pytest.mark.parametrize("type_str", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_decompose_matches_pair_scan_everywhere(type_str, datum):
    """On every Borel element, for both tie orders, the decomposition map
    that ``cover_coroots`` carries holds first (last) the witness a plain pair scan finds first from the
    front (back), ``decompose`` returns it, and the cover set is exactly
    the inversion coroots the scan cannot decompose.  ``decompose`` builds
    the whole map per call, so it is called once per element and order."""

    def triple(wit):
        return (wit.c, wit.mu, wit.mu_prime)

    d = datum(type_str)
    borel = sa.parabolic(d, [])
    for w in sa.enumerate_coset_reps(d, borel, 99):
        sets = sa.cover_coroots(sa.SchubertInput(datum=d, parabolic=borel, w=w))
        elements = schubert._canonical_sorted(d, sets.inv_ordered)
        found = sets.decomposable
        for reverse_ties in (False, True):
            indecomposable = []
            for eta in elements:
                expected = decompose_reference(eta, elements, reverse_ties)
                if expected is None:
                    assert eta not in found, (type_str, w, eta)
                    indecomposable.append(eta)
                else:
                    got = triple(found[eta][-1 if reverse_ties else 0])
                    assert got == expected, (type_str, w, eta, reverse_ties)
            assert sets.cover_B == tuple(indecomposable), (type_str, w)
            if elements:
                top = elements[-1]
                wit = sa.decompose(top, elements, reverse_ties=reverse_ties)
                expected = decompose_reference(top, elements, reverse_ties)
                assert (wit and triple(wit)) == expected, (type_str, w)


def test_decompose_requires_membership(datum):
    g2 = datum("G2")
    with pytest.raises(NotInInversionSetError):
        sa.decompose((1, 0), [(0, 1), (1, 1)])


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
    sets_b = sa.cover_coroots(schubert_input(a4, (), (3, 4, 1, 2, 3)))
    assert set(sets_b.cover_B) == set(sets_b.inv_ordered)


def test_cover_single_reflection(datum):
    a4 = datum("A4")
    sets = sa.cover_coroots(schubert_input(a4, (4,), (3,)))
    assert sets.cover_P == ((0, 0, 1, 0),)


def test_cover_matches_oracle_b2(datum):
    inp = schubert_input(datum("B2"), (), (1, 2, 1))
    sets = sa.cover_coroots(inp)
    assert sets.cover_P
    assert frozenset(sets.cover_P) == oracle.cover_coroots_direct(inp)


# --- picard matrix -----------------------------------------------------------------


def test_picard_matrix_a4_borel_rank(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (3, 4, 1, 2, 3))
    sets = sa.cover_coroots(inp)
    pic = sa.picard_matrix(inp, sets)
    assert len(pic.entries) == 5 and len(pic.entries[0]) == 4
    from schubert_atlas import exactlinalg

    assert exactlinalg.rank(pic.entries) == 4


def test_picard_matrix_a4_parabolic_reorders_to_display(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (4,), (3, 4, 1, 2, 3))
    sets = sa.cover_coroots(inp)
    pic = sa.picard_matrix(inp, sets)
    rows = [(0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0)]
    cols = [3, 2, 1]
    assert reorder_matrix(pic.entries, pic.row_labels, pic.col_labels, rows, cols) == (
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    )


def test_picard_matrix_g2_grassmannian_single_row(datum):
    g2 = datum("G2")
    inp = schubert_input(g2, (2,), (2, 1))
    sets = sa.cover_coroots(inp)
    pic = sa.picard_matrix(inp, sets)
    assert pic.entries == ((3,),)
    assert pic.col_labels == (1,)


# --- factoriality -----------------------------------------------------------------


def test_classify_factorial_g2(datum):
    g2 = datum("G2")
    inp = schubert_input(g2, (), (2, 1, 2))
    sets = sa.cover_coroots(inp)
    q_fact, factorial, evidence = schubert.classify_factorial(inp, sets)
    assert q_fact and not factorial
    assert abs(evidence["determinant"]) == 3


def test_classify_factorial_a4(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (4,), (3, 4, 1, 2, 3))
    q_fact, factorial, _ = schubert.classify_factorial(inp, sa.cover_coroots(inp))
    assert q_fact and factorial
    inp_b = schubert_input(a4, (), (3, 4, 1, 2, 3))
    q_fact, factorial, _ = schubert.classify_factorial(
        inp_b, sa.cover_coroots(inp_b)
    )
    assert not q_fact and not factorial


# --- adapted bases -----------------------------------------------------------------


def test_build_B_wB_a4_example(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (3, 4, 1, 2, 3))
    basis = sa.build_B_wB(inp, sa.cover_coroots(inp))
    assert set(basis.coroots) == {
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
    assert default.coroot_for(3) == (1, 1, 1, 0)
    assert reverse.coroot_for(3) == (0, 1, 1, 1)
    simple = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)}
    assert simple < set(default.coroots) and simple < set(reverse.coroots)


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
    adapted = sa.p_adapt(inp, schubert.restrict_basis(borel, sets.support_P), sets)
    assert dict(adapted.entries) == {
        3: (0, 0, 1, 1),
        2: (0, 1, 1, 1),
        1: (1, 1, 1, 0),
    }
    assert adapted.keys == (3, 2, 1)


def test_p_adapt_borel_is_identity(datum):
    a4 = datum("A4")
    inp = schubert_input(a4, (), (3, 4, 1, 2, 3))
    sets = sa.cover_coroots(inp)
    borel = sa.build_B_wB(inp, sets)
    assert sa.p_adapt(inp, borel, sets) == borel


def test_p_adapt_d5_maximal_parabolic(datum):
    d5 = datum("D5")
    inside = (1, 2, 4, 5)
    inp = schubert_input(d5, inside, (2, 3, 1, 2, 3, 4, 5, 3))
    sets = sa.cover_coroots(inp)
    inp_b = schubert_input(d5, (), (2, 3, 1, 2, 3, 4, 5, 3))
    borel = sa.build_B_wB(inp_b, sa.cover_coroots(inp_b))
    adapted = sa.p_adapt(inp, schubert.restrict_basis(borel, sets.support_P), sets)
    assert adapted.keys == (3,)
    from schubert_atlas import oracle

    assert adapted.coroots[0] in oracle.cover_coroots_direct(inp)


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
    from schubert_atlas import oracle

    assert frozenset(report.cover_coroots) == oracle.cover_coroots_direct(inp)
    w = sa.element_from_word(d4, (1, 3, 4, 2, 1, 3, 4, 2))
    refl = sa.reflection_element(d4, theta)
    assert weyl.multiply(w, refl).length == 1
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
    from schubert_atlas import exactlinalg

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
            assert exactlinalg.rank(rep.picard_matrix.entries) == rep.b2


def test_anticanonical_weil_recomputation(datum):
    report = sa.classify(schubert_input(datum("A4"), (4,), (3, 4, 1, 2, 3)))
    for eta, entry in zip(report.cover_coroots, report.anticanonical_weil):
        assert entry == sum(eta) + 1


# --- serialization -------------------------------------------------------------------


def test_json_round_trip_byte_identical(datum):
    report = sa.classify(schubert_input(datum("G2"), (), (2, 1, 2)))
    text = sa.report_to_json(report, datum("G2"))
    assert schubert.canonical_json(json.loads(text)) == text
    doc = json.loads(text)
    assert doc["hat_n"] == {"1": "2/3", "2": "2"}
    assert doc["c1"] == ["2/3", "2"]
    assert doc["gorenstein"] == "no"


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
