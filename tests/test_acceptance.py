"""Acceptance suite: one test per criterion, with stated time budgets.

Two tests pin values that an earlier version of this suite stated wrongly:
the D4 golden suite (its highest coroot decomposes and drops the length by
7, so it is no cover coroot and the variety is Gorenstein) and the B3 leg
of the conjecture scans (the deletion conjecture has a genuine
counterexample there, so the scan exits 1).  Each of those tests pins the
computed values and gives the disproof of the old ones in its docstring.
"""

import csv
import io
import itertools
import json
import time
from fractions import Fraction

import schubert_atlas as sa
from schubert_atlas import cli, exactlinalg, oracle, schubert, weyl

from helpers import (
    coset_length_counts,
    hat_n_map,
    reorder_matrix,
    schubert_input,
    valid_parabolics,
)

Y = schubert.Status.YES
N = schubert.Status.NO


def _classify(datum_fn, type_str, inside, word):
    return sa.classify(schubert_input(datum_fn(type_str), inside, word))


# -------------------------------------------------------------------- 1 ---


def test_g2_golden_suite(datum):
    start = time.perf_counter()
    g2 = datum("G2")

    # reflection orderings of the two reduced words of the longest element
    seq = sa.inversion_sequence(g2, (1, 2, 1, 2, 1, 2))
    assert seq == ((0, 1), (1, 1), (3, 2), (2, 1), (3, 1), (1, 0))
    assert sa.inversion_sequence(g2, (2, 1, 2, 1, 2, 1)) == tuple(reversed(seq))

    # cover sets of w1 = s2s1s2s1 and w2 = s2s1s2s1s2
    w1_b = sa.cover_coroots(schubert_input(g2, (), (2, 1, 2, 1)))
    assert set(w1_b.cover_B) == {(1, 0), (3, 2)}
    w2_b = sa.cover_coroots(schubert_input(g2, (), (2, 1, 2, 1, 2)))
    assert set(w2_b.cover_B) == {(0, 1), (3, 1)}
    w1_p = sa.cover_coroots(schubert_input(g2, (2,), (2, 1, 2, 1)))
    assert set(w1_p.cover_P) == {(3, 2)}
    w2_p = sa.cover_coroots(schubert_input(g2, (1,), (2, 1, 2, 1, 2)))
    assert set(w2_p.cover_P) == {(3, 1)}

    # surfaces and 3-folds in G/B: matrices in the displayed orderings
    def matrices(report, rows, cols):
        m = reorder_matrix(
            report.m_matrix.entries,
            report.m_matrix.row_labels,
            report.m_matrix.col_labels,
            rows,
            cols,
        )
        n = reorder_matrix(
            report.n_matrix.entries,
            report.n_matrix.row_labels,
            report.n_matrix.col_labels,
            cols,
            rows,
        )
        return m, n

    r = _classify(datum, "G2", (), (1, 2))
    m, n = matrices(r, [(0, 1), (1, 1)], [2, 1])
    assert m == ((1, 0), (1, 1))
    assert n == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1)))
    assert r.fano is Y and r.c1 == (Fraction(1), Fraction(2))

    r = _classify(datum, "G2", (), (2, 1))
    m, n = matrices(r, [(1, 0), (3, 1)], [1, 2])
    assert m == ((1, 0), (3, 1))
    assert n == ((Fraction(1), Fraction(0)), (Fraction(-3), Fraction(1)))
    assert r.factorial and r.gorenstein is Y and r.fano is N
    assert r.c1 == (Fraction(2), Fraction(-1))

    r = _classify(datum, "G2", (), (1, 2, 1))
    m, n = matrices(r, [(1, 0), (2, 1)], [1, 2])
    assert m == ((1, 0), (2, 1))
    assert r.factorial and r.c1 == (Fraction(2), Fraction(0)) and r.fano is N

    r = _classify(datum, "G2", (), (2, 1, 2))
    m, n = matrices(r, [(0, 1), (3, 2)], [2, 1])
    assert m == ((1, 0), (2, 3))
    assert n == (
        (Fraction(1), Fraction(0)),
        (Fraction(-2, 3), Fraction(1, 3)),
    )
    assert r.q_factorial and not r.factorial
    assert r.c1 == (Fraction(2, 3), Fraction(2))
    assert r.gorenstein is N and r.q_gorenstein_fano is Y

    # Grassmannian surfaces
    r = _classify(datum, "G2", (2,), (2, 1))
    assert r.m_matrix.entries == ((3,),)
    assert r.hat_n == (Fraction(5, 3),)
    assert r.c1 == (Fraction(5, 3), Fraction(0))
    assert r.q_gorenstein_fano is Y and r.gorenstein is N

    r = _classify(datum, "G2", (1,), (1, 2))
    assert r.fano is Y and r.c1 == (Fraction(0), Fraction(3))

    # survey: the eight non-factorial varieties across B, P_1, P_2
    def non_factorial(inside):
        out = set()
        p = sa.parabolic(g2, inside)
        for w in sa.enumerate_coset_reps(g2, p, 6):
            rep = sa.classify(sa.SchubertInput(datum=g2, parabolic=p, w=w))
            if not rep.factorial:
                out.add(rep.word)
        return out

    assert non_factorial(()) == {
        (2, 1, 2),
        (1, 2, 1, 2),
        (2, 1, 2, 1, 2),
        (2, 1, 2, 1),
    }
    assert non_factorial((2,)) == {(2, 1), (1, 2, 1), (2, 1, 2, 1)}
    assert non_factorial((1,)) == {(2, 1, 2)}

    assert time.perf_counter() - start < 1.0


# -------------------------------------------------------------------- 2 ---


def test_a4_golden_suite(datum):
    r = _classify(datum, "A4", (), (3, 4, 1, 2, 3))
    assert set(r.cover_coroots) == {
        (0, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 0),
        (0, 0, 1, 1),
        (0, 1, 1, 1),
    }
    assert r.b_top == 5 and r.b2 == 4
    assert not r.q_factorial and not r.factorial
    assert r.gorenstein is Y and r.fano is Y
    assert r.c1 == (Fraction(1), Fraction(1), Fraction(2), Fraction(1))
    assert hat_n_map(r) == {3: 2, 2: 1, 1: 1, 4: 1}

    r = _classify(datum, "A4", (4,), (3, 4, 1, 2, 3))
    assert set(r.cover_coroots) == {
        (1, 1, 1, 0),
        (0, 0, 1, 1),
        (0, 1, 1, 1),
    }
    assert r.factorial
    assert r.gorenstein is Y and r.fano is N and r.nef_anticanonical
    assert r.c1 == (Fraction(0), Fraction(1), Fraction(3), Fraction(0))
    assert hat_n_map(r) == {3: 3, 2: 1, 1: 0}

    # permutation 53142: Gorenstein, and the dual-basis sum is invariant
    inp = schubert_input(datum("A4"), (), (2, 1, 3, 4, 3, 2, 1))
    rep = sa.classify(inp)
    rev = sa.classify(inp, reverse_ties=True)
    assert rep.gorenstein is Y and rev.gorenstein is Y
    assert set(rep.basis.coroots) != set(rev.basis.coroots)

    def dual_sum(report):
        total = {}
        for col in range(len(report.hat_n_keys)):
            for row, k in enumerate(report.hat_n_keys):
                total[k] = total.get(k, 0) + report.n_matrix.entries[row][col]
        return total

    expected = {1: 1, 2: 1, 3: -1, 4: 1}
    assert dual_sum(rep) == expected and dual_sum(rev) == expected
    assert rep.c1 == rev.c1


# -------------------------------------------------------------------- 3 ---


def test_d4_golden_suite(datum):
    """Golden expectations for w = s1 s3 s4 s2 s1 s3 s4 s2 in D4.

    An earlier version of this test stated that all eight inversion coroots,
    the highest coroot theta = (1,2,1,1) included, are cover coroots, and
    that the variety is not Gorenstein with the witness at theta.  Exact
    computation refutes both: theta = (1,1,1,0) + (0,1,0,1) with both
    summands inversions, and w * s_theta has length 1, so theta drops the
    length by 7 and is no cover.  The other seven coroots drop it by 1.  Each
    of them has eta_2 = 1, so c1 = (1,2,1,1) pairs to ht(eta) + 1 on every
    cover coroot: the Weil divisor sum (ht(eta)+1) D_eta is Cartier, and the
    variety is Gorenstein and Fano.
    """
    inp = schubert_input(datum("D4"), (), (1, 3, 4, 2, 1, 3, 4, 2))
    r = sa.classify(inp)
    theta = (1, 2, 1, 1)
    covers = {
        (0, 1, 0, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (0, 1, 1, 1),
    }
    assert set(r.inversion_coroots) == covers | {theta}
    assert dict(r.basis.entries) == {
        2: (0, 1, 0, 0),
        1: (1, 1, 0, 0),
        3: (0, 1, 1, 0),
        4: (0, 1, 0, 1),
    }

    # theta = (1,1,1,0) + (0,1,0,1) drops the length by 7
    s_theta = weyl.reflection_element(inp.datum, theta)
    assert weyl.multiply(inp.w, s_theta).length == 1
    assert theta not in r.cover_coroots
    assert set(r.cover_coroots) == covers == oracle.cover_coroots_direct(inp)

    assert r.gorenstein is Y and r.gorenstein_failures == ()
    assert r.fano is Y
    assert r.c1 == (1, 2, 1, 1)
    for eta in r.cover_coroots:
        assert sum(c * e for c, e in zip(r.c1, eta)) == sum(eta) + 1, eta


# -------------------------------------------------------------------- 4 ---


def test_d5_golden_suite(datum):
    r = _classify(datum, "D5", (), (2, 3, 1, 2, 3, 4, 5, 3))
    assert set(r.inversion_coroots) == {
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 1, 2, 1, 1),
        (1, 1, 2, 1, 1),
        (0, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
    }
    assert set(r.cover_coroots) == {
        (0, 0, 1, 0, 0),
        (0, 0, 1, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
    }
    cover = set(r.cover_coroots)
    for k, coroot in r.basis.entries:
        assert coroot in cover
        assert coroot[k - 1] == 1
    assert dict(r.basis.entries) == {
        3: (0, 0, 1, 0, 0),
        5: (0, 0, 1, 0, 1),
        4: (0, 0, 1, 1, 0),
        2: (0, 1, 1, 0, 0),
        1: (1, 1, 1, 0, 0),
    }


# -------------------------------------------------------------------- 5 ---

ORACLE_TYPES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
)


def test_oracle_equivalence_suite(datum):
    start = time.perf_counter()
    for type_str in ORACLE_TYPES:
        d = datum(type_str)
        borel = sa.parabolic(d, ())
        for w in sa.enumerate_coset_reps(d, borel, 999):
            drops = oracle._length_drop_pairs(d, w)
            drop_one = frozenset(eta for eta, _, dr in drops if dr == 1)
            inp_b = sa.SchubertInput(datum=d, parabolic=borel, w=w)
            sets_b = sa.cover_coroots(inp_b)
            # indecomposable <=> length drops by exactly one
            assert frozenset(sets_b.cover_B) == drop_one, (type_str, w)
            for inside in valid_parabolics(d, w):
                inp = sa.SchubertInput(
                    datum=d, parabolic=sa.parabolic(d, inside), w=w
                )
                sets = sa.cover_coroots(inp)
                assert frozenset(sets.cover_P) == oracle.cover_coroots_direct(
                    inp
                ), (type_str, w, inside)
                pic = sa.picard_matrix(inp, sets)
                assert exactlinalg.rank(pic.entries) == len(sets.support_P)
    assert time.perf_counter() - start < 300.0


# -------------------------------------------------------------------- 6 ---

SL_TYPES = ("A1", "A2", "A3", "A4", "D4", "D5")
SL_LENGTH_CAP = 12


def _check_simply_laced_lemma(d, inv_elements):
    members = set(inv_elements)
    for a in range(len(inv_elements)):
        mu = inv_elements[a]
        for b in range(a + 1, len(inv_elements)):
            mu2 = inv_elements[b]
            s = tuple(x + y for x, y in zip(mu, mu2))
            h = sum(s)
            for eta in members:
                he = sum(eta)
                if h % he:
                    continue
                c = h // he
                if tuple(c * x for x in eta) != s:
                    continue
                assert c == 1, (eta, mu, mu2)
                root = d.pair_for_coroot[eta].root
                assert sa.pair_root_coroot(d, root, mu) == 1
                assert sa.pair_root_coroot(d, root, mu2) == 1


def test_simply_laced_structure_suite(datum):
    for type_str in SL_TYPES:
        d = datum(type_str)
        borel = sa.parabolic(d, ())
        for w in sa.enumerate_coset_reps(d, borel, SL_LENGTH_CAP):
            inp_b = sa.SchubertInput(datum=d, parabolic=borel, w=w)
            sets_b = sa.cover_coroots(inp_b)
            _check_simply_laced_lemma(
                d, schubert._canonical_sorted(d, sets_b.inv_ordered)
            )
            sa.build_B_wB(inp_b, sets_b)  # triangularity asserted internally
            sa.build_B_wB(inp_b, sets_b, reverse_ties=True)
            for inside in valid_parabolics(d, w):
                inp = sa.SchubertInput(
                    datum=d, parabolic=sa.parabolic(d, inside), w=w
                )
                report = sa.classify(inp)
                # saturation: all invariant factors are 1
                factors = report.factorial_evidence["invariant_factors"]
                assert set(factors) <= {1}, (type_str, w, inside)
                assert report.q_factorial == report.factorial
                if w.is_identity:
                    continue
                # P = B shortcut: hat_n = 1 + N*1 agrees with N(h+1)
                if not inside:
                    n = report.n_matrix.entries
                    shortcut = tuple(1 + sum(row) for row in n)
                    assert shortcut == report.hat_n
                if report.gorenstein is Y:
                    rev = sa.classify(inp, reverse_ties=True)
                    assert rev.gorenstein is Y
                    assert rev.c1 == report.c1, (type_str, w, inside)


# -------------------------------------------------------------------- 7 ---


def test_conjecture_scans(datum, capsys):
    """Conjectures 1-3 on A3, A4, D4 and conjecture 2 on B3, with no
    truncation.  A3, A4 and D4 exit 0 with zero counterexamples.

    An earlier version of this test demanded that conjecture 2 also holds on
    B3 with exit 0.  It does not: s3 s2 s1 s3 s2 s3 has exactly two reduced
    words, 323123 and 321323; the reflection for the coroot (1,1,1) drops
    its length by 3; and deleting a letter that sits between equal
    neighbours never gives w * s_eta in either word.  The scanner must report
    that element as the one counterexample and exit 1.  The test confirms
    the disproof by brute force over all 3^6 words of length 6, without the
    library's reduced-word enumerator.
    """
    start = time.perf_counter()
    outcomes = {}
    for type_str, which in (
        ("A3", "all"),
        ("A4", "all"),
        ("D4", "all"),
        ("B3", "2"),
    ):
        code = cli.main(
            [
                "conjectures",
                "--type",
                type_str,
                "--which",
                which,
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        for rep in doc["reports"]:
            assert rep["truncated"] is False, (type_str, rep["conjecture"])
        outcomes[type_str] = (code, doc)
    assert time.perf_counter() - start < 600.0

    for type_str in ("A3", "A4", "D4"):
        code, doc = outcomes[type_str]
        assert code == 0, type_str
        for rep in doc["reports"]:
            assert rep["counterexamples"] == []
            assert rep["verified_count"] == rep["elements_scanned"]

    code, doc = outcomes["B3"]
    assert code == 1
    (rep,) = doc["reports"]
    assert rep["verified_count"] == rep["elements_scanned"] - 1
    assert rep["counterexamples"] == [
        {"word": [3, 2, 1, 3, 2, 3], "witness": [1, 1, 1]}
    ]

    b3 = datum("B3")
    w = sa.element_from_word(b3, (3, 2, 1, 3, 2, 3))
    w_s_eta = weyl.multiply(w, weyl.reflection_element(b3, (1, 1, 1)))
    assert w.length - w_s_eta.length == 3
    words = [
        word
        for word in itertools.product((1, 2, 3), repeat=6)
        if sa.element_from_word(b3, word) == w
    ]
    assert sorted(words) == [(3, 2, 1, 3, 2, 3), (3, 2, 3, 1, 2, 3)]
    for word in words:
        for l in range(1, 5):
            if word[l - 1] == word[l + 1]:
                deleted = word[:l] + word[l + 1 :]
                assert sa.element_from_word(b3, deleted) != w_s_eta, (word, l)


# -------------------------------------------------------------------- 8 ---


def test_performance_budgets(datum, capsys, tmp_path):
    # A4: classify-survey over all 16 parabolic subsets in under 10 seconds
    a4 = datum("A4")
    start = time.perf_counter()
    total_rows = 0
    for r in range(5):
        for inside in itertools.combinations((1, 2, 3, 4), r):
            out = tmp_path / "survey.csv"
            code = cli.main(
                [
                    "survey",
                    "--type",
                    "A4",
                    "--parabolic",
                    " ".join(map(str, inside)),
                    "--format",
                    "csv",
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            assert len(rows) == sum(coset_length_counts(a4, inside))
            total_rows += len(rows)
    elapsed = time.perf_counter() - start
    assert total_rows == 541
    assert elapsed < 10.0, f"A4 16-parabolic survey took {elapsed:.2f}s"

    # G2: full survey in under 1 second
    start = time.perf_counter()
    code = cli.main(
        ["survey", "--type", "G2", "--format", "csv", "--output",
         str(tmp_path / "g2.csv")]
    )
    assert code == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"G2 survey took {elapsed:.2f}s"
