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
import math
import time
from fractions import Fraction

import pytest

import schubert_atlas as sa
from schubert_atlas import cli, oracle, schubert, weyl

from helpers import (
    bruhat_leq,
    column_descents,
    coset_length_counts,
    cover_coroots_direct,
    fraction_rank,
    hat_n_map,
    identity_matrix,
    multiply,
    pair_root_coroot,
    reflection_element,
    reorder_matrix,
    require_positive_coroot,
    schubert_input,
    times_reflection,
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
    assert {c for _, c in rep.basis.entries} != {c for _, c in rev.basis.entries}

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
    s_theta = reflection_element(inp.datum, theta)
    assert multiply(inp.w, s_theta).length == 1
    assert theta not in r.cover_coroots
    assert set(r.cover_coroots) == covers == cover_coroots_direct(inp)

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
                assert frozenset(sets.cover_P) == cover_coroots_direct(
                    inp
                ), (type_str, w, inside)
                pic = [[eta[k - 1] for k in sets.support_P] for eta in sets.cover_P]
                assert fraction_rank(pic) == len(sets.support_P)
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
                root = require_positive_coroot(d, eta).root
                assert pair_root_coroot(d, root, mu) == 1
                assert pair_root_coroot(d, root, mu2) == 1


def test_simply_laced_structure_suite(datum):
    for type_str in SL_TYPES:
        d = datum(type_str)
        borel = sa.parabolic(d, ())
        for w in sa.enumerate_coset_reps(d, borel, SL_LENGTH_CAP):
            inp_b = sa.SchubertInput(datum=d, parabolic=borel, w=w)
            sets_b = sa.cover_coroots(inp_b)
            _check_simply_laced_lemma(
                d,
                sorted(
                    weyl.canonical_record(w).inversions, key=d.coroot_index.__getitem__
                ),
            )
            sa.build_B_wB(inp_b, sets_b)  # triangularity asserted internally
            sa.build_B_wB(inp_b, sets_b, reverse_ties=True)
            for inside in valid_parabolics(d, w):
                inp = sa.SchubertInput(
                    datum=d, parabolic=sa.parabolic(d, inside), w=w
                )
                report = sa.classify(inp)
                # saturation: all invariant factors are 1
                evidence = schubert.report_to_dict(report)["factorial_evidence"]
                factors = evidence["invariant_factors"]
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
    w_s_eta = multiply(w, reflection_element(b3, (1, 1, 1)))
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


# -------------------------------------------------------------------- 9 ---

BETTI_CASES = (
    ("A3", ()),
    ("A4", ()),
    ("D4", ()),
    ("B3", ()),
    ("G2", ()),
    ("A4", (2,)),
    ("D4", (1, 3, 4)),
    ("C3", (3,)),
)


def _simple_reflection_matrices(cartan):
    """s_i on the root lattice in the simple-root basis: column j is
    s_i(alpha_j) = alpha_j - <alpha_j, alpha_i^vee> alpha_i."""
    n = len(cartan)
    return [
        tuple(
            tuple(int(r == c) - (cartan[i][c] if r == i else 0) for c in range(n))
            for r in range(n)
        )
        for i in range(n)
    ]


def _word_matrix(reflections, word):
    n = len(reflections)
    m = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for letter in word:
        s = reflections[letter - 1]
        m = tuple(
            tuple(sum(row[k] * s[k][c] for k in range(n)) for c in range(n))
            for row in m
        )
    return m


def _positive_roots(reflections):
    n = len(reflections)
    found = {tuple(int(r == i) for r in range(n)) for i in range(n)}
    frontier = list(found)
    while frontier:
        root = frontier.pop()
        for s in reflections:
            image = tuple(sum(s[r][c] * root[c] for c in range(n)) for r in range(n))
            if all(x >= 0 for x in image) and image not in found:
                found.add(image)
                frontier.append(image)
    return found


def test_betti_numbers_match_bruhat_order(datum):
    """The paper's b_2 = b_{2l(w)-2} criterion rests on b_top counting the
    coatoms of w in W^P.  By the subword property those are the words of
    length l(w) - 1 left by deleting one letter of a reduced word of w that
    send no alpha_j (j in I_P) negative; b2 counts the simple reflections
    s_k <= w in W^P.  Matrices and lengths come from the Cartan matrix here,
    not from the library's cover or classification code."""
    checked = 0
    for type_str, inside in BETTI_CASES:
        d = datum(type_str)
        reflections = _simple_reflection_matrices(d.cartan)
        positive = _positive_roots(reflections)

        def in_w_p(m):
            return all(any(row[j - 1] > 0 for row in m) for j in inside)

        def length(m):
            n = len(m)
            return sum(
                1
                for root in positive
                if any(sum(m[r][c] * root[c] for c in range(n)) < 0 for r in range(n))
            )

        p = sa.parabolic(d, inside)
        for w in sa.enumerate_coset_reps(d, p, 999):
            word = sa.canonical_reduced_word(w)
            assert length(_word_matrix(reflections, word)) == len(word) == w.length
            coatoms = set()
            for pos in range(len(word)):
                m = _word_matrix(reflections, word[:pos] + word[pos + 1 :])
                if length(m) == len(word) - 1 and in_w_p(m):
                    coatoms.add(m)
            letters = {k for k in word if in_w_p(reflections[k - 1])}
            report = sa.classify(sa.SchubertInput(datum=d, parabolic=p, w=w))
            assert report.b_top == len(coatoms), (type_str, inside, word)
            assert report.b2 == len(letters), (type_str, inside, word)
            checked += 1
    assert checked == 504


# ---------------------------------------------------- literature oracles ---


def _permutation(word, size):
    """One-line notation of s_{i1} o ... o s_{ir} on {1, ..., size}, where
    s_i swaps i and i + 1 and the last letter acts first."""
    images = list(range(1, size + 1))
    for i in reversed(word):
        images = [i + 1 if x == i else i if x == i + 1 else x for x in images]
    return tuple(images)


def _forest_like(p):
    """p avoids 1324 and the barred pattern 21 3-bar 54: every occurrence of
    2143 at positions a < b < c < d has some b < e < c with
    p[a] < p[e] < p[d]."""
    for a, b, c, d in itertools.combinations(range(len(p)), 4):
        if p[a] < p[c] < p[b] < p[d]:
            return False
        if p[b] < p[a] < p[d] < p[c] and not any(
            p[a] < p[e] < p[d] for e in range(b + 1, c)
        ):
            return False
    return True


def test_factorial_in_type_a_is_forest_like(datum):
    """Bousquet-Melou & Butler (Forest-like permutations, Ann. Comb. 11,
    2007): in type A_n, X_w is factorial iff the one-line notation of
    w o w0 avoids 1324 and 21 3-bar 54.  The permutation is built here from
    the word, not by the library.  The factorial counts 22, 89 and 379 are
    the forest-like permutations of S_4, S_5 and S_6."""
    counts = {}
    for type_str in ("A3", "A4", "A5"):
        d = datum(type_str)
        borel = sa.parabolic(d, ())
        perms = set()
        for w in sa.enumerate_coset_reps(d, borel, 99):
            report = sa.classify(sa.SchubertInput(datum=d, parabolic=borel, w=w))
            # (w o w0)(x) = w(n + 2 - x): the one-line notation of w reversed
            perm = _permutation(report.word, d.rank + 1)[::-1]
            assert report.factorial == _forest_like(perm), (type_str, report.word)
            perms.add(perm)
            counts[type_str] = counts.get(type_str, 0) + report.factorial
        assert len(perms) == math.factorial(d.rank + 1)
    assert counts == {"A3": 22, "A4": 89, "A5": 379}


def _lower_interval(cartan, m, memo):
    """The Bruhat interval [e, w] of the element with matrix m, as
    {matrix: length}, by lifting: for a right descent s of w,
    [e, w] = [e, ws] u [e, ws] s."""
    if m not in memo:
        descents = column_descents(m)
        if not descents:
            memo[m] = {m: 0}
        else:
            s = descents[0]
            lower = _lower_interval(cartan, times_reflection(cartan, m, s), memo)
            interval = dict(lower)
            for x, length in lower.items():
                step = -1 if s in column_descents(x) else 1
                interval.setdefault(times_reflection(cartan, x, s), length + step)
            memo[m] = interval
    return memo[m]


def test_smooth_schubert_varieties_are_factorial_and_gorenstein(datum):
    """Carrell-Peterson (Billey & Lakshmibai, Singular Loci of Schubert
    Varieties, 2000): in simply-laced types X_w is smooth iff the rank sizes
    of [e, w] are palindromic, and a smooth X_w is factorial and Gorenstein.
    The interval is built here by lifting, from matrices of the test's own;
    on A3 it is checked against the Bruhat order of ``helpers.bruhat_leq``.
    ADE only: in B3, 5 of the 34 elements with palindromic rank sizes are
    not factorial (rationally smooth, not smooth)."""
    smooth = {}
    for type_str in ("A3", "A4", "D4"):
        d = datum(type_str)
        borel = sa.parabolic(d, ())
        elements = list(sa.enumerate_coset_reps(d, borel, 99))
        memo = {}
        smooth[type_str] = 0
        for w in elements:
            report = sa.classify(sa.SchubertInput(datum=d, parabolic=borel, w=w))
            m = identity_matrix(d.rank)
            for i in report.word:
                m = times_reflection(d.cartan, m, i)
            assert m == w.matrix
            interval = _lower_interval(d.cartan, m, memo)
            if type_str == "A3":
                assert {u.matrix for u in elements if bruhat_leq(u, w)} == set(interval)
            sizes = [0] * (len(report.word) + 1)
            for length in interval.values():
                sizes[length] += 1
            if sizes == sizes[::-1]:
                smooth[type_str] += 1
                assert report.factorial and report.gorenstein is Y, (type_str, report.word)
    assert smooth == {"A3": 22, "A4": 88, "D4": 108}


def _grassmannian_permutations(size, k):
    """The permutations of {1, ..., size} whose only descent is at k, as
    one-line notations: w(1) < ... < w(k) and w(k + 1) < ... < w(size)."""
    for first in itertools.combinations(range(1, size + 1), k):
        rest = [x for x in range(1, size + 1) if x not in first]
        yield first + tuple(rest)


def _reduced_word(perm):
    """A reduced word of perm by bubble sort, each swap removing one
    inversion: perm s_{a1} ... s_{am} = e for the positions a swapped, so
    perm = s_{am} ... s_{a1}."""
    images, swaps = list(perm), []
    for _ in images:
        for a in range(1, len(images)):
            if images[a - 1] > images[a]:
                images[a - 1], images[a] = images[a], images[a - 1]
                swaps.append(a)
    return tuple(reversed(swaps))


def _corners_on_one_antidiagonal(lam):
    """The removable corners (i, lam_i) of the partition lam, rows from 1,
    all have the same i + lam_i."""
    parts = list(lam) + [0]
    rows = range(1, len(lam) + 1)
    return len({i + parts[i - 1] for i in rows if parts[i - 1] > parts[i]}) <= 1


# (type, k): 6 + 10 + 15 + 20 + 35 + 56 + 70 = 212 Grassmannian permutations
WOO_YONG_GRASSMANNIANS = (
    ("A3", 2), ("A4", 2), ("A5", 2), ("A5", 3), ("A6", 3), ("A7", 3), ("A7", 4),
)


def test_gorenstein_on_grassmannians_woo_yong(datum):
    """Woo & Yong (When is a Schubert variety Gorenstein?, Adv. Math. 207,
    2006): with I_P = S minus {k}, X_lambda for the Grassmannian permutation
    w is Gorenstein iff all removable corners of lambda lie on one
    antidiagonal, where lambda_i = w(k + 1 - i) - (k + 1 - i).  The
    permutations, their words and lambda are built here, not by the
    library."""
    checked = gorenstein = 0
    for type_str, k in WOO_YONG_GRASSMANNIANS:
        d = datum(type_str)
        p = sa.parabolic(d, [j for j in range(1, d.rank + 1) if j != k])
        for perm in _grassmannian_permutations(d.rank + 1, k):
            word = _reduced_word(perm)
            assert _permutation(word, d.rank + 1) == perm
            lam = tuple(perm[k - i] - (k + 1 - i) for i in range(1, k + 1))
            w = sa.element_from_word(d, word)
            assert w.length == len(word) == sum(lam)
            report = sa.classify(sa.SchubertInput(datum=d, parabolic=p, w=w))
            expected = _corners_on_one_antidiagonal(lam)
            assert report.gorenstein is (Y if expected else N), (type_str, k, lam)
            checked += 1
            gorenstein += expected
    assert checked == 212
    assert 0 < gorenstein < checked


# (type, I_P, length cap): 6,722 simply-laced, 346 Q-factorial and 13 point
# elements, and 956 undetermined ones that are skipped.  The E6 legs are
# capped to keep the test to a few seconds, most of it in ``classify``; all
# of E6/P{6} (25,920 elements) would take about 15 s.
CHEVALLEY_CASES = (
    ("A4", (), None), ("D4", (), None), ("D5", (), None), ("B3", (), None),
    ("C3", (), None), ("G2", (), None), ("F4", (), None), ("E6", (), 9),
    ("A4", (2,), None), ("D5", (1,), None), ("E6", (6,), 6), ("C3", (3,), None),
    ("B3", (1,), None),
)


def _positive_pairs(cartan):
    """[(coroot, root)] over the positive roots, by closing the simple pairs
    under s_j: beta - <beta, alpha_j^vee> alpha_j on roots and
    x - <alpha_j, x> alpha_j^vee on coroots, with C[i][j] = <alpha_j,
    alpha_i^vee>."""
    n = len(cartan)
    simple = [tuple(int(r == i) for r in range(n)) for i in range(n)]
    pairs = dict(zip(simple, simple))
    frontier = list(pairs.items())
    while frontier:
        coroot, root = frontier.pop()
        for j in range(n):
            a = sum(cartan[j][c] * root[c] for c in range(n))
            b = sum(coroot[c] * cartan[c][j] for c in range(n))
            image = tuple(x - b * (r == j) for r, x in enumerate(coroot))
            if min(image) >= 0 and image not in pairs:
                pairs[image] = tuple(x - a * (r == j) for r, x in enumerate(root))
                frontier.append((image, pairs[image]))
    return sorted(pairs.items())


def _reflection_table(datum):
    """(coroots, table): table[a][b] = (sign, c) with s_{eta_a}(eta_b) =
    sign * eta_c, s_beta(x) = x - <beta, x> beta^vee."""
    pairs = _positive_pairs(datum.cartan)
    coroots = [c for c, _ in pairs]
    index = {c: i for i, c in enumerate(coroots)}
    table = []
    for eta, beta in pairs:
        row = []
        for gamma in coroots:
            k = pair_root_coroot(datum, beta, gamma)
            image = tuple(g - k * e for g, e in zip(gamma, eta))
            sign = 1 if min(image) >= 0 else -1
            row.append((sign, index[tuple(sign * x for x in image)]))
        table.append(row)
    return coroots, table


def _solve_exactly(rows, rhs):
    """The unique rational c with rows * c = rhs, or None if there is none:
    fraction-free Gauss-Jordan on [rows | rhs], each step row <- p * row -
    f * pivot_row, then c_i = rhs_i / p_i.  The columns must be independent."""
    ncols = len(rows[0]) if rows else 0
    a = [list(row) + [y] for row, y in zip(rows, rhs)]
    for col in range(ncols):
        pivot = next(r for r in range(col, len(a)) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for r in range(len(a)):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [p * x - f * y for x, y in zip(a[r], a[col])]
    if any(row[-1] for row in a[ncols:]):
        return None
    return tuple(Fraction(a[i][-1], a[i][i]) for i in range(ncols))


def test_gorenstein_fano_match_chevalley_formula(datum):
    """The class group of X_{w,P} is free on the Schubert divisors D_eta,
    eta in R+_{w,P}; L(omega_k) restricts to sum_eta <omega_k, eta> D_eta
    (Chevalley formula), and -K = sum (ht eta + 1) D_eta (omega_X =
    O(-boundary) (x) L(-rho), Brion & Kumar, Frobenius Splitting Methods,
    2005).  So X is Gorenstein iff P c = (ht eta + 1)_eta has an integer
    solution, P = (eta_k) over k in I^P_w; c is unique, c1 = sum c_k
    omega_k, and X is Fano iff also c > 0.  R+_{w,P} is built here by its
    length-drop definition: the inversion coroots eta with l(w s_eta) =
    l(w) - 1 = |N(w) xor N(s_eta)| and w s_eta in W^P.  Only the verdicts,
    c1 and the regime are read from ``classify``; the undetermined regime
    is skipped."""
    counts = {}
    for type_str, inside, cap in CHEVALLEY_CASES:
        d = datum(type_str)
        coroots, table = _reflection_table(d)
        simple = [coroots.index(tuple(int(r == i) for r in range(d.rank)))
                  for i in range(d.rank)]
        images = {i + 1: [c for _, c in table[a]] for i, a in enumerate(simple)}
        neg = [sum(1 << a for a, (sign, _) in enumerate(row) if sign < 0) for row in table]
        p = sa.parabolic(d, inside)
        for w in sa.enumerate_coset_reps(d, p, cap or len(coroots)):
            report = sa.classify(sa.SchubertInput(datum=d, parabolic=p, w=w))
            key = (report.regime, report.gorenstein.value)
            counts[key] = counts.get(key, 0) + 1
            if report.regime == "general_undetermined":
                continue
            word = sa.canonical_reduced_word(w)
            inv = set()  # N(w s_i) = s_i N(w) + {alpha_i^vee}, left to right
            for i in word:
                inv = {images[i][c] for c in inv}
                inv.add(simple[i - 1])
            assert len(inv) == len(word)
            mask = sum(1 << a for a in inv)

            def in_w_p(a):  # no alpha_j^vee, j in I_P, in N(w s_eta)
                return all(
                    (sign > 0) != (c in inv)
                    for sign, c in (table[a][simple[j - 1]] for j in inside)
                )

            covers = [
                coroots[a] for a in sorted(inv)
                if (mask ^ neg[a]).bit_count() == len(word) - 1 and in_w_p(a)
            ]
            keys = sorted(set(word) - set(inside))
            c = _solve_exactly(
                [[eta[k - 1] for k in keys] for eta in covers],
                [sum(eta) + 1 for eta in covers],
            )
            integral = c is not None and all(x.denominator == 1 for x in c)
            where = (type_str, inside, word)
            assert report.gorenstein is (Y if integral else N), where
            assert report.q_gorenstein is (N if c is None else Y), where
            assert (report.c1 is None) == (c is None), where
            if c is not None:
                full = dict(zip(keys, c))
                assert report.c1 == tuple(full.get(k, 0) for k in range(1, d.rank + 1)), where
            assert report.fano is (Y if integral and all(x > 0 for x in c) else N), where
    assert counts == {
        ("point", "yes"): 13,
        ("simply_laced", "yes"): 5268,
        ("simply_laced", "no"): 1454,
        ("q_factorial_general", "yes"): 334,
        ("q_factorial_general", "no"): 12,
        ("general_undetermined", "undetermined"): 956,
    }


# ------------------------------------------------ Dynkin automorphisms ---

# (type, sigma as the images of 1, ..., n, I_P, length cap, rows off the
# Q-Gorenstein ones where nef_anticanonical differs): A5, D4 and D5 in full,
# E6 up to length 8
AUTOMORPHISM_CASES = [
    ("A5", (5, 4, 3, 2, 1), (), None, 0),
    ("A5", (5, 4, 3, 2, 1), (1,), None, 3),
    ("A5", (5, 4, 3, 2, 1), (2, 3), None, 0),
    ("A5", (5, 4, 3, 2, 1), (1, 2, 3, 4), None, 0),
    ("D4", (3, 2, 4, 1), (), None, 0),
    ("D4", (3, 2, 4, 1), (1,), None, 0),
    ("D4", (3, 2, 4, 1), (2,), None, 0),
    ("D4", (3, 2, 4, 1), (3, 4), None, 0),
    ("D5", (1, 2, 3, 5, 4), (5,), None, 0),
    ("D5", (1, 2, 3, 5, 4), (1, 2, 3, 4), None, 0),
    ("E6", (6, 2, 5, 4, 3, 1), (), 8, 0),
    ("E6", (6, 2, 5, 4, 3, 1), (1, 2, 3, 4, 5), 8, 0),
    ("E6", (6, 2, 5, 4, 3, 1), (2,), 8, 0),
    ("E6", (6, 2, 5, 4, 3, 1), (1, 6), 8, 4),
]
AUTOMORPHISM_FIELDS = (
    "regime", "b2", "b_top", "q_factorial", "factorial",
    "gorenstein", "q_gorenstein", "fano", "q_gorenstein_fano",
)


@pytest.mark.parametrize(
    "type_str, images, inside, cap, nef_differs", AUTOMORPHISM_CASES,
    ids=[f"{t}-{'-'.join(map(str, p)) or 'B'}" for t, _, p, _, _ in AUTOMORPHISM_CASES],
)
def test_dynkin_automorphism_preserves_the_classification(
    type_str, images, inside, cap, nef_differs, datum
):
    """A diagram automorphism sigma lifts to G and maps X_{w,P}
    isomorphically onto X_{sigma(w),sigma(P)}: the regime, b2, b_top,
    factoriality and the four statuses agree, and c1 is permuted,
    c1'[sigma(k)] = c1[k].  sigma(w) is built from the letter-wise image of
    w's canonical word, which in general is not sigma(w)'s canonical word.
    nef_anticanonical is compared on the Q-Gorenstein rows only: off them
    -K is not Q-Cartier, hat-n solves only the rows of the adapted basis,
    and its sign pattern follows the basis's tie order, so the rows where it
    differs are counted and pinned."""
    d = datum(type_str)
    sigma = dict(enumerate(images, start=1))
    assert sorted(images) == list(range(1, d.rank + 1))
    assert all(
        d.cartan[sigma[i] - 1][sigma[j] - 1] == d.cartan[i - 1][j - 1]
        for i in sigma for j in sigma
    )
    p = sa.parabolic(d, inside)
    p_image = sa.parabolic(d, [sigma[j] for j in inside])
    rows = differs = 0
    for w in sa.enumerate_coset_reps(d, p, cap or len(d.positives)):
        word = sa.canonical_reduced_word(w)
        w_image = sa.element_from_word(d, [sigma[i] for i in word])
        rep = sa.classify(sa.SchubertInput(datum=d, parabolic=p, w=w))
        image = sa.classify(sa.SchubertInput(datum=d, parabolic=p_image, w=w_image))
        where = (word, inside)
        for name in AUTOMORPHISM_FIELDS:
            assert getattr(image, name) == getattr(rep, name), (name, where)
        assert image.length == rep.length, where
        if rep.c1 is None:
            assert image.c1 is None, where
        else:
            assert all(image.c1[sigma[k] - 1] == rep.c1[k - 1] for k in sigma), where
        if rep.q_gorenstein is Y:
            assert image.nef_anticanonical == rep.nef_anticanonical, where
        else:
            differs += image.nef_anticanonical != rep.nef_anticanonical
        rows += 1
    assert rows > 1
    assert differs == nef_differs
