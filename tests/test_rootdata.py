import pytest
from fractions import Fraction

import schubert_atlas as sa
from schubert_atlas.errors import InvalidTypeError
from schubert_atlas.rootdata import CartanType, _reflect_coroot, cartan_matrix

from helpers import (
    NotACorootError,
    fundamental_weight,
    highest_coroot,
    pair_root_coroot,
    parallel_reflection_closure,
    reflect_root,
    require_positive_coroot,
    weight_coroot_pairing,
)


def closed_form_count(family, n):
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return {"F": 24, "G": 6}[family]


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("type_str", ALL_TYPES)
def test_positive_counts_match_closed_form(type_str, datum):
    d = datum(type_str)
    ct = d.cartan_type
    assert len(d.positives) == closed_form_count(ct.family, ct.rank)
    assert ct.positive_root_count == len(d.positives)


def test_parse_and_validity():
    assert CartanType.parse("a4") == CartanType("A", 4)
    assert str(CartanType.parse("G2")) == "G2"
    for bad in ("A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "H3", "A", "4A"):
        with pytest.raises(InvalidTypeError):
            CartanType.parse(bad)


PINNED_CARTANS = {
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "D5": (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, -1),
        (0, 0, -1, 2, 0),
        (0, 0, -1, 0, 2),
    ),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


@pytest.mark.parametrize("type_str,expected", sorted(PINNED_CARTANS.items()))
def test_pinned_cartan_matrices(type_str, expected):
    assert cartan_matrix(CartanType.parse(type_str)) == expected


def test_g2_coroots_contain_expected(datum):
    coroots = {p.coroot for p in datum("G2").positives}
    assert (3, 2) in coroots
    assert (1, 1) in coroots
    assert len(coroots) == 6


def test_a1_single_pair(datum):
    d = datum("A1")
    assert d.positives == (sa.RootCorootPair(root=(1,), coroot=(1,)),)


def test_d5_highest_coroot(datum):
    assert highest_coroot(datum("D5")) == (1, 2, 2, 1, 1)


def test_highest_coroot_is_unique_maximum(datum):
    for t in ("A3", "B3", "C3", "D4", "F4", "G2"):
        d = datum(t)
        heights = sorted(sum(c) for c in d.positive_coroots)
        assert heights[-1] > heights[-2]
        assert sum(highest_coroot(d)) == heights[-1]


def test_pairing_g2_table(datum):
    d = datum("G2")
    a1, a2 = (1, 0), (0, 1)
    assert pair_root_coroot(d, a1, a2) == -3
    assert pair_root_coroot(d, a2, a1) == -1
    assert pair_root_coroot(d, a1, a1) == 2
    assert pair_root_coroot(d, a2, a2) == 2


def test_pairing_bilinear_a2(datum):
    d = datum("A2")
    assert pair_root_coroot(d, (1, 1), (1, 1)) == 2


def test_height_examples(datum):
    assert sa.height((1, 0)) == 1
    assert sa.height((3, 2)) == 5
    assert sa.height((0, 1, 1, 1)) == 3


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_parallel_reflection_closure(type_str, datum):
    """Reflecting root and coroot components in parallel stays inside the
    system up to a global sign."""
    d = datum(type_str)
    pairs = {(p.root, p.coroot) for p in d.positives}
    for p in d.positives:
        for i in range(d.rank):
            r2 = reflect_root(d.cartan, i, p.root)
            c2 = _reflect_coroot(d.cartan, i, p.coroot)
            if any(x < 0 for x in r2):
                r2 = tuple(-x for x in r2)
                c2 = tuple(-x for x in c2)
            assert (r2, c2) in pairs


@pytest.mark.parametrize("type_str", ALL_TYPES)
def test_raise_only_closure_matches_parallel_reflection_closure(type_str, datum):
    """The raise-only walk builds the positive system, in canonical order,
    and the pairings map that the full parallel closure builds; ``pairings``
    is that map inverted, and each entry is the Cartan-matrix pairing of the
    coroot's root."""
    d = datum(type_str)
    positives, coroot_by_pairings = parallel_reflection_closure(d.cartan)
    assert d.positives == positives
    assert d.coroot_by_pairings == coroot_by_pairings
    assert d.pairings == {c: p for p, c in coroot_by_pairings.items()}
    n = d.rank
    assert all(
        d.pairings[p.coroot]
        == tuple(sum(d.cartan[j][m] * p.root[m] for m in range(n)) for j in range(n))
        for p in positives
    )


@pytest.mark.parametrize("type_str", ["A4", "D4", "D5", "E6"])
def test_simply_laced_roots_equal_coroots(type_str, datum):
    d = datum(type_str)
    assert d.simply_laced
    assert all(p.root == p.coroot for p in d.positives)


def test_not_simply_laced_flag(datum):
    assert not datum("B3").simply_laced
    assert not datum("G2").simply_laced


def test_weight_pairing_reads_coefficient(datum):
    d = datum("G2")
    w1 = fundamental_weight(d, 1)
    assert weight_coroot_pairing(w1, (3, 2)) == Fraction(3)
    with pytest.raises(ValueError):
        weight_coroot_pairing(w1, (1, 0, 0))


def test_require_positive_coroot(datum):
    d = datum("A2")
    assert require_positive_coroot(d, (1, 1)).root == (1, 1)
    with pytest.raises(NotACorootError):
        require_positive_coroot(d, (2, 1))


def test_canonical_order_is_by_coroot_height(datum):
    d = datum("G2")
    heights = [sum(p.coroot) for p in d.positives]
    assert heights == sorted(heights)
