"""Coroot data and singularity classification of Schubert varieties X_{w,P}.

The pipeline runs: inversion set -> cover coroots (Weil divisor labels) ->
Picard matrix over the Cartier index set -> factoriality -> adapted basis
(simply-laced) -> Gorenstein/Fano statuses with the anticanonical class.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import exactlinalg
from .errors import (
    InternalError,
    NotInInversionSetError,
    NotMinimalCosetRepError,
    NotSimplyLacedError,
)
from .rootdata import (
    CorootVec,
    RootDatum,
    height,
    pair_root_with_simple_coroot,
)
from .weyl import (
    ParabolicSubset,
    WeylElement,
    canonical_reduced_word,
    has_right_descent,
    inversion_sequence,
    rightmost_distance,
)

Word = Tuple[int, ...]


class Status(enum.Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


def _status(flag: bool) -> Status:
    return Status.YES if flag else Status.NO


@dataclass(frozen=True)
class SchubertInput:
    """A Schubert variety described by (root datum, parabolic subset, w).

    w must be a minimal coset representative; the identity element encodes
    the degenerate point case.
    """

    datum: RootDatum
    parabolic: ParabolicSubset
    w: WeylElement

    def __post_init__(self) -> None:
        if self.parabolic.rank != self.datum.rank:
            raise NotMinimalCosetRepError("parabolic rank does not match datum")
        for j in self.parabolic.inside_sorted:
            if has_right_descent(self.w, j):
                raise NotMinimalCosetRepError(
                    f"w sends alpha_{j} negative for j={j} in I_P; not in W^P",
                    violating_index=j,
                )


@dataclass(frozen=True)
class DecompositionWitness:
    c: int
    mu: CorootVec
    mu_prime: CorootVec


@dataclass(frozen=True)
class CorootSets:
    """The coroot record of a Schubert input, built once by ``cover_coroots``.

    ``inv_ordered`` follows the reflection ordering of the canonical reduced
    word; ``decomposable`` is the ``decompositions`` map of the inversion
    coroots; ``cover_B``/``cover_P`` are in canonical coroot order.
    """

    inv_ordered: Tuple[CorootVec, ...]
    support_B: Tuple[int, ...]
    support_P: Tuple[int, ...]
    decomposable: Mapping[CorootVec, List[DecompositionWitness]]
    cover_B: Tuple[CorootVec, ...]
    cover_P: Tuple[CorootVec, ...]


@dataclass(frozen=True)
class AdaptedBasis:
    """Ordered pairs (k, mu(k)) whose pairing matrix is unipotent
    lower-triangular in the stored order."""

    entries: Tuple[Tuple[int, CorootVec], ...]

    @property
    def keys(self) -> Tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def coroots(self) -> Tuple[CorootVec, ...]:
        return tuple(c for _, c in self.entries)

    def coroot_for(self, k: int) -> CorootVec:
        for kk, c in self.entries:
            if kk == k:
                return c
        raise KeyError(k)


@dataclass(frozen=True)
class LabeledMatrix:
    """Matrix with explicit row/column labels, since orderings are choices."""

    row_labels: Tuple[object, ...]
    col_labels: Tuple[object, ...]
    entries: Tuple[Tuple[object, ...], ...]


@dataclass(frozen=True)
class ClassificationReport:
    cartan_type: str
    parabolic_inside: Tuple[int, ...]
    word: Word = ()
    length: int = 0
    regime: str = "point"
    b2: int = 0
    b_top: int = 0
    support: Tuple[int, ...] = ()
    cartier_indices: Tuple[int, ...] = ()
    inversion_coroots: Tuple[CorootVec, ...] = ()
    cover_coroots: Tuple[CorootVec, ...] = ()
    picard_matrix: Optional[LabeledMatrix] = None
    q_factorial: bool = True
    factorial: bool = True
    factorial_evidence: Mapping[str, object] = field(default_factory=dict)
    basis: Optional[AdaptedBasis] = None
    m_matrix: Optional[LabeledMatrix] = None
    n_matrix: Optional[LabeledMatrix] = None
    hat_n_keys: Optional[Tuple[int, ...]] = None
    hat_n: Optional[Tuple[Fraction, ...]] = None
    gorenstein: Status = Status.YES
    q_gorenstein: Status = Status.YES
    fano: Status = Status.YES
    q_gorenstein_fano: Status = Status.YES
    gorenstein_failures: Tuple[Tuple[CorootVec, Fraction], ...] = ()
    nef_anticanonical: Optional[bool] = True
    c1: Optional[Tuple[Fraction, ...]] = None
    anticanonical_weil: Tuple[int, ...] = ()
    provenance: Mapping[str, str] = field(default_factory=dict)


def decompositions(
    elements: Sequence[CorootVec],
) -> Dict[CorootVec, List[DecompositionWitness]]:
    """Every c * eta = mu + mu' with mu, mu', eta among ``elements`` and
    mu before mu'.  The keys are exactly the decomposable eta; each list
    follows the lexicographic order of the pairs (mu, mu') in ``elements``,
    which should be the inversion coroots in canonical order.
    """
    members = set(elements)
    found: Dict[CorootVec, List[DecompositionWitness]] = {}
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
                    found.setdefault(eta, []).append(
                        DecompositionWitness(c=c, mu=mu, mu_prime=mu2)
                    )
    return found


def _pick(
    witnesses: List[DecompositionWitness], reverse_ties: bool
) -> DecompositionWitness:
    """The tie rule of ``decompose``: first pair, or last with
    ``reverse_ties``."""
    return witnesses[-1] if reverse_ties else witnesses[0]


def decompose(
    eta: CorootVec,
    inv_elements: Sequence[CorootVec],
    reverse_ties: bool = False,
) -> Optional[DecompositionWitness]:
    """A witness c * eta = mu + mu' over unordered pairs of distinct
    inversion coroots.  The witness has mu of minimal canonical position,
    ties by minimal mu'; ``reverse_ties`` takes the maximal pair instead.
    Returns None exactly when eta is indecomposable.  ``inv_elements`` must
    be sorted by canonical index.

    Each call builds the whole ``decompositions`` map of ``inv_elements``,
    so a caller that needs several lookups should read
    ``cover_coroots(inp).decomposable`` instead.
    """
    eta = tuple(eta)
    if eta not in inv_elements:
        raise NotInInversionSetError(f"{eta} not in the inversion set")
    witnesses = decompositions(inv_elements).get(eta)
    return _pick(witnesses, reverse_ties) if witnesses else None


def _canonical_sorted(datum: RootDatum, coroots) -> Tuple[CorootVec, ...]:
    return tuple(sorted(coroots, key=datum.coroot_index.__getitem__))


def _reflection_image_of_simple(
    datum: RootDatum, eta: CorootVec, j: int
) -> CorootVec:
    # s_eta(alpha_j^vee) = alpha_j^vee - <root(eta), alpha_j^vee> eta
    root = datum.pair_for_coroot[eta].root
    coef = pair_root_with_simple_coroot(datum, root, j)
    return tuple(
        (1 if m == j - 1 else 0) - coef * eta[m] for m in range(datum.rank)
    )


def cover_coroots(inp: SchubertInput) -> CorootSets:
    """Build the coroot record of ``inp``, down to the Weil-divisor coroot
    sets R+_{w,B} and R+_{w,P}.

    R+_{w,B} consists of the indecomposable inversion coroots; R+_{w,P}
    keeps those whose reflection maps every alpha_j^vee (j in I_P) outside
    the inversion set.
    """
    datum = inp.datum
    word = canonical_reduced_word(inp.w)
    inv = inversion_sequence(datum, word)
    supp = tuple(sorted(set(word)))
    outside = set(inp.parabolic.complement)
    elements = _canonical_sorted(datum, inv)
    decomposable = decompositions(elements)
    cover_b = tuple(c for c in elements if c not in decomposable)
    inv_set = frozenset(inv)
    inside = inp.parabolic.inside_sorted
    cover_p = tuple(
        eta
        for eta in cover_b
        if all(
            _reflection_image_of_simple(datum, eta, j) not in inv_set
            for j in inside
        )
    )
    return CorootSets(
        inv_ordered=inv,
        support_B=supp,
        support_P=tuple(k for k in supp if k in outside),
        decomposable=decomposable,
        cover_B=cover_b,
        cover_P=cover_p,
    )


def picard_matrix(inp: SchubertInput, sets: CorootSets) -> LabeledMatrix:
    """Pairings <omega_k, eta> with rows over R+_{w,P} (canonical order) and
    columns over I^P_w ascending.  Row eta expands the divisor class of the
    k-th Cartier generator over the Schubert divisor basis."""
    cols = sets.support_P
    entries = tuple(tuple(eta[k - 1] for k in cols) for eta in sets.cover_P)
    return LabeledMatrix(row_labels=sets.cover_P, col_labels=cols, entries=entries)


def classify_factorial(
    inp: SchubertInput, sets: CorootSets
) -> Tuple[bool, bool, Dict[str, object]]:
    """(Q-factorial, factorial, evidence).

    Q-factorial iff the cover set is square against I^P_w; factorial
    additionally needs determinant +-1.  In simply-laced types the two must
    agree, and a violation is a hard internal error.
    """
    pic = picard_matrix(inp, sets)
    evidence: Dict[str, object] = {}
    evidence["invariant_factors"] = exactlinalg.smith_normal_form(pic.entries)
    q_fact = len(sets.cover_P) == len(sets.support_P)
    factorial = False
    if q_fact:
        d = exactlinalg.det(pic.entries) if sets.cover_P else 1
        evidence["determinant"] = d
        factorial = d in (1, -1)
    if inp.datum.simply_laced and factorial != q_fact:
        raise InternalError(
            f"simply-laced factoriality mismatch for {inp.w!r}: "
            f"q_factorial={q_fact}, evidence={evidence}"
        )
    return q_fact, factorial, evidence


def build_B_wB(
    inp: SchubertInput, sets: CorootSets, reverse_ties: bool = False
) -> AdaptedBasis:
    """The adapted coroot basis of the Borel-case cover set (simply-laced),
    read off the coroot record ``sets`` of ``inp``.

    For each k in the support, take the rightmost-witness coroot and, while
    it decomposes, descend into the summand with unit k-th coefficient.
    Entries are ordered by ascending rightmost distance, ties by index.
    """
    datum = inp.datum
    if not datum.simply_laced:
        raise NotSimplyLacedError(f"{datum.cartan_type} is not simply laced")
    decomposable = sets.decomposable
    entries: List[Tuple[int, int, CorootVec]] = []  # (d, k, coroot)
    for k in sets.support_B:
        d, witness = rightmost_distance(inp.w, k, reverse_ties=reverse_ties)
        # entry d of an inversion sequence depends only on the last d letters
        current = inversion_sequence(datum, witness[-d:])[-1]
        if current[k - 1] != 1:
            raise InternalError(
                f"rightmost coroot {current} lacks unit coefficient at {k}"
            )
        while current in decomposable:
            wit = _pick(decomposable[current], reverse_ties)
            if wit.c != 1:
                raise InternalError(
                    f"decomposition scale {wit.c} != 1 in simply-laced type"
                )
            unit = [m for m in (wit.mu, wit.mu_prime) if m[k - 1] == 1]
            if len(unit) != 1:
                raise InternalError(
                    f"summand with unit coefficient at {k} is not unique "
                    f"for {current}: {wit}"
                )
            current = unit[0]
        entries.append((d, k, current))
    entries.sort(key=lambda t: (t[0], -t[1]) if reverse_ties else (t[0], t[1]))
    basis = AdaptedBasis(entries=tuple((k, c) for _, k, c in entries))
    _assert_unipotent_lower(basis)
    return basis


def _assert_unipotent_lower(basis: AdaptedBasis) -> None:
    keys = basis.keys
    for r, (_, coroot) in enumerate(basis.entries):
        for c, k in enumerate(keys):
            val = coroot[k - 1]
            if c == r and val != 1:
                raise InternalError(f"diagonal entry {val} != 1 in adapted basis")
            if c > r and val != 0:
                raise InternalError("adapted basis matrix is not lower-triangular")


def restrict_basis(basis: AdaptedBasis, keys: Sequence[int]) -> AdaptedBasis:
    keep = set(keys)
    return AdaptedBasis(entries=tuple((k, c) for k, c in basis.entries if k in keep))


def p_adapt(
    inp: SchubertInput, basis: AdaptedBasis, sets: CorootSets
) -> AdaptedBasis:
    """Push a Borel adapted basis into the parabolic cover set.

    While some mu(k0) has s_{mu(k0)}(alpha_j^vee) still in the inversion set
    for a j in I_P, replace mu(k0) by mu(k0) + alpha_j^vee; smallest k0 then
    smallest j each round.  Heights strictly increase, so this terminates.
    """
    datum = inp.datum
    if not datum.simply_laced:
        raise NotSimplyLacedError(f"{datum.cartan_type} is not simply laced")
    inv_set = frozenset(sets.inv_ordered)
    inside = inp.parabolic.inside_sorted
    order = basis.keys
    current: Dict[int, CorootVec] = dict(basis.entries)
    bound = len(current) * (height(datum.highest_coroot) + 1) + 1
    for _ in range(bound):
        pick = None
        for k0 in sorted(current):
            mu = current[k0]
            for j in inside:
                image = _reflection_image_of_simple(datum, mu, j)
                if image in inv_set:
                    pick = (k0, j, image)
                    break
            if pick:
                break
        if pick is None:
            break
        k0, j, image = pick
        expected = tuple(
            current[k0][m] + (1 if m == j - 1 else 0) for m in range(datum.rank)
        )
        if image != expected:
            raise InternalError(
                f"parabolic adaptation step is not mu + alpha_{j}^vee: {image}"
            )
        current[k0] = image
    else:  # pragma: no cover - loop bound is generous
        raise InternalError("parabolic adaptation failed to terminate")
    adapted = AdaptedBasis(entries=tuple((k, current[k]) for k in order))
    cover_p = set(sets.cover_P)
    originals = dict(basis.entries)
    for k, mu in adapted.entries:
        if mu not in cover_p:
            raise InternalError(f"adapted coroot {mu} escaped the cover set")
        diff = tuple(a - b for a, b in zip(mu, originals[k]))
        if any(d and (m + 1) not in inp.parabolic.inside for m, d in enumerate(diff)):
            raise InternalError(
                f"adaptation changed mu({k}) outside the parabolic span"
            )
    _assert_unipotent_lower(adapted)
    return adapted


def _ht_plus_one(coroots: Sequence[CorootVec]) -> Tuple[int, ...]:
    return tuple(height(c) + 1 for c in coroots)


def _anticanonical(
    datum: RootDatum,
    m_entries: Sequence[Sequence[int]],
    keys: Sequence[int],
    coroots: Sequence[CorootVec],
) -> Tuple[exactlinalg.RatMatrix, Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """(N, hat-n, c1): N = M^-1, hat-n = N (ht + 1) over the coroots that
    label the columns of N, and c1 = sum of hat-n_k omega_k over the keys."""
    n_rat = exactlinalg.inverse_rational(m_entries)
    h1 = _ht_plus_one(coroots)
    hat = tuple(
        sum((row[j] * h1[j] for j in range(len(h1))), Fraction(0)) for row in n_rat
    )
    hat_by_key = dict(zip(keys, hat))
    c1 = tuple(hat_by_key.get(i, Fraction(0)) for i in range(1, datum.rank + 1))
    return n_rat, hat, c1


def gorenstein_fano_report(
    inp: SchubertInput,
    sets: CorootSets,
    basis: Optional[AdaptedBasis],
) -> ClassificationReport:
    """Complete the classification: statuses, hat-n vector, anticanonical class.

    Three regimes: simply-laced (adapted-basis matrix, integral), general
    Q-factorial (full cover matrix, rational), and general non-Q-factorial
    (statuses undetermined; no criterion is pinned there).
    """
    datum = inp.datum
    if (basis is not None) != datum.simply_laced:
        raise InternalError(
            "adapted basis must be supplied exactly for simply-laced data"
        )
    q_fact, factorial, evidence = classify_factorial(inp, sets)
    pic = picard_matrix(inp, sets)
    ks = sets.support_P
    weil = _ht_plus_one(sets.cover_P)
    prov: Dict[str, str] = {
        "q_factorial": "cover-set size equals Cartier index count (b_top == b2)",
        "factorial": "square divisor pairing matrix with determinant +-1",
    }
    common = dict(
        cartan_type=str(datum.cartan_type),
        parabolic_inside=inp.parabolic.inside_sorted,
        word=canonical_reduced_word(inp.w),
        length=inp.w.length,
        b2=len(ks),
        b_top=len(sets.cover_P),
        support=sets.support_B,
        cartier_indices=ks,
        inversion_coroots=sets.inv_ordered,
        cover_coroots=sets.cover_P,
        picard_matrix=pic,
        q_factorial=q_fact,
        factorial=factorial,
        factorial_evidence=evidence,
        anticanonical_weil=weil,
    )

    if inp.w.is_identity:
        prov.update(
            gorenstein="point: every status trivially affirmative",
            fano="point: every status trivially affirmative",
        )
        return ClassificationReport(
            regime="point",
            basis=basis,
            hat_n_keys=(),
            hat_n=(),
            c1=tuple(Fraction(0) for _ in range(datum.rank)),
            provenance=prov,
            **common,
        )

    if datum.simply_laced:
        assert basis is not None
        keys = basis.keys
        m_entries = tuple(
            tuple(coroot[i - 1] for i in keys) for _, coroot in basis.entries
        )
        m = LabeledMatrix(row_labels=basis.entries, col_labels=keys, entries=m_entries)
        n_rat, hat, c1 = _anticanonical(datum, m_entries, keys, basis.coroots)
        if any(x.denominator != 1 for row in n_rat for x in row):
            raise InternalError("adapted-basis matrix is not unimodular")
        n = LabeledMatrix(row_labels=keys, col_labels=basis.entries, entries=n_rat)
        basis_set = set(basis.coroots)
        failures = []
        for eta in sets.cover_P:
            if eta in basis_set:
                continue
            defect = (
                sum((c1[k - 1] * eta[k - 1] for k in keys), Fraction(0))
                - height(eta)
            )
            if defect != 1:
                failures.append((eta, defect))
        gor = _status(not failures)
        fano_flag = not failures and all(x > 0 for x in hat)
        prov.update(
            gorenstein="unit defect of hat-n pairing on every cover coroot "
            "outside the adapted basis (simply-laced criterion)",
            q_gorenstein="equivalent to Gorenstein in simply-laced types",
            fano="Gorenstein with strictly positive hat-n vector",
            q_gorenstein_fano="equivalent to Fano in simply-laced types",
        )
        return ClassificationReport(
            regime="simply_laced",
            basis=basis,
            m_matrix=m,
            n_matrix=n,
            hat_n_keys=keys,
            hat_n=hat,
            gorenstein=gor,
            q_gorenstein=gor,
            fano=_status(fano_flag),
            q_gorenstein_fano=_status(fano_flag),
            gorenstein_failures=tuple(failures),
            nef_anticanonical=all(x >= 0 for x in hat),
            c1=None if failures else c1,
            provenance=prov,
            **common,
        )

    if q_fact:
        m_entries = pic.entries
        m = LabeledMatrix(row_labels=sets.cover_P, col_labels=ks, entries=m_entries)
        n_rat, hat, c1 = _anticanonical(datum, m_entries, ks, sets.cover_P)
        n = LabeledMatrix(row_labels=ks, col_labels=sets.cover_P, entries=n_rat)
        integral = all(x.denominator == 1 for x in hat)
        positive = all(x > 0 for x in hat)
        prov.update(
            gorenstein="integrality of the rational hat-n vector "
            "(Q-factorial criterion)",
            q_gorenstein="Q-factorial varieties are Q-Gorenstein",
            fano="Gorenstein with strictly positive hat-n vector",
            q_gorenstein_fano="strictly positive rational hat-n vector",
        )
        return ClassificationReport(
            regime="q_factorial_general",
            basis=None,
            m_matrix=m,
            n_matrix=n,
            hat_n_keys=ks,
            hat_n=hat,
            gorenstein=_status(integral),
            q_gorenstein=Status.YES,
            fano=_status(integral and positive),
            q_gorenstein_fano=_status(positive),
            nef_anticanonical=all(x >= 0 for x in hat),
            c1=c1,
            provenance=prov,
            **common,
        )

    prov.update(
        gorenstein="no criterion covers non-simply-laced, non-Q-factorial "
        "inputs; reported as undetermined",
        q_gorenstein="no criterion covers non-simply-laced, non-Q-factorial "
        "inputs; reported as undetermined",
        fano="undetermined without a Gorenstein determination",
        q_gorenstein_fano="undetermined without a Q-Gorenstein determination",
    )
    return ClassificationReport(
        regime="general_undetermined",
        basis=None,
        gorenstein=Status.UNDETERMINED,
        q_gorenstein=Status.UNDETERMINED,
        fano=Status.UNDETERMINED,
        q_gorenstein_fano=Status.UNDETERMINED,
        nef_anticanonical=None,
        c1=None,
        provenance=prov,
        **common,
    )


def classify(inp: SchubertInput, reverse_ties: bool = False) -> ClassificationReport:
    """Run the full pipeline on one Schubert input.

    ``reverse_ties`` breaks every deterministic tie of the adapted basis the
    other way; the anticanonical class must not depend on that choice.  It
    changes nothing outside simply-laced types.
    """
    sets = cover_coroots(inp)
    basis = None
    if inp.datum.simply_laced:
        borel = build_B_wB(inp, sets, reverse_ties=reverse_ties)
        basis = p_adapt(inp, restrict_basis(borel, sets.support_P), sets)
    return gorenstein_fano_report(inp, sets, basis)


# --------------------------------------------------------------------------
# serialization


def _frac_str(x) -> str:
    return str(Fraction(x))


def _label_to_json(obj):
    if (
        isinstance(obj, tuple)
        and len(obj) == 2
        and isinstance(obj[0], int)
        and isinstance(obj[1], tuple)
    ):
        return {"k": obj[0], "coroot": list(obj[1])}
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def _matrix_dict(m: Optional[LabeledMatrix], rational: bool) -> Optional[dict]:
    if m is None:
        return None
    entries = [
        [_frac_str(x) if rational else int(x) for x in row] for row in m.entries
    ]
    return {
        "row_labels": [_label_to_json(r) for r in m.row_labels],
        "col_labels": [_label_to_json(c) for c in m.col_labels],
        "entries": entries,
    }


def report_to_dict(report: ClassificationReport) -> dict:
    """Canonical JSON-ready form of a report; rationals become "p/q" strings."""
    hat = None
    if report.hat_n is not None:
        hat = {
            str(k): _frac_str(x)
            for k, x in zip(report.hat_n_keys or (), report.hat_n)
        }
    return {
        "cartan_type": report.cartan_type,
        "parabolic_inside": list(report.parabolic_inside),
        "word": list(report.word),
        "length": report.length,
        "regime": report.regime,
        "b2": report.b2,
        "b_top": report.b_top,
        "support": list(report.support),
        "cartier_indices": list(report.cartier_indices),
        "inversion_coroots": [list(c) for c in report.inversion_coroots],
        "cover_coroots": [list(c) for c in report.cover_coroots],
        "picard_matrix": _matrix_dict(report.picard_matrix, rational=False),
        "q_factorial": report.q_factorial,
        "factorial": report.factorial,
        "factorial_evidence": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in report.factorial_evidence.items()
        },
        "basis": None
        if report.basis is None
        else [{"k": k, "coroot": list(c)} for k, c in report.basis.entries],
        "m_matrix": _matrix_dict(report.m_matrix, rational=False),
        "n_matrix": _matrix_dict(report.n_matrix, rational=True),
        "hat_n": hat,
        "gorenstein": report.gorenstein.value,
        "q_gorenstein": report.q_gorenstein.value,
        "fano": report.fano.value,
        "q_gorenstein_fano": report.q_gorenstein_fano.value,
        "gorenstein_failures": [
            {"coroot": list(c), "defect": _frac_str(d)}
            for c, d in report.gorenstein_failures
        ],
        "nef_anticanonical": report.nef_anticanonical,
        "c1": None if report.c1 is None else [_frac_str(x) for x in report.c1],
        "anticanonical_weil": list(report.anticanonical_weil),
        "provenance": dict(sorted(report.provenance.items())),
    }


def report_conventions(datum: RootDatum) -> dict:
    return {
        "cartan_matrix": [list(row) for row in datum.cartan],
        "cartan_entry": "C[i][j] = <alpha_j, alpha_i^vee>",
        "coroot_order": "positive pairs sorted by (coroot height, coroot, root)",
        "word_composition": "left to right: first letter acts outermost",
        "picard_rows": "cover coroots in canonical order",
        "picard_cols": "Cartier indices I^P_w ascending",
    }


def canonical_json(obj: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent.  Parsing and
    re-serializing a document produced here is byte-identical."""
    return json.dumps(obj, sort_keys=True, indent=2)


def report_to_json(
    report: ClassificationReport, datum: Optional[RootDatum] = None
) -> str:
    doc = report_to_dict(report)
    if datum is not None:
        doc["conventions"] = report_conventions(datum)
    return canonical_json(doc)


def c1_pretty(report: ClassificationReport) -> str:
    """Human-readable anticanonical class, e.g. ``2*w1 - w2``."""
    if report.c1 is None:
        return ""
    terms = []
    for idx, coeff in enumerate(report.c1, start=1):
        if coeff == 0:
            continue
        mag = abs(coeff)
        piece = f"w{idx}" if mag == 1 else f"{mag}*w{idx}"
        terms.append((coeff < 0, piece))
    if not terms:
        return "0"
    out = ""
    for negative, piece in terms:
        if not out:
            out = ("-" if negative else "") + piece
        else:
            out += (" - " if negative else " + ") + piece
    return out


CSV_FIELDS = (
    "cartan_type",
    "parabolic_inside",
    "word",
    "length",
    "b2",
    "b_top",
    "q_factorial",
    "factorial",
    "gorenstein",
    "q_gorenstein",
    "fano",
    "q_gorenstein_fano",
    "nef_anticanonical",
    "c1",
)


def csv_row(report: ClassificationReport) -> dict:
    return {
        "cartan_type": report.cartan_type,
        "parabolic_inside": " ".join(map(str, report.parabolic_inside)),
        "word": " ".join(map(str, report.word)),
        "length": report.length,
        "b2": report.b2,
        "b_top": report.b_top,
        "q_factorial": report.q_factorial,
        "factorial": report.factorial,
        "gorenstein": report.gorenstein.value,
        "q_gorenstein": report.q_gorenstein.value,
        "fano": report.fano.value,
        "q_gorenstein_fano": report.q_gorenstein_fano.value,
        "nef_anticanonical": report.nef_anticanonical,
        "c1": c1_pretty(report),
    }
