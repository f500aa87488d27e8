"""Coroot data and singularity classification of Schubert varieties X_{w,P}.

The pipeline runs: inversion set -> cover coroots (Weil divisor labels) ->
adapted basis (simply-laced) -> one report stage: the Picard matrix over
the Cartier index set, factoriality, and the Gorenstein/Fano statuses with
the anticanonical class.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from . import exactlinalg
from .errors import (
    InternalError,
    InvalidInputError,
    NotMinimalCosetRepError,
    NotSimplyLacedError,
    SingularMatrixError,
)
from .rootdata import CorootVec, RootDatum, height
from .weyl import (
    ParabolicSubset,
    WeylElement,
    canonical_record,
    parabolic_table,
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

    w must be a minimal coset representative of the same Cartan type as the
    datum, whose canonical indices its inversion mask is read against; the
    identity element encodes the degenerate point case.  w is in W^P
    exactly when no alpha_j^vee, j in I_P, is an inversion coroot, since
    w(alpha_j^vee) < 0 exactly when w(alpha_j) < 0: one AND of the mask of
    ``weyl.canonical_record(w)`` with the ``parabolic_table`` simple mask.
    The simple coroots sit in canonical order with alpha_n^vee lowest, so
    the highest bit of that AND names the smallest violating j.
    """

    datum: RootDatum
    parabolic: ParabolicSubset
    w: WeylElement

    def __post_init__(self) -> None:
        if self.w.datum.cartan_type != self.datum.cartan_type:
            raise InvalidInputError(
                f"w is an element of {self.w.datum.cartan_type}, "
                f"not of {self.datum.cartan_type}"
            )
        if self.parabolic.rank != self.datum.rank:
            raise InvalidInputError(
                f"the parabolic has rank {self.parabolic.rank}, "
                f"but {self.datum.cartan_type} has rank {self.datum.rank}"
            )
        if not self.parabolic.inside:
            return
        simple = parabolic_table(self.datum, self.parabolic).simple_mask
        violating = canonical_record(self.w).mask & simple
        if violating:
            alpha = self.datum.positive_coroots[violating.bit_length() - 1]
            j = alpha.index(1) + 1
            raise NotMinimalCosetRepError(
                f"w sends alpha_{j} negative for j={j} in I_P; not in W^P",
                violating_index=j,
            )


class CorootSets(NamedTuple):
    """What ``cover_coroots`` derives from the record of w: the supports
    I_w and I^P_w, ascending, and the cover sets R+_{w,B} and R+_{w,P}, in
    canonical coroot order.  The inversion sequence, N(w) and its
    decomposable mask are read from ``weyl.canonical_record(w)`` itself.
    """

    support_B: Tuple[int, ...]
    support_P: Tuple[int, ...]
    cover_B: Tuple[CorootVec, ...]
    cover_P: Tuple[CorootVec, ...]


def _columns(ks: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """Reader of the entries at the 1-based indices ``ks``, as a tuple, of a
    coroot or any rank-length vector: ``eta -> (eta[k - 1] for k in ks)``."""
    if len(ks) > 1:
        return operator.itemgetter(*[k - 1 for k in ks])
    if ks:  # a one-argument itemgetter returns the bare entry
        i = ks[0] - 1
        return lambda eta: (eta[i],)
    return lambda eta: ()


@dataclass(frozen=True)
class AdaptedBasis:
    """Ordered pairs (k, mu(k)) whose pairing matrix M, row mu(k) read at
    the keys k in the stored order, is unipotent lower-triangular, which
    ``_assert_unipotent_lower`` checks as each basis is built.  M is the
    matrix that ``gorenstein_fano_report`` solves."""

    entries: Tuple[Tuple[int, CorootVec], ...]
    # the k of ``entries`` in its order, and M over them; derived once here,
    # and equality, hash and repr ignore them
    keys: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    matrix: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = tuple(k for k, _ in self.entries)
        read = _columns(keys)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "matrix", tuple(read(c) for _, c in self.entries))
        _assert_unipotent_lower(self)


class LabeledMatrix(NamedTuple):
    """Matrix with explicit row/column labels, since orderings are choices."""

    row_labels: Tuple[object, ...]
    col_labels: Tuple[object, ...]
    entries: Tuple[Tuple[object, ...], ...]


# the empty default of the report's mapping fields, one object shared by all
_NO_ENTRIES: Mapping = MappingProxyType({})


class ClassificationReport(NamedTuple):
    """The classification of one X_{w,P}, as ``gorenstein_fano_report``
    builds it.

    An immutable tuple record: read its fields by name.  It is built by one
    positional call, so the field order is part of its definition.  Output
    goes through ``report_to_dict`` (JSON, table) or ``csv_row`` (CSV);
    ``json.dumps`` of the report itself silently writes a list.
    """

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
    # the determinant; ``report_to_dict`` adds the invariant factors
    factorial_evidence: Mapping[str, object] = _NO_ENTRIES
    basis: Optional[AdaptedBasis] = None
    # the solve's matrix; hat-n is solved for its one right-hand side, and
    # N = M^-1 is built by ``n_matrix`` only when a report is written
    m_matrix: Optional[LabeledMatrix] = None
    hat_n_keys: Optional[Tuple[int, ...]] = None
    hat_n: Optional[Tuple[int | Fraction, ...]] = None
    gorenstein: Status = Status.YES
    q_gorenstein: Status = Status.YES
    fano: Status = Status.YES
    q_gorenstein_fano: Status = Status.YES
    gorenstein_failures: Tuple[Tuple[CorootVec, int | Fraction], ...] = ()
    nef_anticanonical: Optional[bool] = True
    c1: Optional[Tuple[int | Fraction, ...]] = None
    anticanonical_weil: Tuple[int, ...] = ()
    provenance: Mapping[str, str] = _NO_ENTRIES

    @property
    def n_matrix(self) -> Optional[LabeledMatrix]:
        """N = M^-1, rows over the Cartier keys and columns over the rows of
        M: integer in the simply-laced regime, rational in the Q-factorial
        one.  Built on every read; ``report_to_dict`` reads it once."""
        m = self.m_matrix
        if m is None:
            return None
        if self.regime == "simply_laced":
            try:
                entries = exactlinalg.invert_unimodular(m.entries)
            except SingularMatrixError:
                raise InternalError("adapted-basis matrix is not unimodular") from None
        else:
            entries = exactlinalg.inverse_rational(m.entries)
        return LabeledMatrix(
            row_labels=m.col_labels, col_labels=m.row_labels, entries=entries
        )


def cover_coroots(inp: SchubertInput) -> CorootSets:
    """The supports and the Weil-divisor coroot sets R+_{w,B} and R+_{w,P}
    of ``inp``.

    R+_{w,B} consists of the indecomposable inversion coroots; R+_{w,P}
    keeps those whose reflection maps every alpha_j^vee (j in I_P) outside
    the inversion set.  The word, N(w) and the decomposable mask dec come
    from the ``canonical_record`` that w carries, so R+_{w,B} is the mask
    N(w) & ~dec, whose set bits, read upward, are in canonical order.  eta
    of R+_{w,B} is in R+_{w,P} iff N(w) misses its ``blocked`` mask of the
    ``parabolic_table``: one AND per cover coroot.
    """
    datum = inp.datum
    word, _, inv_mask, dec = canonical_record(inp.w)
    coroots = datum.positive_coroots
    supp = tuple(sorted(set(word)))
    cover: List[int] = []
    rest = inv_mask & ~dec
    while rest:
        bit = rest & -rest
        rest ^= bit
        cover.append(bit.bit_length() - 1)
    cover_b = tuple(coroots[i] for i in cover)
    if inp.parabolic.inside:
        blocked = parabolic_table(datum, inp.parabolic).blocked
        outside = inp.parabolic.complement
        support_p = tuple(k for k in supp if k in outside)
        cover_p = tuple(coroots[i] for i in cover if not inv_mask & blocked[i])
    else:  # P = B: nothing to exclude
        support_p, cover_p = supp, cover_b
    return CorootSets(supp, support_p, cover_b, cover_p)


def build_B_wB(
    inp: SchubertInput, sets: CorootSets, reverse_ties: bool = False
) -> AdaptedBasis:
    """The adapted coroot basis over the Cartier indices I^P_w (the support
    when P = B) of a simply-laced ``inp``, read off its coroot record.

    mu(k) is the coroot that the rightmost s_k realizes
    (``rightmost_distance``); entries go by ascending distance d, ties by
    index, descending with ``reverse_ties``.  mu(k) has the least height of
    an inversion coroot with unit k-th coefficient (proof in
    ``rightmost_distance``), so no split mu(k) = mu + mu' in N(w) exists: one
    summand would have that coefficient and less height.  Both are re-checked,
    the decomposable mask read from the record of w; ``AdaptedBasis``
    checks the unipotent shape.
    """
    datum = inp.datum
    if not datum.simply_laced:
        raise NotSimplyLacedError(f"{datum.cartan_type} is not simply laced")
    index = datum.coroot_index
    dec = canonical_record(inp.w).dec
    entries: List[Tuple[int, int, CorootVec]] = []  # (d, k, coroot)
    for k in sets.support_P:
        d, mu = rightmost_distance(inp.w, k, reverse_ties=reverse_ties)
        if mu[k - 1] != 1 or dec >> index[mu] & 1:
            raise InternalError(
                f"rightmost coroot {mu} at {k} is decomposable or not unit there"
            )
        entries.append((d, k, mu))
    entries.sort(key=lambda t: (t[0], -t[1]) if reverse_ties else (t[0], t[1]))
    return AdaptedBasis(entries=tuple((k, c) for _, k, c in entries))


def _assert_unipotent_lower(basis: AdaptedBasis) -> None:
    for r, row in enumerate(basis.matrix):
        for c, val in enumerate(row):
            if c == r and val != 1:
                raise InternalError(f"diagonal entry {val} != 1 in adapted basis")
            if c > r and val != 0:
                raise InternalError("adapted basis matrix is not lower-triangular")


def p_adapt(
    inp: SchubertInput, basis: AdaptedBasis, sets: CorootSets
) -> AdaptedBasis:
    """Push a Borel adapted basis into the parabolic cover set.

    For each key k0 in increasing order: while s_{mu(k0)}(alpha_j^vee) is
    still in the inversion set for some j in I_P, replace mu(k0) by it,
    which must be mu(k0) + alpha_j^vee; smallest j first.  The candidate
    images are the ``steps`` of mu(k0) in the ``parabolic_table``, j
    ascending, and none is inverted when N(w) misses its ``blocked`` mask.
    A step changes only mu(k0), so no smaller key can move again.  Each
    step raises the height inside the finite inversion set, so this
    terminates.

    Every coroot must end in R+_{w,P}.  When no step applies (always for
    P = B) the input basis itself is returned: it is unchanged, so its span
    stands.  A moved basis is re-checked for its span, and ``AdaptedBasis``
    checks its unipotent shape as it is built.
    """
    datum = inp.datum
    if not datum.simply_laced:
        raise NotSimplyLacedError(f"{datum.cartan_type} is not simply laced")
    current: Dict[int, CorootVec] = dict(basis.entries)
    moved = False
    if inp.parabolic.inside:
        table = parabolic_table(datum, inp.parabolic)
        blocked, steps = table.blocked, table.steps
        index, coroots = datum.coroot_index, datum.positive_coroots
        inv_mask = canonical_record(inp.w).mask
        for k0 in sorted(current):
            i = index[current[k0]]
            while inv_mask & blocked[i]:
                j, i = next((j, b) for j, b in steps[i] if inv_mask >> b & 1)
                mu = coroots[i]
                expected = list(current[k0])
                expected[j - 1] += 1
                if mu != tuple(expected):
                    raise InternalError(
                        f"parabolic adaptation step is not mu + alpha_{j}^vee: {mu}"
                    )
                current[k0] = mu
                moved = True
    for mu in current.values():
        if mu not in sets.cover_P:
            raise InternalError(f"adapted coroot {mu} escaped the cover set")
    if not moved:
        return basis
    adapted = AdaptedBasis(entries=tuple((k, current[k]) for k in basis.keys))
    for k, original in basis.entries:
        diff = tuple(a - b for a, b in zip(current[k], original))
        if any(d and (m + 1) not in inp.parabolic.inside for m, d in enumerate(diff)):
            raise InternalError(
                f"adaptation changed mu({k}) outside the parabolic span"
            )
    return adapted


_REGIME_PROVENANCE: Dict[str, Dict[str, str]] = {
    "point": {
        "gorenstein": "point: every status trivially affirmative",
        "fano": "point: every status trivially affirmative",
    },
    "simply_laced": {
        "gorenstein": "unit defect of hat-n pairing on every cover coroot "
        "outside the adapted basis (simply-laced criterion)",
        "q_gorenstein": "equivalent to Gorenstein in simply-laced types",
        "fano": "Gorenstein with strictly positive hat-n vector",
        "q_gorenstein_fano": "equivalent to Fano in simply-laced types",
    },
    "q_factorial_general": {
        "gorenstein": "integrality of the rational hat-n vector "
        "(Q-factorial criterion)",
        "q_gorenstein": "Q-factorial varieties are Q-Gorenstein",
        "fano": "Gorenstein with strictly positive hat-n vector",
        "q_gorenstein_fano": "strictly positive rational hat-n vector",
    },
    "general_undetermined": {
        "gorenstein": "no criterion covers non-simply-laced, non-Q-factorial "
        "inputs; reported as undetermined",
        "q_gorenstein": "no criterion covers non-simply-laced, non-Q-factorial "
        "inputs; reported as undetermined",
        "fano": "undetermined without a Gorenstein determination",
        "q_gorenstein_fano": "undetermined without a Q-Gorenstein determination",
    },
}

# one read-only provenance per regime, shared by every report of it
_PROVENANCE: Dict[str, Mapping[str, str]] = {
    regime: MappingProxyType({
        "q_factorial": "cover-set size equals Cartier index count (b_top == b2)",
        "factorial": "square divisor pairing matrix with determinant +-1",
        **table,
    })
    for regime, table in _REGIME_PROVENANCE.items()
}


def gorenstein_fano_report(
    inp: SchubertInput,
    sets: CorootSets,
    basis: Optional[AdaptedBasis],
) -> ClassificationReport:
    """Complete the classification from the Picard matrix: factoriality,
    statuses, hat-n vector, anticanonical class.

    The Picard matrix P holds the pairings <omega_k, eta>, rows over
    R+_{w,P} (canonical order) and columns over I^P_w ascending: row eta
    expands the divisor class of the k-th Cartier generator over the
    Schubert divisor basis.  Q-factorial iff P is square; factorial iff
    also det P = +-1, the evidence.  In simply-laced types the two must
    agree, and a violation is a hard internal error.

    One criterion (Chevalley formula; Brion-Kumar 2005): -K = sum (ht eta
    + 1) D_eta over R+_{w,P} is Cartier iff P c = (ht + 1) has an integer
    solution c, and then c1 = sum c_k omega_k.  The rows of the solve are
    the adapted basis (simply-laced), whose ``AdaptedBasis.matrix`` is M, or
    all of R+_{w,P} (Q-factorial), where M = P; so M is square and hat-n =
    M^-1 (ht + 1) solves them.  Only that one right-hand side is solved: by
    forward substitution in integers over the unipotent lower-triangular M,
    or as adj(P) (ht + 1) / det P with the adjugate's determinant checked
    against det P.  N = M^-1 itself is built only when a report is written
    (``ClassificationReport.n_matrix``).
    Q-Gorenstein iff every cover coroot has defect <hat-n, eta> - ht eta =
    1; Gorenstein iff also hat-n is integral; Fano iff also hat-n > 0;
    Q-Gorenstein-Fano iff Q-Gorenstein and hat-n > 0; c1 is reported iff
    Q-Gorenstein.  A row of M has unit defect by the solve.  A simply-laced
    M is unimodular, so the unit defect decides alone; it is taken on every
    Picard row, which re-checks each forward substitution.  The rows of a
    Q-factorial solve are all of R+_{w,P}, so no defect is taken and the
    integrality of hat-n decides.
    Non-simply-laced, non-Q-factorial inputs are undetermined.
    """
    datum = inp.datum
    if (basis is not None) != datum.simply_laced:
        raise InternalError(
            "adapted basis must be supplied exactly for simply-laced data"
        )
    word, inversions, _, _ = canonical_record(inp.w)
    ks, cover = sets.support_P, sets.cover_P
    read = _columns(ks)
    pic = LabeledMatrix(cover, ks, tuple(map(read, cover)))
    weil = tuple(height(c) + 1 for c in cover)
    evidence: Dict[str, object] = {}
    q_fact, factorial = len(cover) == len(ks), False
    if q_fact:
        evidence["determinant"] = det = exactlinalg.det(pic.entries)
        factorial = det in (1, -1)
    if datum.simply_laced and factorial != q_fact:
        raise InternalError(
            f"simply-laced factoriality mismatch for {inp.w!r}: "
            f"q_factorial={q_fact}, evidence={evidence}"
        )
    if inp.w.is_identity:
        regime = "point"
    elif datum.simply_laced:
        regime = "simply_laced"
    else:
        regime = "q_factorial_general" if q_fact else "general_undetermined"
    m_matrix, failures = None, ()
    if regime == "point":
        keys, hat, c1, nef = (), (), (0,) * datum.rank, True
        gor = q_gor = fano = q_fano = Status.YES
    elif regime == "general_undetermined":
        keys = hat = c1 = nef = None
        gor = q_gor = fano = q_fano = Status.UNDETERMINED
    else:
        if basis is None:  # Q-factorial: every cover coroot is a row, M = P
            labels, keys, m_entries = cover, ks, pic.entries
            adj, d = exactlinalg.adjugate(m_entries)  # hat-n = adj(P) weil / det P
            if d != det:
                raise InternalError(
                    f"adjugate determinant {d} != Picard determinant {det} "
                    f"for {inp.w!r}"
                )
            hat = tuple(Fraction(sum(map(operator.mul, row, weil)), d) for row in adj)
        else:  # M unipotent lower-triangular: forward substitution in integers
            labels, keys, m_entries = basis.entries, basis.keys, basis.matrix
            hat = ()
            for row, (_, c) in zip(m_entries, labels):
                hat += (height(c) + 1 - sum(map(operator.mul, row, hat)),)
        m_matrix = LabeledMatrix(labels, keys, m_entries)
        hat_by_key = dict(zip(keys, hat))
        c1 = tuple(hat_by_key.get(i, 0) for i in range(1, datum.rank + 1))
        if basis is not None:
            hat_by_col = read(c1)  # hat-n over the Picard columns
            defects = (  # <hat-n, eta> - ht eta, from the Picard row and weil = ht + 1
                (eta, sum(map(operator.mul, hat_by_col, pic_row)) - (w - 1))
                for eta, pic_row, w in zip(cover, pic.entries, weil)
            )
            failures = tuple((eta, d) for eta, d in defects if d != 1)
        is_q_gor = not failures
        is_gor = is_q_gor and all(x.denominator == 1 for x in hat)
        positive = all(x > 0 for x in hat)
        gor, q_gor = _status(is_gor), _status(is_q_gor)
        fano, q_fano = _status(is_gor and positive), _status(is_q_gor and positive)
        nef = all(x >= 0 for x in hat)
        if not is_q_gor:
            c1 = None
    return ClassificationReport(  # positional, in the order of the fields
        str(datum.cartan_type), inp.parabolic.inside_sorted, word,
        inp.w.length, regime, len(ks), len(cover), sets.support_B, ks,
        inversions, cover,
        pic, q_fact, factorial, evidence, basis, m_matrix, keys, hat,
        gor, q_gor, fano, q_fano, failures, nef, c1, weil, _PROVENANCE[regime],
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
        basis = p_adapt(inp, build_B_wB(inp, sets, reverse_ties=reverse_ties), sets)
    return gorenstein_fano_report(inp, sets, basis)


# --------------------------------------------------------------------------
# serialization


def _frac_str(x) -> str:
    """x in lowest terms; an int, the simply-laced case, skips ``Fraction``
    (the exact type test keeps a bool off that path)."""
    return str(x) if type(x) is int else str(Fraction(x))


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


def report_to_dict(report: ClassificationReport, invariant_factors: bool = True) -> dict:
    """Canonical JSON-ready form of a report; rationals become "p/q" strings.
    The Picard invariant factors, which no verdict reads, are computed here
    unless ``invariant_factors`` is false, as for the classify table, which
    prints none."""
    evidence = dict(report.factorial_evidence)
    if invariant_factors:
        factors = exactlinalg.smith_normal_form(report.picard_matrix.entries)
        evidence["invariant_factors"] = list(factors)
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
        "factorial_evidence": evidence,
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
