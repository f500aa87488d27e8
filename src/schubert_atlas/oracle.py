"""Desk-scale scanners for three reduced-word conjectures, recomputing
from raw definitions.

Lengths are inversion counts of matrices built from the reflection formula
w s_eta = w - (w eta) p^T, and reduced words are enumerated one by one
rather than reasoned about.  Decompositions eta = mu + mu' come from a
plain scan over pairs of inversion coroots, so nothing here reads the
datum's ``parabolic_tables`` or uses the indecomposability logic of
``schubert.cover_coroots``, and nothing is taken from ``schubert``.  One
input is not raw: the Conjecture 3 scan takes its distances from
``weyl.rightmost_distance`` and checks each against the words it scans.
Nothing is slow on purpose: the reduced-word walk builds each step once
per edge of its interval, and keeps the graph on the element, so the three
scans of one element build it once between them; each recount reads an
image's sign off its height alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .errors import InternalError, NotSimplyLacedError
from .rootdata import CorootVec, RootDatum
from .weyl import (
    DEFAULT_WORD_CAP,
    Matrix,
    WeylElement,
    canonical_record,
    canonical_reduced_word,
    iter_reduced_words,
    rightmost_distance,
    support,
)

Word = Tuple[int, ...]


def _count_inversions(datum: RootDatum, matrix: Matrix) -> int:
    # the positive coroots c with M c negative; M c is +-(a positive coroot),
    # so the sign of its height h.c decides, h the column sums of M
    h = tuple(map(sum, zip(*matrix)))
    return sum(sum(map(operator.mul, h, c)) < 0 for c in datum.positive_coroots)


def _length_drop_pairs(
    datum: RootDatum, w: WeylElement
) -> Tuple[Tuple[CorootVec, WeylElement, int], ...]:
    """(eta, w*s_eta, length drop) for every inversion coroot of w.

    s_eta(x) = x - <root(eta), x> eta, so with p = ``datum.pairings[eta]``,
    the pairings <root(eta), alpha_j^vee>, the matrix of s_eta is
    I - eta p^T and that of w s_eta is the rank-one update w - (w eta) p^T."""
    out = []
    for eta in canonical_record(w).inversions:
        p = datum.pairings[eta]
        w_eta = [sum(map(operator.mul, row, eta)) for row in w.matrix]
        matrix = tuple(
            tuple([m - x * q for m, q in zip(row, p)]) for row, x in zip(w.matrix, w_eta)
        )
        u = WeylElement(datum, matrix, _count_inversions(datum, matrix))
        out.append((eta, u, w.length - u.length))
    return tuple(out)


def _pair_decompositions(
    seq: Tuple[CorootVec, ...]
) -> Dict[CorootVec, List[Tuple[CorootVec, CorootVec]]]:
    """{eta: [(mu, mu'), ...]} over every pair mu before mu' in ``seq`` whose
    sum eta is in ``seq`` too: the decomposable inversion coroots of a
    simply-laced type, where every splitting has c = 1."""
    members = set(seq)
    found: Dict[CorootVec, List[Tuple[CorootVec, CorootVec]]] = {}
    for a, mu in enumerate(seq):
        for mu_prime in seq[a + 1:]:
            eta = tuple(map(operator.add, mu, mu_prime))
            if eta in members:
                found.setdefault(eta, []).append((mu, mu_prime))
    return found


@dataclass(frozen=True)
class ConjectureFragment:
    """Per-element result of one conjecture scan.

    ``verified`` means every target was confirmed within the scanned words;
    a truncated scan with leftovers is inconclusive, never a counterexample.
    """

    word: Word
    verified: bool
    counterexamples: Tuple[object, ...]
    manual_review: Tuple[object, ...] = ()
    truncated: bool = False
    words_scanned: int = 0


@dataclass(frozen=True)
class ConjectureReport:
    """Aggregated scan over a group: counterexamples empty and truncated
    False means the conjecture holds on the scanned scope."""

    conjecture: int
    cartan_type: str
    length_cap: Optional[int]
    word_cap: int
    elements_scanned: int
    verified_count: int
    counterexamples: Tuple[object, ...]
    manual_review: Tuple[object, ...] = ()
    truncated: bool = False


def check_order_reversal(
    w: WeylElement, cap: int = DEFAULT_WORD_CAP
) -> ConjectureFragment:
    """Conjecture 1: every decomposable inversion coroot admits *some*
    decomposition whose summands appear in both orders across two reduced
    words (not necessarily every decomposition).  Simply-laced only."""
    if not w.datum.simply_laced:
        raise NotSimplyLacedError("order-reversal scan needs a simply-laced type")
    canon, seq, _, _ = canonical_record(w)
    pairs = _pair_decompositions(seq)
    if not pairs:
        return ConjectureFragment(word=canon, verified=True, counterexamples=())
    orders_seen: Dict[Tuple[CorootVec, CorootVec], Set[bool]] = {}
    unresolved = set(pairs)
    scanned = 0
    truncated = False
    for _, seq in iter_reduced_words(w):
        if scanned >= cap:
            truncated = True
            break
        scanned += 1
        pos = {c: i for i, c in enumerate(seq)}
        for eta in list(unresolved):
            for pair in pairs[eta]:
                orders = orders_seen.setdefault(pair, set())
                orders.add(pos[pair[0]] < pos[pair[1]])
                if len(orders) == 2:
                    unresolved.discard(eta)
                    break
        if not unresolved:
            break
    return ConjectureFragment(
        word=canon,
        verified=not unresolved,
        counterexamples=tuple(sorted(unresolved)) if not truncated else (),
        truncated=truncated and bool(unresolved),
        words_scanned=scanned,
    )


def check_coxeter_deletion(
    w: WeylElement, cap: int = DEFAULT_WORD_CAP
) -> ConjectureFragment:
    """Conjecture 2: every reflection dropping the length by more than one is
    realized by deleting a letter that sits between equal neighbours in some
    reduced word.

    Elements with a target whose deletable letter never appears strictly
    inside any reduced word are recorded for manual review rather than as
    counterexamples.
    """
    datum = w.datum
    canon = canonical_reduced_word(w)
    targets = {eta for eta, _, drop in _length_drop_pairs(datum, w) if drop > 1}
    if not targets:
        return ConjectureFragment(word=canon, verified=True, counterexamples=())
    unresolved = set(targets)
    interior_seen = {eta: False for eta in targets}
    scanned = 0
    truncated = False
    for word, seq in iter_reduced_words(w):
        if scanned >= cap:
            truncated = True
            break
        scanned += 1
        r = len(word)
        # the letter at 1-based position l realizes the coroot seq[r - l]
        for l in range(2, r):
            eta = seq[r - l]
            if eta in targets:
                interior_seen[eta] = True
                if word[l - 2] == word[l]:
                    unresolved.discard(eta)
        if not unresolved:
            break
    manual: Tuple[object, ...] = ()
    counter: Tuple[object, ...] = ()
    if unresolved and not truncated:
        manual = tuple(sorted(e for e in unresolved if not interior_seen[e]))
        counter = tuple(sorted(e for e in unresolved if interior_seen[e]))
    return ConjectureFragment(
        word=canon,
        verified=not unresolved,
        counterexamples=counter,
        manual_review=manual,
        truncated=truncated and bool(unresolved),
        words_scanned=scanned,
    )


def check_rightmost_indecomposable(
    w: WeylElement, cap: int = DEFAULT_WORD_CAP
) -> ConjectureFragment:
    """Conjecture 3: for every support letter k and *every* reduced word
    realizing the minimal rightmost distance, the suffix-transported coroot
    is indecomposable.  Simply-laced only, where the height argument of
    ``weyl.rightmost_distance`` proves it; this scan stays as the brute-force
    check, and checks those distances against the words too."""
    if not w.datum.simply_laced:
        raise NotSimplyLacedError("rightmost scan needs a simply-laced type")
    canon, seq, _, _ = canonical_record(w)
    if w.is_identity:
        return ConjectureFragment(word=canon, verified=True, counterexamples=())
    decomposable = _pair_decompositions(seq)
    distances = {k: rightmost_distance(w, k)[0] for k in support(w)}
    counter: List[object] = []
    seen: Set[int] = set()
    scanned = 0
    truncated = False
    for word, seq in iter_reduced_words(w):
        if scanned >= cap:
            truncated = True
            break
        scanned += 1
        # the distance of the rightmost s_k from the end, the end being 1
        backward = word[::-1]
        for k, d in distances.items():
            rightmost = backward.index(k) + 1
            if rightmost <= d:
                if rightmost < d:
                    raise InternalError(f"{word} has its rightmost s_{k} closer than {d}")
                seen.add(k)
                if seq[d - 1] in decomposable:
                    counter.append((k, word, seq[d - 1]))
    if not truncated and len(seen) < len(distances):
        raise InternalError(f"no reduced word of {canon} reaches {distances}")
    return ConjectureFragment(
        word=canon,
        verified=not counter and not truncated,
        counterexamples=tuple(counter),
        truncated=truncated,
        words_scanned=scanned,
    )
