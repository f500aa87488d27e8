"""Workload definitions for the schubert-atlas benchmark.

Each workload is a fixed list of ``schubert_atlas.cli.main`` argument lists
(one *pass*) plus the checks its outputs must pass.  Nothing here imports the
library: row counts come from Weyl group degrees and the ``classify-e7-long``
words come from this module's own root-system walk, so the program only ever
receives the generated arguments.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import prod
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

DEFAULT_SEED = 1

# sha256 of the stdout bytes of each call, as written at commit 59cf3a6.
SURVEY_DIGESTS = {
    ("D5", ""): "19d694ae50342577e776d00a45bc416a220cc528d89f0191ba563b2fe822d7d8",
    ("F4", ""): "ff6005c117bce86bb815adad9e1bdb7f16f5a2b727646c47cce4c1d7fff40c80",
    ("E6", "1 2 3 4 5"): "1b96ddbb6afab8ef3a342f4ffc2703c19a5bb37ea100d02fea5354240a82cec5",
    ("E6", "2 3 4 5 6"): "aa1907cdd4dd785f28b6dd524979661f03f5213d8f4bf0e64d24794ef63ae3fa",
}
CONJECTURES_D4_DIGEST = "a1412fe16220775daed28517a8c130f444a14c972d2e4a15c1c96421a31893c8"
# sha256 over the 24 classify outputs of ``classify-e7-long`` at DEFAULT_SEED,
# concatenated in call order.
CLASSIFY_E7_DEFAULT_DIGEST = "a134b8f34b73f67b251cb4c290def7a6a30ac1792c08b0c1ed42f36c60c97cb9"

E7_WORD_LENGTH = 16
E7_CALLS = 24
# (low, high, words): rightmost_search_size bands around the quartiles of its
# distribution over random length-16 walks.  The narrow middle band holds the
# 12th and 13th words, so the median call does the same work on every seed.
E7_BANDS = ((60, 95, 6), (95, 125, 5), (125, 136, 2), (136, 205, 5), (205, 300, 6))


# ---------------------------------------------------------------------------
# Dynkin diagrams (Bourbaki numbering) and Weyl group orders


def dynkin_bonds(family: str, rank: int) -> Dict[Tuple[int, int], int]:
    """Edges {(a, b): bond multiplicity} on 1-based nodes, a < b."""
    if family == "D":
        bonds = {(i, i + 1): 1 for i in range(1, rank - 1)}
        bonds[(rank - 2, rank)] = 1
        return bonds
    if family == "E":
        bonds = {(1, 3): 1, (2, 4): 1}
        bonds.update({(i, i + 1): 1 for i in range(3, rank)})
        return bonds
    bonds = {(i, i + 1): 1 for i in range(1, rank)}
    if family in ("B", "C"):
        bonds[(rank - 1, rank)] = 2
    elif family == "F":
        bonds[(2, 3)] = 2
    elif family == "G":
        bonds[(1, 2)] = 3
    return bonds


def simply_laced_cartan(family: str, rank: int) -> List[List[int]]:
    """The symmetric Cartan matrix of a type A, D or E diagram (0-based)."""
    bonds = dynkin_bonds(family, rank)
    if any(m != 1 for m in bonds.values()):
        raise ValueError(f"{family}{rank} is not simply laced")
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in bonds:
        cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
    return cartan


def _component_degrees(nodes: Sequence[int], bonds: Dict[Tuple[int, int], int]) -> List[int]:
    """Degrees of the Weyl group of one connected Dynkin diagram."""
    n = len(nodes)
    edges = {e: m for e, m in bonds.items() if e[0] in nodes and e[1] in nodes}
    valence = {v: sum(v in e for e in edges) for v in nodes}
    multiple = [e for e, m in edges.items() if m > 1]
    if multiple:
        (a, b), m = multiple[0], edges[multiple[0]]
        if m == 3:
            return [2, 6]
        if n == 4 and valence[a] == 2 and valence[b] == 2:
            return [2, 6, 8, 12]
        return [2 * k for k in range(1, n + 1)]
    branch = [v for v in nodes if valence[v] == 3]
    if not branch:
        return list(range(2, n + 2))
    # arm lengths away from the branch node, by walking each neighbour
    arms = []
    for start in (v for e in edges for v in e if branch[0] in e and v != branch[0]):
        prev, cur, length = branch[0], start, 1
        while True:
            nxt = [v for e in edges for v in e if cur in e and v not in (cur, prev)]
            if not nxt:
                break
            prev, cur, length = cur, nxt[0], length + 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return [2 * k for k in range(1, n)] + [n]
    return {
        (1, 2, 2): [2, 5, 6, 8, 9, 12],
        (1, 2, 3): [2, 6, 8, 10, 12, 14, 18],
        (1, 2, 4): [2, 8, 12, 14, 18, 20, 24, 30],
    }[tuple(arms)]


def weyl_order(family: str, rank: int, nodes: Sequence[int]) -> int:
    """|W_J| for the sub-diagram on ``nodes``: product of the degrees of
    each connected component."""
    bonds = dynkin_bonds(family, rank)
    left, order = set(nodes), 1
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            v = todo.pop()
            if v in comp:
                continue
            comp.add(v)
            todo.extend(u for e in bonds for u in e if v in e and u in left)
        left -= comp
        order *= prod(_component_degrees(sorted(comp), bonds))
    return order


def coset_count(cartan_type: str, parabolic: str) -> int:
    """|W^P| = |W| / |W_P|."""
    family, rank = cartan_type[0], int(cartan_type[1:])
    inside = [int(x) for x in parabolic.split()]
    return weyl_order(family, rank, range(1, rank + 1)) // weyl_order(family, rank, inside)


# ---------------------------------------------------------------------------
# Seeded E7 words


Matrix = Tuple[Tuple[int, ...], ...]


def _times_simple(cartan: List[List[int]], m: Matrix, i: int) -> Matrix:
    """w s_i, with w in the simple-root basis (column j is w(alpha_j)):
    column j becomes col_j - <alpha_j, alpha_i^vee> col_i."""
    row_i = cartan[i]
    return tuple(tuple(x - row_i[j] * row[i] for j, x in enumerate(row)) for row in m)


def _right_descents(m: Matrix) -> List[int]:
    """The i with w(alpha_i) negative, i.e. l(w s_i) < l(w)."""
    return [i for i in range(len(m)) if all(row[i] <= 0 for row in m)]


def _support(m: Matrix) -> FrozenSet[int]:
    """Letters of any reduced word of w: left multiplication by s_i only
    changes row i, so these are the rows that differ from the identity."""
    return frozenset(i for i, row in enumerate(m) if any(x != (i == j) for j, x in enumerate(row)))


def random_reduced_word(cartan: List[List[int]], length: int, rng: random.Random):
    """(word, w) for a reduced word drawn by a random walk up the right weak
    order: the letter i may be appended exactly when w(alpha_i) is a
    positive root, which is when l(w s_i) = l(w) + 1."""
    n = len(cartan)
    m: Matrix = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    word = []
    for _ in range(length):
        ascents = [i for i in range(n) if all(row[i] >= 0 for row in m)]
        i = rng.choice(ascents)
        m = _times_simple(cartan, m, i)
        word.append(i + 1)
    return tuple(word), m


def rightmost_search_size(cartan: List[List[int]], w: Matrix) -> int:
    """Elements reached by the search for the rightmost occurrence of each
    s_k in supp(w): from w, peel right descents other than s_k while k stays
    in the support, and stop at each element u with right descent s_k,
    reaching u s_k.  ``classify`` finds a canonical reduced word for each of
    them, so this predicts its work at commit 59cf3a6."""
    reached = {w}
    for k in _support(w):
        seen = set()
        todo = [w]
        while todo:
            el = todo.pop()
            if el in seen:
                continue
            seen.add(el)
            descents = _right_descents(el)
            if k in descents:
                reached.add(_times_simple(cartan, el, k))
                continue
            for i in descents:
                shorter = _times_simple(cartan, el, i)
                reached.add(shorter)
                if k in _support(shorter):
                    todo.append(shorter)
    return len(reached)


def e7_words(seed: int) -> List[Tuple[int, ...]]:
    """E7_CALLS random reduced words of length E7_WORD_LENGTH, stratified by
    rightmost_search_size: walks are drawn until each band of E7_BANDS holds
    its quota, so every seed's pass has nearly the same amount of work."""
    rng = random.Random(seed)
    cartan = simply_laced_cartan("E", 7)
    quota = {(low, high): count for low, high, count in E7_BANDS}
    words = []
    for _ in range(100 * E7_CALLS):
        word, w = random_reduced_word(cartan, E7_WORD_LENGTH, rng)
        size = rightmost_search_size(cartan, w)
        band = next((b for b in quota if b[0] <= size < b[1]), None)
        if band is not None and quota[band]:
            quota[band] -= 1
            words.append(word)
            if len(words) == E7_CALLS:
                return words
    raise RuntimeError("E7 bands not filled; widen E7_BANDS")


# ---------------------------------------------------------------------------
# Workloads


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Call:
    argv: List[str]
    check: Callable[[str], Optional[str]]  # stdout -> problem or None
    rows: int


@dataclass
class Workload:
    name: str
    calls: List[Call]
    # sha256 over all outputs of one pass, when the pass as a whole is pinned
    pass_digest: Optional[str] = None

    @property
    def rows(self) -> int:
        return sum(c.rows for c in self.calls)


def _survey_call(cartan_type: str, parabolic: str) -> Call:
    rows = coset_count(cartan_type, parabolic)
    digest = SURVEY_DIGESTS[(cartan_type, parabolic)]

    def check(out: str) -> Optional[str]:
        got = len(list(csv.DictReader(io.StringIO(out))))
        if got != rows:
            return f"{got} CSV rows, expected |W^P| = {rows}"
        if sha256(out) != digest:
            return f"output sha256 {sha256(out)} != pinned {digest}"
        return None

    argv = ["survey", "--type", cartan_type, "--format", "csv"]
    if parabolic:
        argv += ["--parabolic", parabolic]
    return Call(argv=argv, check=check, rows=rows)


def _conjectures_d4_call() -> Call:
    elements = coset_count("D4", "")

    def check(out: str) -> Optional[str]:
        reports = json.loads(out)["reports"]
        scanned = [r["elements_scanned"] for r in reports]
        if scanned != [elements] * 3:
            return f"elements_scanned {scanned}, expected 3 x |W| = {elements}"
        if sha256(out) != CONJECTURES_D4_DIGEST:
            return f"output sha256 {sha256(out)} != pinned {CONJECTURES_D4_DIGEST}"
        return None

    argv = ["conjectures", "--type", "D4", "--which", "all", "--format", "json"]
    return Call(argv=argv, check=check, rows=3 * elements)


def _classify_e7_call(word: Tuple[int, ...]) -> Call:
    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if doc["input_word"] != list(word) or doc["cartan_type"] != "E7":
            return f"report is not for E7 word {word}"
        if doc["length"] != len(word) or len(doc["word"]) != len(word):
            return f"length {doc['length']}, canonical word {doc['word']}; expected {len(word)}"
        return None

    argv = ["classify", "--type", "E7", "--format", "json", "--word", " ".join(map(str, word))]
    return Call(argv=argv, check=check, rows=1)


def build(name: str, seed: int) -> Workload:
    if name == "survey-borel":
        return Workload(name, [_survey_call("D5", ""), _survey_call("F4", "")])
    if name == "survey-e6-minuscule":
        return Workload(
            name, [_survey_call("E6", "1 2 3 4 5"), _survey_call("E6", "2 3 4 5 6")]
        )
    if name == "classify-e7-long":
        calls = [_classify_e7_call(word) for word in e7_words(seed)]
        pinned = CLASSIFY_E7_DEFAULT_DIGEST if seed == DEFAULT_SEED else None
        return Workload(name, calls, pass_digest=pinned)
    if name == "conjectures-d4":
        return Workload(name, [_conjectures_d4_call()])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("survey-borel", "survey-e6-minuscule", "classify-e7-long", "conjectures-d4")
