"""Command-line front end: classify one Schubert variety, survey a flag
variety, or run conjecture scans.

Exit codes: 0 ok, 1 counterexample found, 2 validation error, 3 truncated or
otherwise inconclusive scan, or stdout closed by its reader.  Every input is
checked before the first byte is written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import operator
import os
import sys
from dataclasses import asdict
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Tuple

from . import oracle, schubert, weyl
from .errors import InvalidInputError, NotMinimalCosetRepError, SchubertAtlasError
from .rootdata import RootDatum, build_root_datum
from .schubert import (
    CSV_FIELDS,
    ClassificationReport,
    SchubertInput,
    canonical_json,
    classify,
    csv_row,
    report_to_dict,
    report_conventions,
)
from .weyl import (
    ParabolicSubset,
    coset_counts_by_length,
    element_from_word,
    enumerate_coset_reps,
    min_coset_rep,
    parabolic,
    parse_word,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_MAX_ROWS = 200_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-atlas",
        description="Exact singularity classification of Schubert varieties "
        "X_{w,P} from coroot combinatorics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run, with_word: bool, formats: Tuple[str, ...]) -> None:
        p.set_defaults(run=run)
        p.add_argument("--type", required=True, help="Cartan type, e.g. A4, G2, D5")
        p.add_argument(
            "--parabolic",
            default="",
            help="indices inside the parabolic (I_P), e.g. '4' or '1 3'; "
            "empty means the Borel subgroup",
        )
        if with_word:
            p.add_argument(
                "--word",
                required=True,
                help="simple reflection word for w, applied left to right, "
                "e.g. '3 4 1 2 3'",
            )
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p_classify = sub.add_parser("classify", help="classify a single X_{w,P}")
    common(p_classify, run_classify, with_word=True, formats=("json", "csv", "table"))
    p_classify.add_argument(
        "--coerce",
        action="store_true",
        help="replace w by its minimal coset representative and canonical "
        "reduced word instead of rejecting the input",
    )

    p_survey = sub.add_parser("survey", help="classify every w in W^P up to a length cap")
    common(p_survey, run_survey, with_word=False, formats=("json", "csv", "table"))
    p_survey.add_argument("--max-length", type=int, default=None)
    p_survey.add_argument(
        "--max-rows", type=int, default=DEFAULT_MAX_ROWS,
        help="refuse a survey of more rows than this, counted before "
        f"enumerating (default {DEFAULT_MAX_ROWS})",
    )

    p_conj = sub.add_parser("conjectures", help="run reduced-word conjecture scans")
    common(p_conj, run_conjectures, with_word=False, formats=("json", "table"))
    p_conj.set_defaults(max_rows=DEFAULT_MAX_ROWS)
    p_conj.add_argument("--which", choices=("1", "2", "3", "all"), default="all")
    p_conj.add_argument("--max-length", type=int, default=None)
    p_conj.add_argument(
        "--cap", type=int, default=weyl.DEFAULT_WORD_CAP,
        help="reduced-word enumeration cap per element",
    )
    return parser


@contextlib.contextmanager
def _sink(path: Optional[str]) -> Iterator[TextIO]:
    """Yield stdout, or a temp file beside ``path`` that replaces it in one
    step on success and is removed on any exception, so a reader never sees
    a partial file."""
    if not path:
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe raises here, inside main
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _coset_walk(
    datum: RootDatum, p: ParabolicSubset, args: argparse.Namespace, refusal: str
) -> Tuple[int, Iterator[weyl.WeylElement]]:
    """The length cap and the walk of W^P up to it.  A walk of more than
    --max-rows elements, counted from the Poincare quotient before any is
    built, is refused with ``refusal`` formatted with the count and bound."""
    cap = len(datum.positives) if args.max_length is None else args.max_length
    due = sum(coset_counts_by_length(datum, p)[: cap + 1])
    if due > args.max_rows:
        raise InvalidInputError(refusal.format(due, args.max_rows))
    return cap, enumerate_coset_reps(datum, p, cap)


def _write_csv(out: TextIO, rows: Iterable[dict]) -> None:
    """Write the ``CSV_FIELDS`` header, then each ``csv_row`` dict's values
    in that order."""
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    writer.writerows(map(operator.itemgetter(*CSV_FIELDS), rows))


def _report_table(report: ClassificationReport) -> str:
    doc = schubert.report_to_dict(report, invariant_factors=False)
    lines = []
    order = (
        "cartan_type", "parabolic_inside", "word", "length", "regime",
        "b2", "b_top", "support", "cartier_indices",
        "q_factorial", "factorial", "gorenstein", "q_gorenstein",
        "fano", "q_gorenstein_fano", "nef_anticanonical",
        "hat_n", "anticanonical_weil",
    )
    for key in order:
        lines.append(f"{key}: {doc[key]}")
    lines.append(f"c1: {schubert.c1_pretty(report) or None}")
    lines.append(f"cover_coroots: {doc['cover_coroots']}")
    if doc["m_matrix"] is not None:
        lines.append(f"M rows {doc['m_matrix']['row_labels']}")
        lines.append(f"M cols {doc['m_matrix']['col_labels']}")
        for row in doc["m_matrix"]["entries"]:
            lines.append("  " + " ".join(str(x) for x in row))
        lines.append("N entries")
        for row in doc["n_matrix"]["entries"]:
            lines.append("  " + " ".join(str(x) for x in row))
    return "\n".join(lines)


def run_classify(args: argparse.Namespace, datum: RootDatum) -> int:
    p = parabolic(datum, args.parabolic)
    w = element_from_word(datum, args.word)
    if w.length != len(args.word) and not args.coerce:
        raise InvalidInputError(
            f"word not reduced (length {w.length} != {len(args.word)} letters); "
            "pass --coerce to use the canonical reduced word"
        )
    if args.coerce:
        w = min_coset_rep(w, p)
    try:
        inp = SchubertInput(datum=datum, parabolic=p, w=w)
    except NotMinimalCosetRepError as exc:
        raise InvalidInputError(
            f"w is not a minimal coset representative: alpha_{exc.violating_index} "
            f"(j={exc.violating_index} in I_P) is sent negative; pass --coerce "
            "to project to W^P"
        ) from None
    report = classify(inp)
    with _sink(args.output) as out:
        if args.format == "json":
            doc = report_to_dict(report)
            doc["input_word"] = list(args.word)
            doc["conventions"] = report_conventions(datum)
            out.write(canonical_json(doc) + "\n")
        elif args.format == "csv":
            _write_csv(out, (csv_row(report),))
        else:
            out.write(_report_table(report) + "\n")
    return EXIT_OK


def run_survey(args: argparse.Namespace, datum: RootDatum) -> int:
    p = parabolic(datum, args.parabolic)
    cap, walk = _coset_walk(
        datum, p, args, "the survey has {} rows, more than --max-rows {}; "
        "lower --max-length or raise --max-rows",
    )
    rows = (csv_row(classify(SchubertInput(datum=datum, parabolic=p, w=w))) for w in walk)
    with _sink(args.output) as out:
        if args.format == "json":
            doc = {
                "cartan_type": str(datum.cartan_type),
                "parabolic_inside": list(args.parabolic),
                "max_length": cap,
                "rows": list(rows),
                "conventions": report_conventions(datum),
            }
            out.write(canonical_json(doc) + "\n")
        elif args.format == "csv":
            _write_csv(out, rows)
        else:
            header = ("word", "length", "b2", "b_top", "q_factorial", "factorial",
                      "gorenstein", "fano", "c1")
            out.write("\t".join(header) + "\n")
            for row in rows:
                out.write("\t".join(str(row[h]) for h in header) + "\n")
    return EXIT_OK


_CHECKERS = {
    1: oracle.check_order_reversal,
    2: oracle.check_coxeter_deletion,
    3: oracle.check_rightmost_indecomposable,
}
_SIMPLY_LACED_ONLY = {1, 3}


def run_conjectures(args: argparse.Namespace, datum: RootDatum) -> int:
    if args.parabolic:
        raise InvalidInputError(
            "conjectures scans all of W and takes no --parabolic; leave it empty"
        )
    which = (1, 2, 3) if args.which == "all" else (int(args.which),)
    for c in which:
        if c in _SIMPLY_LACED_ONLY and not datum.simply_laced:
            raise InvalidInputError(f"conjecture {c} is stated for simply-laced types only")
    _, walk = _coset_walk(
        datum, parabolic(datum, ()), args,
        "the scan has {} elements, more than {}; lower --max-length",
    )
    verified = dict.fromkeys(which, 0)
    counter = {c: [] for c in which}
    manual = {c: [] for c in which}
    truncated = dict.fromkeys(which, False)
    scanned = 0
    for w in walk:
        scanned += 1
        for c in which:
            frag = _CHECKERS[c](w, args.cap)
            verified[c] += frag.verified
            counter[c].extend({"word": list(frag.word), "witness": x} for x in frag.counterexamples)
            manual[c].extend({"word": list(frag.word), "witness": x} for x in frag.manual_review)
            truncated[c] = truncated[c] or frag.truncated
        w.graph = None  # the checks of w share its reduced-word graph; free it
    reports = [
        oracle.ConjectureReport(
            conjecture=c,
            cartan_type=str(datum.cartan_type),
            length_cap=args.max_length,
            word_cap=args.cap,
            elements_scanned=scanned,
            verified_count=verified[c],
            counterexamples=tuple(counter[c]),
            manual_review=tuple(manual[c]),
            truncated=truncated[c],
        )
        for c in which
    ]
    with _sink(args.output) as out:
        if args.format == "json":
            out.write(canonical_json({"reports": [asdict(r) for r in reports]}) + "\n")
        else:
            for r in reports:
                status = "verified"
                if r.counterexamples:
                    status = f"COUNTEREXAMPLES: {len(r.counterexamples)}"
                elif r.truncated:
                    status = "inconclusive (truncated)"
                out.write(
                    f"conjecture {r.conjecture} on {r.cartan_type}: "
                    f"{r.verified_count}/{r.elements_scanned} elements, {status}\n"
                )
    if any(r.counterexamples for r in reports):
        return EXIT_COUNTEREXAMPLE
    if any(r.truncated or r.manual_review for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag, low in (("max_length", 0), ("cap", 1), ("max_rows", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise InvalidInputError(
                    f"--{flag.replace('_', '-')} must be at least {low}, got {value}"
                )
        args.parabolic = tuple(sorted(set(parse_word(args.parabolic))))
        args.word = parse_word(getattr(args, "word", ""))
        return args.run(args, build_root_datum(args.type))
    except SchubertAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # The reader closed stdout: point fd 1 at devnull so that the flush
        # at exit cannot fail again (the SIGPIPE recipe of the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
