"""Command-line front end: classify one Schubert variety, survey a flag
variety, or run conjecture scans.

Exit codes: 0 ok, 1 counterexample found, 2 validation error, 3 truncated or
otherwise inconclusive scan.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from . import oracle, schubert, weyl
from .errors import InvalidInputError, NotMinimalCosetRepError, SchubertAtlasError
from .rootdata import build_root_datum
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


@dataclass
class CliConfig:
    subcommand: str
    type: str
    parabolic: Tuple[int, ...] = ()
    word: Tuple[int, ...] = ()
    max_length: Optional[int] = None
    max_rows: int = DEFAULT_MAX_ROWS
    format: str = "table"
    coerce: bool = False
    which: str = "all"
    cap: int = weyl.DEFAULT_WORD_CAP
    output: Optional[str] = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-atlas",
        description="Exact singularity classification of Schubert varieties "
        "X_{w,P} from coroot combinatorics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_word: bool, formats: Tuple[str, ...]) -> None:
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
    common(p_classify, with_word=True, formats=("json", "csv", "table"))
    p_classify.add_argument(
        "--coerce",
        action="store_true",
        help="replace w by its minimal coset representative and canonical "
        "reduced word instead of rejecting the input",
    )

    p_survey = sub.add_parser("survey", help="classify every w in W^P up to a length cap")
    common(p_survey, with_word=False, formats=("json", "csv", "table"))
    p_survey.add_argument("--max-length", type=int, default=None)
    p_survey.add_argument(
        "--max-rows", type=int, default=DEFAULT_MAX_ROWS,
        help="refuse a survey of more rows than this, counted before "
        f"enumerating (default {DEFAULT_MAX_ROWS})",
    )

    p_conj = sub.add_parser("conjectures", help="run reduced-word conjecture scans")
    common(p_conj, with_word=False, formats=("json", "table"))
    p_conj.add_argument("--which", choices=("1", "2", "3", "all"), default="all")
    p_conj.add_argument("--max-length", type=int, default=None)
    p_conj.add_argument(
        "--cap", type=int, default=weyl.DEFAULT_WORD_CAP,
        help="reduced-word enumeration cap per element",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    max_length = getattr(args, "max_length", None)
    if max_length is not None and max_length < 0:
        raise InvalidInputError(f"--max-length must be at least 0, got {max_length}")
    cap = getattr(args, "cap", weyl.DEFAULT_WORD_CAP)
    if cap < 1:
        raise InvalidInputError(f"--cap must be at least 1, got {cap}")
    max_rows = getattr(args, "max_rows", DEFAULT_MAX_ROWS)
    if max_rows < 1:
        raise InvalidInputError(f"--max-rows must be at least 1, got {max_rows}")
    return CliConfig(
        subcommand=args.subcommand,
        type=args.type,
        parabolic=tuple(sorted(set(parse_word(args.parabolic)))),
        word=parse_word(getattr(args, "word", "") or ""),
        max_length=max_length,
        max_rows=max_rows,
        format=args.format,
        coerce=getattr(args, "coerce", False),
        which=getattr(args, "which", "all"),
        cap=cap,
        output=args.output,
    )


def _emit(cfg: CliConfig, text: str) -> None:
    """Write to stdout, or to --output through a temp file beside it that
    replaces it in one step, so a reader never sees a partial file."""
    if not text.endswith("\n"):
        text += "\n"
    if not cfg.output:
        sys.stdout.write(text)
        return
    tmp = f"{cfg.output}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, cfg.output)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise InvalidInputError(f"cannot write {cfg.output}: {exc.strerror}") from None


def _report_table(report: ClassificationReport) -> str:
    doc = report_to_dict(report)
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


def run_classify(cfg: CliConfig) -> int:
    datum = build_root_datum(cfg.type)
    p = parabolic(datum, cfg.parabolic)
    w = element_from_word(datum, cfg.word)
    if w.length != len(cfg.word):
        if not cfg.coerce:
            print(
                f"error: word not reduced (length {w.length} != {len(cfg.word)} "
                "letters); pass --coerce to use the canonical reduced word",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
    if cfg.coerce:
        w = min_coset_rep(w, p)
    try:
        inp = SchubertInput(datum=datum, parabolic=p, w=w)
    except NotMinimalCosetRepError as exc:
        print(
            f"error: w is not a minimal coset representative: alpha_{exc.violating_index} "
            f"(j={exc.violating_index} in I_P) is sent negative; pass --coerce "
            "to project to W^P",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    report = classify(inp)
    if cfg.format == "json":
        doc = report_to_dict(report)
        doc["input_word"] = list(cfg.word)
        doc["conventions"] = report_conventions(datum)
        _emit(cfg, canonical_json(doc))
    elif cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerow(csv_row(report))
        _emit(cfg, buf.getvalue())
    else:
        _emit(cfg, _report_table(report))
    return EXIT_OK


def run_survey(cfg: CliConfig) -> int:
    datum = build_root_datum(cfg.type)
    p = parabolic(datum, cfg.parabolic)
    cap = cfg.max_length
    if cap is None:
        cap = len(datum.positives)
    rows_due = sum(coset_counts_by_length(datum, p)[: cap + 1])
    if rows_due > cfg.max_rows:
        print(
            f"error: the survey has {rows_due} rows, more than --max-rows "
            f"{cfg.max_rows}; lower --max-length or raise --max-rows",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    rows = [
        csv_row(classify(SchubertInput(datum=datum, parabolic=p, w=w)))
        for w in enumerate_coset_reps(datum, p, cap)
    ]
    if cfg.format == "json":
        doc = {
            "cartan_type": str(datum.cartan_type),
            "parabolic_inside": list(cfg.parabolic),
            "max_length": cap,
            "rows": rows,
            "conventions": report_conventions(datum),
        }
        _emit(cfg, canonical_json(doc))
    elif cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
        _emit(cfg, buf.getvalue())
    else:
        header = ("word", "length", "b2", "b_top", "q_factorial", "factorial",
                  "gorenstein", "fano", "c1")
        lines = ["\t".join(header)]
        for row in rows:
            lines.append("\t".join(str(row[h]) for h in header))
        _emit(cfg, "\n".join(lines))
    return EXIT_OK


_CHECKERS = {
    1: oracle.check_order_reversal,
    2: oracle.check_coxeter_deletion,
    3: oracle.check_rightmost_indecomposable,
}
_SIMPLY_LACED_ONLY = {1, 3}


def run_conjectures(cfg: CliConfig) -> int:
    datum = build_root_datum(cfg.type)
    which = (1, 2, 3) if cfg.which == "all" else (int(cfg.which),)
    for c in which:
        if c in _SIMPLY_LACED_ONLY and not datum.simply_laced:
            print(
                f"error: conjecture {c} is stated for simply-laced types only",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
    cap = cfg.max_length
    if cap is None:
        cap = len(datum.positives)
    borel = parabolic(datum, ())
    due = sum(coset_counts_by_length(datum, borel)[: cap + 1])
    if due > cfg.max_rows:
        print(
            f"error: the scan has {due} elements, more than {cfg.max_rows}; "
            "lower --max-length",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    elements = list(enumerate_coset_reps(datum, borel, cap))
    reports = []
    for c in which:
        checker = _CHECKERS[c]
        counter: List[object] = []
        manual: List[object] = []
        truncated = False
        verified = 0
        for w in elements:
            frag = checker(w, cfg.cap)
            if frag.verified:
                verified += 1
            counter.extend(
                {"word": list(frag.word), "witness": x}
                for x in frag.counterexamples
            )
            manual.extend(
                {"word": list(frag.word), "witness": x}
                for x in frag.manual_review
            )
            truncated = truncated or frag.truncated
        reports.append(
            oracle.ConjectureReport(
                conjecture=c,
                cartan_type=str(datum.cartan_type),
                length_cap=cfg.max_length,
                word_cap=cfg.cap,
                elements_scanned=len(elements),
                verified_count=verified,
                counterexamples=tuple(counter),
                manual_review=tuple(manual),
                truncated=truncated,
            )
        )
    if cfg.format == "json":
        _emit(cfg, canonical_json({"reports": [asdict(r) for r in reports]}))
    else:
        lines = []
        for r in reports:
            status = "verified"
            if r.counterexamples:
                status = f"COUNTEREXAMPLES: {len(r.counterexamples)}"
            elif r.truncated:
                status = "inconclusive (truncated)"
            lines.append(
                f"conjecture {r.conjecture} on {r.cartan_type}: "
                f"{r.verified_count}/{r.elements_scanned} elements, {status}"
            )
        _emit(cfg, "\n".join(lines))
    if any(r.counterexamples for r in reports):
        return EXIT_COUNTEREXAMPLE
    if any(r.truncated or r.manual_review for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.subcommand == "classify":
            return run_classify(cfg)
        if cfg.subcommand == "survey":
            return run_survey(cfg)
        return run_conjectures(cfg)
    except SchubertAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
