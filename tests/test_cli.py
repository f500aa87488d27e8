import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_atlas import cli, exactlinalg, schubert, weyl
from schubert_atlas.errors import InternalError

from helpers import coset_length_counts, csv_reference


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_g2(capsys):
    code, out, err = run(
        capsys, "classify", "--type", "G2", "--word", "2 1 2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["factorial"] is False
    assert doc["q_factorial"] is True
    assert doc["c1"] == ["2/3", "2"]
    assert doc["gorenstein"] == "no"
    assert doc["q_gorenstein_fano"] == "yes"
    assert doc["input_word"] == [2, 1, 2]
    assert doc["conventions"]["cartan_matrix"] == [[2, -1], [-3, 2]]


def test_classify_json_round_trip_bytes(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "A4", "--parabolic", "4",
        "--word", "3 4 1 2 3", "--format", "json",
    )
    assert code == 0
    assert schubert.canonical_json(json.loads(out)) + "\n" == out


def test_classify_a4_parabolic(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "A4", "--parabolic", "4",
        "--word", "3 4 1 2 3", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["gorenstein"] == "yes"
    assert doc["fano"] == "no"
    assert doc["hat_n"] == {"3": "3", "2": "1", "1": "0"}


def test_classify_a1_projective_line(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "A1", "--word", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c1"] == ["2"]
    assert doc["fano"] == "yes"


def test_classify_rejects_non_reduced_word(capsys):
    code, _, err = run(capsys, "classify", "--type", "A2", "--word", "1 1")
    assert code == 2
    assert "word not reduced" in err


def test_classify_rejects_non_reduced_words_by_length(capsys):
    """Without --coerce, a word whose length counted on reading falls short
    of its letter count exits 2 and names both."""
    cases = [
        ("E7", "1 3 1 3", 2),
        ("B3", "3 2 3 2 3", 3),
        ("G2", "1 2 1 2 1 2 1", 5),
        ("D5", "2 3 2 4 4", 3),
    ]
    for type_str, word, length in cases:
        code, out, err = run(capsys, "classify", "--type", type_str, "--word", word)
        assert (code, out) == (2, ""), (type_str, word)
        assert f"length {length} != {len(word.split())} letters" in err


def test_classify_rejects_non_minimal_rep_naming_index(capsys):
    code, _, err = run(
        capsys, "classify", "--type", "A2", "--parabolic", "2", "--word", "1 2 1"
    )
    assert code == 2
    assert "alpha_2" in err


def test_classify_coerce(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "A2", "--parabolic", "2",
        "--word", "1 2 1", "--coerce", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [2, 1]
    assert doc["length"] == 2


def test_classify_coerce_non_reduced(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "A2", "--word", "1 1 2",
        "--coerce", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["word"] == [2]


def test_classify_invalid_type_is_validation_error(capsys):
    code, _, err = run(capsys, "classify", "--type", "Q9", "--word", "1")
    assert code == 2
    assert "error" in err


def test_types_larger_than_e8_are_refused_before_building(capsys):
    """A1000 has 500,500 positive roots: refused at once, with one error line
    and nothing on stdout.  A15 has 120, as many as E8, and still builds."""
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--type", "A1000", "--word", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: A1000 has 500500 positive roots; types with more than 120 "
        "(as many as E8) are not supported\n"
    )
    code, out, err = run(capsys, "classify", "--type", "A15", "--word", "1", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["cartan_type"] == "A15"


def test_classify_table_and_csv_formats(capsys):
    code, out, _ = run(capsys, "classify", "--type", "G2", "--word", "2 1")
    assert code == 0
    assert "c1: 2*w1 - w2" in out
    code, out, _ = run(
        capsys, "classify", "--type", "G2", "--word", "2 1", "--format", "csv"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["fano"] == "no"


def test_classify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "classify", "--type", "A1", "--word", "1",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["c1"] == ["2"]


def test_output_write_failure_is_validation_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "survey", "--type", "A2", "--format", "csv",
        "--output", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_output_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "survey", "--type", "A2", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]
    assert len(target.read_text().splitlines()) == 7
    # replacing a directory fails after the temp file is written
    (tmp_path / "taken").mkdir()
    code, _, err = run(
        capsys, "survey", "--type", "A2", "--output", str(tmp_path / "taken")
    )
    assert code == 2 and err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "taken"]


@pytest.mark.parametrize("exc", [InternalError("boom"), KeyboardInterrupt()],
                         ids=["internal-error", "keyboard-interrupt"])
def test_failure_mid_survey_leaves_no_file(exc, tmp_path, capsys, monkeypatch):
    """A survey to --output that fails on its 5th row leaves neither the
    target nor the temp file: a SchubertAtlasError exits 2 with one error
    line, and anything else propagates."""
    calls = []

    def classify(inp):
        calls.append(inp)
        if len(calls) == 5:
            raise exc
        return schubert.classify(inp)

    monkeypatch.setattr(cli, "classify", classify)
    argv = ("survey", "--type", "A3", "--format", "csv", "--output", str(tmp_path / "out"))
    if isinstance(exc, InternalError):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: boom\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            cli.main(list(argv))
    assert list(tmp_path.iterdir()) == []


def test_survey_rows_stream_as_they_are_classified(monkeypatch):
    """Survey CSV rows reach stdout while later elements are still being
    classified, not after the last one."""
    out, written = io.StringIO(), []

    def classify(inp):
        written.append(out.tell())
        return schubert.classify(inp)

    monkeypatch.setattr(cli, "classify", classify)
    with contextlib.redirect_stdout(out):
        assert cli.main(["survey", "--type", "A3", "--format", "csv"]) == 0
    assert len(written) == 24
    header = len(",".join(schubert.CSV_FIELDS)) + 2
    assert written[0] == header and written[-1] > header, written


def test_survey_rows_do_no_work_they_do_not_read(capsys, monkeypatch):
    """Survey rows are CSV rows in every format: they hold no invariant
    factors and no adapted basis over letters of I_P, so no Smith normal
    form and no rightmost walk for such a letter runs, and the bytes are
    those of an unpatched run."""
    argv = ("survey", "--type", "E6", "--parabolic", "1 2 3 4 5", "--format")
    formats = ("csv", "json", "table")
    expected = {fmt: run(capsys, *argv, fmt) for fmt in formats}

    def refuse(m):
        raise AssertionError("a survey row ran the Smith normal form")

    walk, letters = schubert.rightmost_distance, set()

    def record(w, k, *args, **kwargs):
        letters.add(k)
        return walk(w, k, *args, **kwargs)

    monkeypatch.setattr(exactlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(schubert, "rightmost_distance", record)
    for fmt in formats:
        assert run(capsys, *argv, fmt) == expected[fmt], fmt
    assert letters == {6}


def test_classify_table_runs_no_smith_normal_form(capsys, monkeypatch):
    """The classify table prints no invariant factors, so it computes none:
    its bytes are those of an unpatched run with the Smith normal form
    refused."""
    argv = ("classify", "--type", "A4", "--word", "3 4 1 2 3", "--format", "table")
    expected = run(capsys, *argv)

    def refuse(m):
        raise AssertionError("the classify table ran the Smith normal form")

    monkeypatch.setattr(exactlinalg, "smith_normal_form", refuse)
    assert run(capsys, *argv) == expected


def test_survey_rows_build_no_inverse(capsys, monkeypatch):
    """Survey rows hold no N = M^-1, so hat-n is solved without one: with
    both inverses refused, simply-laced surveys in every format and a
    Q-factorial one write the bytes of an unpatched run."""
    cases = [("survey", "--type", "D4", "--format", f) for f in ("json", "csv", "table")]
    cases.append(("survey", "--type", "F4", "--format", "csv"))
    expected = [run(capsys, *argv) for argv in cases]

    def refuse(m):
        raise AssertionError("a survey row built N = M^-1")

    monkeypatch.setattr(exactlinalg, "invert_unimodular", refuse)
    monkeypatch.setattr(exactlinalg, "inverse_rational", refuse)
    assert [run(capsys, *argv) for argv in cases] == expected


def test_borel_survey_checks_each_adapted_basis_once(capsys, monkeypatch):
    """Each ``AdaptedBasis`` checks its unipotent lower-triangular shape as
    it is built, ``build_B_wB`` builds one per row and with P = B
    ``p_adapt`` moves nothing and builds none, so a D5 Borel survey runs
    the check once per row (1,920 times) and writes the bytes of an
    unpatched run."""
    argv = ("survey", "--type", "D5", "--format", "csv")
    expected = run(capsys, *argv)
    calls = []
    check = schubert._assert_unipotent_lower

    def counted(basis):
        calls.append(basis)
        return check(basis)

    monkeypatch.setattr(schubert, "_assert_unipotent_lower", counted)
    assert run(capsys, *argv) == expected
    assert len(calls) == 1920


@pytest.mark.parametrize(
    "argv, inverses",
    [
        (("--type", "A4", "--word", "3 4 1 2 3"), ["invert_unimodular"]),
        (("--type", "G2", "--word", "2 1 2"), ["inverse_rational"]),
        (("--type", "G2", "--word", ""), []),
    ],
    ids=["simply-laced", "q-factorial", "point"],
)
def test_classify_json_builds_n_once(argv, inverses, capsys, monkeypatch):
    """A written report builds N once, by the inverse of its regime; the
    point report has no M and builds none."""
    argv = ("classify", *argv, "--format", "json")
    expected = run(capsys, *argv)
    calls = []
    for name in ("invert_unimodular", "inverse_rational"):

        def counted(m, name=name, inverse=getattr(exactlinalg, name)):
            calls.append(name)
            return inverse(m)

        monkeypatch.setattr(exactlinalg, name, counted)
    assert run(capsys, *argv) == expected
    assert calls == inverses


def test_closed_stdout_pipe_exits_inconclusive():
    """A reader that closes the pipe after one line ends the survey with exit
    3 and no traceback, long before the D5 survey would finish."""
    src = str(Path(cli.__file__).resolve().parents[1])
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "schubert_atlas.cli", "survey", "--type", "D5",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        assert proc.stdout.readline().decode().rstrip() == ",".join(schubert.CSV_FIELDS)
        proc.stdout.close()
        assert proc.wait(timeout=10) == 3
        err = proc.stderr.read().decode()
    assert "Traceback" not in err, err
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "args",
    [
        ("classify", "--type", "A2", "--word", "1 x"),
        ("classify", "--type", "A2", "--word", "1", "--parabolic", "1 x"),
    ],
    ids=["word", "parabolic"],
)
def test_malformed_numbers_are_validation_errors(args, capsys):
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == "error: '1 x' is not a list of integers\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (("survey", "--max-length", "-1"), "--max-length must be at least 0, got -1"),
        (("conjectures", "--max-length", "-2"), "--max-length must be at least 0, got -2"),
        (("conjectures", "--cap", "0"), "--cap must be at least 1, got 0"),
        (("survey", "--max-rows", "0"), "--max-rows must be at least 1, got 0"),
    ],
    ids=["survey-max-length", "conjectures-max-length", "conjectures-cap",
         "survey-max-rows"],
)
def test_out_of_range_bounds_are_validation_errors(args, message, capsys):
    code, out, err = run(capsys, *args[:1], "--type", "A3", *args[1:])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_zero_bounds_are_accepted(capsys):
    rows = _survey_rows(capsys, "--type", "A3", "--max-length", "0")
    assert [r["length"] for r in rows] == ["0"]
    code, _, _ = run(
        capsys, "conjectures", "--type", "A3", "--which", "2", "--max-length", "0",
        "--cap", "1",
    )
    assert code == 0


# --- survey ----------------------------------------------------------------


def _survey_rows(capsys, *args):
    code, out, _ = run(capsys, "survey", "--format", "csv", *args)
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


def test_survey_g2_borel_non_factorial_list(capsys):
    rows = _survey_rows(capsys, "--type", "G2")
    assert len(rows) == 12
    bad = {r["word"] for r in rows if r["factorial"] == "False"}
    assert bad == {"2 1 2", "1 2 1 2", "2 1 2 1", "2 1 2 1 2"}


def test_survey_g2_grassmannians_non_factorial_lists(capsys):
    rows = _survey_rows(capsys, "--type", "G2", "--parabolic", "2")
    assert {r["word"] for r in rows if r["factorial"] == "False"} == {
        "2 1",
        "1 2 1",
        "2 1 2 1",
    }
    rows = _survey_rows(capsys, "--type", "G2", "--parabolic", "1")
    assert {r["word"] for r in rows if r["factorial"] == "False"} == {"2 1 2"}


def test_survey_a1(capsys):
    rows = _survey_rows(capsys, "--type", "A1")
    assert len(rows) == 2  # identity point row plus the single reflection
    assert sum(r["length"] != "0" for r in rows) == 1


@pytest.mark.parametrize(
    "type_str,inside", [("A2", ""), ("A3", "2"), ("B2", ""), ("B3", "1 3")]
)
def test_survey_counts_match_poincare_quotient(type_str, inside, capsys, datum):
    rows = _survey_rows(
        capsys, "--type", type_str, "--parabolic", inside
    )
    d = datum(type_str)
    expected = coset_length_counts(d, [int(x) for x in inside.split()])
    by_len = {}
    for r in rows:
        by_len[int(r["length"])] = by_len.get(int(r["length"]), 0) + 1
    assert by_len == {i: c for i, c in enumerate(expected) if c}


def test_survey_max_length(capsys):
    rows = _survey_rows(capsys, "--type", "A3", "--max-length", "2")
    assert {int(r["length"]) for r in rows} == {0, 1, 2}


def test_survey_size_guard_refuses_before_enumerating(capsys):
    """E7/P7 has 1,451,520 rows: refused at once, with nothing on stdout."""
    start = time.perf_counter()
    code, out, err = run(capsys, "survey", "--type", "E7", "--parabolic", "7")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: the survey has 1451520 rows, more than --max-rows 200000; "
        "lower --max-length or raise --max-rows\n"
    )


def test_survey_size_guard_counts_truncated_rows(capsys):
    """The bound is inclusive and counts only rows up to --max-length: A3
    has 24 rows, 1 + 3 + 5 of them of length at most 2."""
    assert len(_survey_rows(capsys, "--type", "A3", "--max-rows", "24")) == 24
    code, out, _ = run(capsys, "survey", "--type", "A3", "--max-rows", "23")
    assert (code, out) == (2, "")
    rows = _survey_rows(
        capsys, "--type", "A3", "--max-length", "2", "--max-rows", "9"
    )
    assert len(rows) == 9


def test_survey_size_guard_admits_full_e6_borel(capsys, monkeypatch):
    """The 51,840-row E6 Borel survey passes the default bound; the walk is
    stubbed out, so only the header is written."""
    walks = []
    monkeypatch.setattr(
        cli, "enumerate_coset_reps", lambda *args: walks.append(args) or iter(())
    )
    code, out, err = run(capsys, "survey", "--type", "E6", "--format", "csv")
    assert (code, err, len(walks)) == (0, "", 1)
    assert out.splitlines() == [",".join(schubert.CSV_FIELDS)]


def test_survey_memo_tables_stay_within_the_positive_system(capsys, monkeypatch):
    """A D5 Borel survey (1,920 elements), an E6/P{6} survey, an E7
    ``classify`` and a D4 ``conjectures`` run leave every attribute of their
    root data but ``parabolic_tables`` the object ``build_root_datum`` made,
    with the value it had: per-element records live on the elements, and
    the datum fills no table lazily but its one cache.  The Borel data's
    ``parabolic_tables`` stay empty; the E6/P{6} one holds exactly one
    table, with one entry per positive coroot in each of its tuples."""
    build, built = cli.build_root_datum, []

    def build_and_snapshot(ct):
        d = build(ct)
        built.append((d, {name: (value, copy.deepcopy(value)) for name, value in vars(d).items()}))
        return d

    monkeypatch.setattr(cli, "build_root_datum", build_and_snapshot)
    assert len(_survey_rows(capsys, "--type", "D5")) == 1920
    assert len(_survey_rows(capsys, "--type", "E6", "--parabolic", "1 2 3 4 5")) == 27
    word = "1 3 4 2 5 4 3 1 6 5 4 2 3 4 5 6"
    assert run(capsys, "classify", "--type", "E7", "--word", word)[0] == 0
    assert run(capsys, "conjectures", "--type", "D4", "--format", "json")[0] == 0
    for d, snapshot in built:
        assert vars(d).keys() == snapshot.keys(), d.cartan_type
        for name, (value, copied) in snapshot.items():
            if name != "parabolic_tables":
                assert vars(d)[name] is value and value == copied, (d.cartan_type, name)
    d5, e6, e7, d4 = (d for d, _ in built)
    assert not d5.parabolic_tables and not e7.parabolic_tables and not d4.parabolic_tables
    (table,) = e6.parabolic_tables.values()
    assert len(table.blocked) == len(table.steps) == len(e6.positives)


def test_survey_json_header_names_parsed_type(capsys):
    """The header names the parsed type, as the rows do, not the raw
    --type text."""
    code, out, _ = run(capsys, "survey", "--type", " a2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["cartan_type"] == "A2"
    assert {row["cartan_type"] for row in doc["rows"]} == {"A2"}


def test_survey_json_round_trip(capsys):
    code, out, _ = run(capsys, "survey", "--type", "A2", "--format", "json")
    assert code == 0
    assert schubert.canonical_json(json.loads(out)) + "\n" == out


def test_cli_import_loads_no_process_pool():
    """Surveys run in one process, so importing the CLI in a fresh
    interpreter loads no concurrent.futures or multiprocessing module."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, schubert_atlas.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == "[]\n"


_A4_PARABOLICS = [
    " ".join(map(str, inside))
    for n in range(5)
    for inside in itertools.combinations(range(1, 5), n)
]


@pytest.mark.parametrize(
    "argv",
    [("survey", "--type", "A4", "--parabolic", inside) for inside in _A4_PARABOLICS]
    + [("survey", "--type", t) for t in ("B3", "C3", "G2", "D4")]
    + [("classify", "--type", "G2", "--word", "2 1 2")],
    ids=[f"survey-A4-P{inside.replace(' ', '')}" for inside in _A4_PARABOLICS]
    + [f"survey-{t}" for t in ("B3", "C3", "G2", "D4")] + ["classify-G2"],
)
def test_csv_matches_dict_writer(argv, capsys, monkeypatch):
    """CSV output writes each ``csv_row`` dict's values by position in
    ``CSV_FIELDS`` order; its bytes equal ``csv.DictWriter``'s, which looks
    each field up by name, fed the same dicts."""
    rows = []
    monkeypatch.setattr(
        cli, "csv_row", lambda report: rows.append(schubert.csv_row(report)) or rows[-1]
    )
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and rows
    assert out == csv_reference(rows)


# --- conjectures --------------------------------------------------------------


def test_conjectures_a3_which_2(capsys):
    code, out, _ = run(
        capsys, "conjectures", "--type", "A3", "--which", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    (rep,) = doc["reports"]
    assert rep["counterexamples"] == []
    assert rep["truncated"] is False
    assert rep["verified_count"] == rep["elements_scanned"] == 24


def test_conjectures_a2_which_1(capsys):
    code, out, _ = run(
        capsys, "conjectures", "--type", "A2", "--which", "1", "--format", "json"
    )
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["verified_count"] == 6


def test_conjectures_rejects_non_simply_laced_for_1_and_3(capsys):
    code, _, err = run(capsys, "conjectures", "--type", "B3", "--which", "1")
    assert code == 2
    assert "simply-laced" in err


def test_conjectures_b3_deletion_counterexample(capsys):
    """The deletion conjecture fails in B3: one length-6 element has only two
    reduced words and its triple-drop reflection never deletes between equal
    neighbours; the scan must surface it and exit 1."""
    code, out, _ = run(
        capsys, "conjectures", "--type", "B3", "--which", "2", "--format", "json"
    )
    assert code == 1
    (rep,) = json.loads(out)["reports"]
    assert rep["verified_count"] == rep["elements_scanned"] - 1
    (ce,) = rep["counterexamples"]
    assert ce["word"] == [3, 2, 1, 3, 2, 3]
    assert ce["witness"] == [1, 1, 1]


def test_conjectures_truncation_exit_code(capsys):
    code, out, _ = run(
        capsys, "conjectures", "--type", "A3", "--which", "1",
        "--cap", "1", "--format", "json",
    )
    assert code == 3
    (rep,) = json.loads(out)["reports"]
    assert rep["truncated"] is True


def _conjecture_reports(capsys, *args):
    code, out, err = run(capsys, "conjectures", *args, "--format", "json")
    assert err == ""
    return json.loads(out)["reports"]


@pytest.mark.parametrize("cap", [None, "3"], ids=["uncapped", "cap-3"])
@pytest.mark.parametrize("type_str", ["A4", "D4"])
def test_conjecture_scans_are_independent(type_str, cap, capsys):
    """The three scans of one element share its reduced-word graph, yet
    ``--which all`` gives the three reports that each scan gives alone.
    Under ``--cap 3`` a scan that stops early leaves a half-built graph for
    the next one."""
    args = ("--type", type_str) + (("--cap", cap) if cap else ())
    alone = [
        report
        for which in ("1", "2", "3")
        for report in _conjecture_reports(capsys, *args, "--which", which)
    ]
    assert _conjecture_reports(capsys, *args, "--which", "all") == alone
    assert [r["conjecture"] for r in alone] == [1, 2, 3]
    if cap:
        assert any(r["truncated"] for r in alone)


def test_conjectures_release_each_graph(capsys, monkeypatch):
    """A D4 scan holds one element's reduced-word graph at a time: when
    the coset walk yields the next element, none yielded before holds a
    graph, nor does any after the run.  The kernel runs 6,099 times, once
    per edge of the 192 intervals: ``rightmost_distance`` builds no
    product, ties included."""
    enumerate_coset_reps, yielded = cli.enumerate_coset_reps, []

    def walk(*args):
        for w in enumerate_coset_reps(*args):
            assert all(u.graph is None for u in yielded)
            yielded.append(w)
            yield w

    monkeypatch.setattr(cli, "enumerate_coset_reps", walk)
    calls = []
    real = weyl._times_simple
    monkeypatch.setattr(
        weyl, "_times_simple", lambda *args: calls.append(None) or real(*args)
    )
    reports = _conjecture_reports(capsys, "--type", "D4", "--which", "all")
    assert [r["elements_scanned"] for r in reports] == [192] * 3
    assert len(yielded) == 192
    assert all(w.graph is None for w in yielded)
    assert len(calls) == 6099


def test_conjectures_size_guard_refuses_before_enumerating(capsys, monkeypatch):
    """All of E8 is 696,729,600 elements: refused by count, with the walk
    never started and nothing on stdout."""
    monkeypatch.setattr(cli, "enumerate_coset_reps", lambda *args: pytest.fail("walked"))
    start = time.perf_counter()
    code, out, err = run(capsys, "conjectures", "--type", "E8")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: the scan has 696729600 elements, more than 200000; lower --max-length\n"
    )


def test_conjectures_table_format(capsys):
    code, out, _ = run(capsys, "conjectures", "--type", "A2", "--which", "all")
    assert code == 0
    assert "conjecture 1" in out and "verified" in out


def test_conjectures_refuses_csv_format(capsys):
    """``conjectures`` writes JSON or a table only: ``--format csv`` is an
    argparse error, with one error line and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["conjectures", "--type", "A2", "--format", "csv"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    (line,) = [x for x in out.err.splitlines() if "error:" in x]
    assert "--format" in line and "'csv'" in line


@pytest.mark.parametrize("inside", ["9", "1", "1 3"])
def test_conjectures_refuses_parabolic(inside, tmp_path, capsys, monkeypatch):
    """The scans walk all of W, so a non-empty --parabolic, in range or
    not, is refused before anything is enumerated: exit 2, one error line,
    nothing on stdout and no --output file.  An empty one is the Borel."""
    monkeypatch.setattr(cli, "enumerate_coset_reps", lambda *args: pytest.fail("walked"))
    for output in ((), ("--output", str(tmp_path / "out"))):
        code, out, err = run(
            capsys, "conjectures", "--type", "A3", "--parabolic", inside, "--which", "2",
            *output,
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error:") and "--parabolic" in line
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert run(capsys, "conjectures", "--type", "A3", "--parabolic", " ", "--which", "2")[0] == 0


# --- the whole CLI, fuzzed -----------------------------------------------------

_FUZZ_TYPES = (
    "A1", "A3", "b3", "C3", "D4", "G2", "F4", "E6",
    "E9", "A0", "B1", "D3", "G3", "Q2", "A", "", "A1000",
)
_index = st.integers(-1, 9) | st.sampled_from([10**20])
_index_text = st.one_of(
    st.tuples(st.sampled_from((" ", ",")), st.lists(_index, max_size=8)).map(
        lambda t: t[0].join(map(str, t[1]))
    ),
    st.sampled_from(("1 x", "\uff11 \uff12", " , ", "1,,2")),
)


@st.composite
def _cli_call(draw):
    """(argv, format, --output relative to a fresh directory or None)."""
    sub = draw(st.sampled_from(("classify", "survey", "conjectures")))
    fmt = draw(st.sampled_from(("json", "csv", "table")))
    argv = [sub, "--type", draw(st.sampled_from(_FUZZ_TYPES)), "--format", fmt]
    if draw(st.booleans()):
        argv += ["--parabolic", draw(_index_text)]
    if sub == "classify":
        argv += ["--word", draw(_index_text)]
        if draw(st.booleans()):
            argv.append("--coerce")
    else:
        argv += ["--max-length", str(draw(st.integers(0, 3)))]
    if sub == "survey" and draw(st.booleans()):
        argv += ["--max-rows", draw(st.sampled_from(("0", "5", "200000")))]
    if sub == "conjectures":
        argv += ["--which", draw(st.sampled_from(("1", "2", "3", "all")))]
        argv += ["--cap", draw(st.sampled_from(("0", "1", "50")))]
    return argv, fmt, draw(st.sampled_from((None, "out", "missing/out", ".")))


@settings(deadline=None, max_examples=150)
@example((["conjectures", "--type", "A2", "--format", "csv", "--max-length", "1",
           "--which", "all", "--cap", "50"], "csv", None))
@given(_cli_call())
def test_cli_contract_under_fuzzed_argv(call):
    """Any argv from the grammar exits 0, 1, 2 or 3 (argparse's SystemExit(2)
    counts as 2) and raises nothing else.  Exit 2 leaves stdout empty, writes
    exactly one ``error:`` line and no file; any other exit writes its output
    to stdout or --output alone, JSON that parses or CSV under the
    ``CSV_FIELDS`` header."""
    argv, fmt, target = call
    with tempfile.TemporaryDirectory() as tmp:
        if target is not None:
            target = os.path.join(tmp, target)
            argv = argv + ["--output", target]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 2:
            assert out == "", argv
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            assert os.listdir(tmp) == [], argv
            return
        if target is not None:
            assert out == "", argv
            out = Path(target).read_text()
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        assert out.splitlines()[0] == ",".join(schubert.CSV_FIELDS), (argv, out)


# --- golden bytes ---------------------------------------------------------------

_E7_WORD = "7 6 5 4 3 2 4 5 6 7 1 3 4 5 6 7 7 2 4 3 1 5 4 2 3 4 6 5 7"


@pytest.mark.parametrize(
    "args, code, digest",
    [
        (("conjectures", "--type", "A4", "--which", "all"), 0,
         "7779a2d8e3eba00fd7ab9a3f81273cbe7d54dc980996058f7c5894cc4d3b9945"),
        # the same digest perfbench pins for conjectures-d4
        (("conjectures", "--type", "D4", "--which", "all"), 0,
         "a1412fe16220775daed28517a8c130f444a14c972d2e4a15c1c96421a31893c8"),
        (("conjectures", "--type", "D4", "--which", "3", "--cap", "3"), 3,
         "03c4257d9715367b3a866d746075aea7250ca7bf9c79aa48c9bb0abde64228e7"),
        (("conjectures", "--type", "B3", "--which", "2"), 1,
         "f009d3dc125db5649520dde5eaf5d3650bca4176484a73fff5cef0cde3dfc316"),
        (("survey", "--type", "D4"), 0,
         "2bf5ef409ede9100e589552a5888a0521a4f6929eb3782d050226568508fdf5f"),
        (("survey", "--type", "B3"), 0,
         "b93424b15096e4b904017936c855e3136499fedad632936e5a7c1f4cb5190853"),
        (("survey", "--type", "E6", "--parabolic", "1 6", "--max-length", "6"), 0,
         "36bc6169d1225e9c62fcd76a881e8d4f6f484d4a9c14e60a26bb58a472c0956f"),
        (("classify", "--type", "E7", "--parabolic", "7", "--word", _E7_WORD,
          "--coerce"), 0,
         "da78b4c57ba1f7aab2c32fe20f3de4306348a19e6c82c1363f231723aae18571"),
        (("survey", "--type", "G2"), 0,
         "9068194d1b177581e0a458eac44fbb920af6542e13dfd0ab1fddd6262dad0c02"),
        # the same digest perfbench pins for its F4 call
        (("survey", "--type", "F4", "--format", "csv"), 0,
         "ff6005c117bce86bb815adad9e1bdb7f16f5a2b727646c47cce4c1d7fff40c80"),
        # the same digest perfbench pins for its D5 call
        (("survey", "--type", "D5", "--format", "csv"), 0,
         "19d694ae50342577e776d00a45bc416a220cc528d89f0191ba563b2fe822d7d8"),
        (("survey", "--type", "C3", "--parabolic", "3"), 0,
         "c66ecac7ac1f1ab530f95fc560724b40d8199eacd6b4b18b67fea0be1818a1a8"),
        (("classify", "--type", "E7", "--parabolic", "7", "--word", _E7_WORD,
          "--coerce", "--format", "table"), 0,
         "6964026b59d9277c24d622125d28e431c0c4e4c73bafcde8460cf7ff9336debc"),
        (("classify", "--type", "E7", "--parabolic", "7", "--word", _E7_WORD,
          "--coerce", "--format", "csv"), 0,
         "2278dfe2e823989f11bd3f26f4a652cc3a7ff6af288e7c9da3a5a9aa8b555aa0"),
        (("survey", "--type", "C3", "--parabolic", "3", "--format", "table"), 0,
         "ddf921153f8b6e5af845574ad36cd02826233ea0b101146cc37d56cd98b9b994"),
        (("survey", "--type", "D4", "--format", "csv"), 0,
         "6b24b35a60c6381fc7bc403b6a7959e77b9457bd7bfc9b373c64682b7201153e"),
        (("conjectures", "--type", "B3", "--which", "2", "--format", "table"), 1,
         "48d5f23243bc2b12c2828fc5db779e2758001f84daabc7be00129662586bb180"),
        # invariant factors (1, 3), (1, 2, 2), and a non-square Picard matrix
        (("classify", "--type", "G2", "--word", "2 1 2"), 0,
         "421c30716bcbfab13b6f8e7b179eb4e8f7f58ad56055c08e3e415f1c3e71d39e"),
        (("classify", "--type", "B3", "--word", "3 2 1 3 2 3"), 0,
         "e6ac865b28a9a106f687b599aca8a182ffb2a5f9ed3ade6d35e687a7dee40d80"),
        (("classify", "--type", "D5", "--parabolic", "1 2", "--word",
          "1 2 3 4 5 3 2 1", "--coerce"), 0,
         "bc7947ab2087985c73e1a384c6742cd1bb565ac37d5686fcd14031581e615cdf"),
        # one full report per regime: point, general_undetermined, and a
        # q_factorial_general table with a rational N
        (("classify", "--type", "G2", "--word", ""), 0,
         "574c1bfd268f51ecb69a037bb6b855823f65ee1ed9ad13cbc37f14b21137986e"),
        (("classify", "--type", "B3", "--word", "2 1 3 2"), 0,
         "870fa5748b07a61346092a9e1a0e452d35f19c40e4c44ebb5ce3794b3bf104a5"),
        (("classify", "--type", "G2", "--word", "2 1 2", "--format", "table"), 0,
         "89328a902dbafec0257ae3f817ce1b7a08f94869e099dfc217e8d16fcac87a69"),
        # 53142: the m_matrix row of k = 3 is the walk's tie choice (1, 1, 1, 0)
        (("classify", "--type", "A4", "--word", "2 1 3 4 3 2 1", "--format", "json"), 0,
         "cf0615b488460e945f8dfdcbea5bdef66bae34d074e19d56a0c98749625089fd"),
        # E8/P8 as CSV, the README's example
        (("survey", "--type", "E8", "--parabolic", "1 2 3 4 5 6 7", "--format", "csv"), 0,
         "0bf8e88585d2f278141162ac35fadb12d36c23a61bcd88b63e46fc5840176ebd"),
        # E8/P7: p_adapt moves mu(7) = alpha_7^vee eleven steps, to (1, 2, 2, 3, 2, 1, 1, 0)
        (("classify", "--type", "E8", "--parabolic", "1 2 3 4 5 6 8", "--word",
          "1 3 4 2 5 4 3 1 6 5 4 2 3 4 5 6 7 8", "--coerce"), 0,
         "409ad7ab71feb396b8575541f90872e62b5ec6b8d27e3f0682c79369994ad9f5"),
    ],
    ids=["conj-A4-all", "conj-D4-all", "conj-D4-3-cap3", "conj-B3-2", "survey-D4", "survey-B3",
         "survey-E6-P16-len6", "classify-E7-coerce", "survey-G2", "survey-F4-csv",
         "survey-D5-csv",
         "survey-C3-P3", "classify-E7-coerce-table", "classify-E7-coerce-csv",
         "survey-C3-P3-table", "survey-D4-csv", "conj-B3-2-table", "classify-G2",
         "classify-B3", "classify-D5-P12-coerce", "classify-G2-point",
         "classify-B3-undetermined", "classify-G2-table", "classify-A4-tie",
         "survey-E8-P8-csv", "classify-E8-P7-moved"],
)
def test_golden_output_bytes(args, code, digest, capsys):
    """Exit code and sha256 of the output, JSON unless the case names its
    format, pinned from a reference run: any change to a byte of the output
    fails here."""
    if "--format" not in args:
        args += ("--format", "json")
    got, out, _ = run(capsys, *args)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
