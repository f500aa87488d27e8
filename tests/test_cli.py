import csv
import io
import json

import pytest

from schubert_atlas import cli, schubert

from helpers import coset_length_counts


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


def test_malformed_jobs_env_is_validation_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "abc")
    code, out, err = run(capsys, "survey", "--type", "A2")
    assert code == 2 and out == ""
    assert err == f"error: {cli.JOBS_ENV_VAR}='abc' is not an integer\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (("survey", "--max-length", "-1"), "--max-length must be at least 0, got -1"),
        (("conjectures", "--max-length", "-2"), "--max-length must be at least 0, got -2"),
        (("conjectures", "--cap", "0"), "--cap must be at least 1, got 0"),
    ],
    ids=["survey-max-length", "conjectures-max-length", "conjectures-cap"],
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


def test_survey_json_round_trip(capsys):
    code, out, _ = run(capsys, "survey", "--type", "A2", "--format", "json")
    assert code == 0
    assert schubert.canonical_json(json.loads(out)) + "\n" == out


@pytest.mark.parametrize(
    "args",
    [
        ("--type", "A3"),
        ("--type", "B3"),
        ("--type", "A4", "--parabolic", "2"),
    ],
    ids=["A3", "B3-borel", "A4-P2"],
)
def test_survey_jobs_deterministic(args, capsys, monkeypatch):
    """The serial path classifies the enumerated elements; the pool path
    rebuilds them from canonical words.  Both give the same bytes, in the
    simply-laced and the q_factorial_general regime."""
    code, seq_out, _ = run(capsys, "survey", *args, "--format", "csv")
    assert code == 0
    pools = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, par_out, _ = run(capsys, "survey", *args, "--format", "csv", "--jobs", "2")
    assert code == 0
    assert pools == [2]
    assert seq_out == par_out


@pytest.mark.parametrize(
    "type_str,cpus,expected",
    [("A4", 3, [3]), ("A4", 64, [8]), ("A2", 64, []), ("A4", None, [])],
    ids=["cores", "chunks", "one-chunk", "no-core-count"],
)
def test_survey_jobs_capped(type_str, cpus, expected, capsys, monkeypatch):
    """--jobs never asks for more workers than cores or 16-element chunks
    (A4 has 120 elements, A2 has 6), and one worker means the serial path.
    The pool is a fake, so no process is started."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    code, serial, _ = run(capsys, "survey", "--type", type_str, "--format", "csv")
    assert code == 0 and pools == []
    code, out, _ = run(
        capsys, "survey", "--type", type_str, "--format", "csv",
        "--jobs", str(10**6),
    )
    assert code == 0
    assert pools == expected
    assert out == serial


def test_jobs_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "2")
    code, out, _ = run(capsys, "survey", "--type", "A2", "--format", "csv")
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 6


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


def test_conjectures_table_format(capsys):
    code, out, _ = run(capsys, "conjectures", "--type", "A2", "--which", "all")
    assert code == 0
    assert "conjecture 1" in out and "verified" in out
