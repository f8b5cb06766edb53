"""The command-line surface: reports, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import naive
from schurcensus import make_field
from schurcensus.analysis import Census, SchurianReport, cross_validate
from schurcensus.errors import InconsistencyError
from schurcensus.lines import LinePartition, load_partition, wielandt_partition
from schurcensus.schur import SchurBasis, structure_constants
from schurcensus import analysis, cli

STRETCH = pytest.mark.skipif(os.environ.get("SCHURCENSUS_STRETCH") != "1",
                             reason="set SCHURCENSUS_STRETCH=1 for the large-field runs")


def fixture(name):
    return str(resources.files("schurcensus") / "fixtures" / name)


def package_env():
    """The environment with this package's source directory first on
    PYTHONPATH, for a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_json(capsys, argv):
    code = cli.main(argv)
    return json.loads(capsys.readouterr().out), code


# ---------------------------------------------------------------------------
# subcommand reports
# ---------------------------------------------------------------------------

def test_schurian_test_on_bundled_wielandt(capsys):
    doc, code = run_json(capsys, [
        "schurian-test", "--partition", fixture("wielandt-q5.json")])
    assert code == 0
    assert doc["oracle_verdict"] == "non_schurian"
    assert doc["criterion_verdict"] == "predicts_nonschurian"
    assert doc["consistent"] is True
    assert doc["scheme_rank"] == 5
    assert doc["aut_order"] == "100"
    assert doc["class_sizes"] == [1, 4, 4, 4, 12]
    assert doc["stabilizer_orbit_sizes"] == [1, 4, 4, 4, 4, 4, 4]
    assert doc["field"] == "5^1"
    assert doc["partition"] == [["0"], ["1"], ["2", "3", "4"], ["inf"]]


def test_schurian_test_rank2_aut_order_is_factorial(capsys):
    doc, code = run_json(capsys, [
        "schurian-test", "--partition", fixture("one-class-q5.json")])
    assert code == 0
    assert doc["oracle_verdict"] == "schurian"
    assert doc["aut_order"] == str(math.factorial(25))
    assert doc["scheme_rank"] == 2


def test_census_q3_has_fifteen_rows_none_predicted(capsys):
    doc, code = run_json(capsys, ["census", "--field", "3^1"])
    assert code == 0
    assert doc["total"] == 15
    assert doc["predicted_nonschurian"] == 0
    assert len(doc["rows"]) == 15
    assert all(r["criterion_verdict"] == "no_prediction" for r in doc["rows"])


def test_check_condition_singleton_is_no_prediction(capsys):
    doc, code = run_json(capsys, [
        "check-condition", "--partition", fixture("singleton-q5.json")])
    assert code == 0
    assert doc["condition_holds"] is False
    assert doc["criterion_verdict"] == "no_prediction"
    assert doc["singleton_slopes"] == ["0", "1", "2", "3", "4", "inf"]


def test_check_condition_wielandt_reports_witness(capsys):
    doc, code = run_json(capsys, [
        "check-condition", "--partition", fixture("wielandt-q5.json")])
    assert code == 0
    assert doc["condition_holds"] is True
    assert doc["normalized_condition_holds"] is True
    assert doc["normalized_partition"] == doc["partition"]
    assert len(doc["witness_matrix"]) == 2


def test_verify_schur_ring_passes_on_fixtures(capsys):
    for name in ("wielandt-q5.json", "singleton-q9.json", "one-class-q8.json"):
        doc, code = run_json(capsys, ["verify-schur-ring", "--partition",
                                      fixture(name)])
        assert code == 0
        assert doc["ok"] is True
        assert doc["schur_axioms_ok"] is True
        assert doc["line_identities_ok"] is True
        assert doc["failures"] == []


def test_structure_constants_match_the_library(capsys):
    doc, code = run_json(capsys, [
        "structure-constants", "--partition", fixture("one-class-q3.json")])
    assert code == 0
    field = make_field(3, 1)
    basis = SchurBasis.from_partition(one_class(field))
    assert doc["rank"] == 2
    assert doc["class_sizes"] == [1, 8]
    assert doc["tensor"] == structure_constants(basis).tolist()


def one_class(field):
    return LinePartition(field, [list(range(field.q + 1))])


def test_invariant_slopes_gf9_frobenius(tmp_path, capsys):
    path = tmp_path / "frob.json"
    path.write_text(json.dumps({
        "field": "3^2",
        "matrix": [[1, 0, 0, 0], [2, 2, 0, 0], [0, 0, 1, 0], [0, 0, 2, 2]],
    }))
    doc, code = run_json(capsys, [
        "invariant-slopes", "--field", "3^2", "--partition", str(path)])
    assert code == 0
    assert doc["invariant_slopes"] == ["0", "1", "2", "inf"]
    assert doc["count"] == 4


def test_cross_validate_q5_json_counts(capsys):
    doc, code = run_json(capsys, [
        "cross-validate", "--field", "5^1", "--workers", "1"])
    assert code == 0
    assert doc["total"] == 203
    assert doc["scope"] == "all"
    assert doc["predicted_nonschurian"] == 4
    assert doc["predicted_schurian"] == 0
    predicted = [r for r in doc["rows"]
                 if r["criterion_verdict"] == "predicts_nonschurian"]
    assert len(predicted) == 4
    assert all(r["oracle_verdict"] == "non_schurian" for r in predicted)
    wrow = next(r for r in doc["rows"] if r["partition"] == "0|1|2,3,4|inf")
    assert wrow["aut_order"] == "100"


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_report_empty_census_is_header_only():
    empty = Census(field="5^1", total=0, predicted=0,
                   texts=np.empty(0, dtype="S11"), predicts=np.empty(0, dtype=bool))
    assert cli.emit_report(empty, "tsv") == b"partition\tcriterion_verdict\n"


@pytest.mark.parametrize("literal, scope", [
    *[(f"{p}^{e}", "census") for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                          (2, 3), (3, 2))],
    *[(f"{p}^{e}", scope) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1))
      for scope in ("all", "filtered")],
    *[pytest.param(literal, scope, marks=[pytest.mark.stretch, STRETCH])
      for literal in ("7^1", "2^3") for scope in ("all", "filtered")],
])
def test_tsv_matches_the_per_row_reference(literal, scope):
    # the column renderer against one f-string per row; the filtered
    # tables of 2^1, 3^1 and 2^2 are empty and give the header alone
    field = make_field(*map(int, literal.split("^")))
    if scope == "census":
        table = analysis.census(field)
        expected = naive.census_tsv(zip(table.texts.astype(str).tolist(),
                                        table.predicts.tolist()))
    else:
        table = cross_validate(field, scope=scope, workers=1)
        expected = naive.cross_validate_tsv(zip(
            table.texts.astype(str).tolist(), table.predicts.tolist(),
            [bool(table.orbit_schurian[k]) for k in table.orbit.tolist()],
            [table.aut_orders[k] for k in table.orbit.tolist()]))
        if scope == "filtered" and field.q < 5:
            assert table.total == 0 and expected.count(b"\n") == 1
    assert cli.emit_report(table, "tsv") == expected


@pytest.mark.parametrize("literal", ["2^1", "3^1", "2^2", "5^1"])
def test_emit_report_renders_tables_as_json(tmp_path, literal):
    # the library table through emit_report gives the bytes the CLI writes
    field = make_field(*map(int, literal.split("^")))
    for command, table in (
            (["census"], analysis.census(field)),
            (["cross-validate", "--workers", "1"], cross_validate(field, workers=1))):
        path = tmp_path / "report.json"
        assert cli.main([*command, "--field", literal, "--format", "json",
                         "--output", str(path)]) == 0
        assert cli.emit_report(table, "json") == path.read_bytes(), command
    if field.q < 5:  # no partition is predicted, so the filtered table is empty
        doc = json.loads(cli.emit_report(cross_validate(field, scope="filtered",
                                                        workers=1), "json"))
        assert doc["rows"] == [] and doc["total"] == 0
        assert doc["field"] == literal and doc["scope"] == "filtered"


def test_emit_report_rejects_unknown_format_and_untabular_reports():
    with pytest.raises(ValueError, match="format"):
        cli.emit_report({}, "xml")
    with pytest.raises(ValueError, match="tsv"):
        cli.emit_report({"a": 1}, "tsv")


def test_emit_report_json_is_canonical():
    data = cli.emit_report({"b": 1, "a": [2, 3]})
    assert data == b'{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_reports_match_the_recorded_digests(tmp_path):
    # the canonical TSV bytes are the contract; these digests are the ones
    # the benchmark checks its workloads against
    refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "references.json").read_text())
    for workload, argv in (
            ("xv-q5", ["cross-validate", "--field", "5^1", "--workers", "1"]),
            # every one of the 47 orbit |Aut| values of 7^1
            ("xv-q7", ["cross-validate", "--field", "7^1", "--workers", "1"]),
            ("census-q9", ["census", "--field", "3^2"])):
        path = tmp_path / f"{workload}.tsv"
        assert cli.main(argv + ["--format", "tsv", "--output", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == refs[workload]["sha256"], workload
    filtered = cross_validate(make_field(7, 1), scope="filtered", workers=1)
    digest = hashlib.sha256(cli.emit_report(filtered, "tsv")).hexdigest()
    assert digest == refs["stretch-q7"]["sha256"]


@pytest.mark.parametrize("literal, rows, digest", [
    ("7^1", 4140, "7ed2a744798fad563034a3302e01f63c54e6a07453dc67b17c5d76a71dd7f856"),
    ("2^3", 21147, "1bc7c5314914e78b7db542fd4668dd755d8d82ebde9995b3d249d64f2b3df367"),
])
def test_census_tsv_matches_its_recorded_digest(tmp_path, literal, rows, digest):
    # the census bytes at 7^1 (one block of rows) and 2^3 (three blocks),
    # recorded before the partition array went slope-major
    path = tmp_path / "census.tsv"
    assert cli.main(["census", "--field", literal, "--format", "tsv",
                     "--output", str(path)]) == 0
    data = path.read_bytes()
    assert data.count(b"\n") == rows + 1
    assert hashlib.sha256(data).hexdigest() == digest


def test_reports_leave_numpy_ma_unimported(tmp_path):
    # np.unique with no index output, and np.isin on an empty array, which
    # calls it, import numpy.ma: about 14 ms in every fresh process
    script = "\n".join([
        "import sys",
        "from schurcensus import cli",
        f"assert cli.main(['census', '--field', '3^2', '--format', 'tsv',"
        f" '--output', {str(tmp_path / 'census.tsv')!r}]) == 0",
        f"assert cli.main(['cross-validate', '--field', '5^1', '--workers', '1',"
        f" '--format', 'tsv', '--output', {str(tmp_path / 'xv.tsv')!r}]) == 0",
        "sys.exit('numpy.ma' in sys.modules)",
    ])
    env = package_env()
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "numpy.ma was imported"


def test_cross_validate_tsv_is_byte_identical_across_workers(tmp_path):
    paths = [tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv")]
    for path, workers in zip(paths, ("1", "1", "2")):
        code = cli.main(["cross-validate", "--field", "5^1",
                         "--workers", workers, "--format", "tsv",
                         "--output", str(path)])
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    lines = blobs[0].decode().splitlines()
    assert lines[0] == "partition\tcriterion_verdict\toracle_verdict\taut_order"
    assert len(lines) == 204
    assert "0|1|2,3,4|inf\tpredicts_nonschurian\tnon_schurian\t100" in lines


def test_output_flag_matches_stdout(tmp_path, capsys):
    argv = ["census", "--field", "2^2", "--format", "tsv"]
    assert cli.main(argv) == 0
    streamed = capsys.readouterr().out
    path = tmp_path / "census.tsv"
    assert cli.main(argv + ["--output", str(path)]) == 0
    assert path.read_bytes().decode("utf-8") == streamed
    assert len(streamed.splitlines()) == 53  # header + Bell(5) rows


@pytest.mark.parametrize("argv", [
    ["census", "--field", "3^1", "--format", "tsv"],
    ["schurian-test", "--partition", fixture("wielandt-q5.json")],
], ids=["census-tsv", "schurian-test-json"])
def test_raw_stdout_bytes_match_the_output_file(tmp_path, argv):
    # the report goes to stdout's byte stream as it is, with no decoding
    # and no newline translation on the way
    env = package_env()
    command = [sys.executable, "-m", "schurcensus.cli", *argv]
    streamed = subprocess.run(command, env=env, capture_output=True, check=True).stdout
    path = tmp_path / "report"
    subprocess.run(command + ["--output", str(path)], env=env, check=True)
    assert streamed and streamed == path.read_bytes()


def test_stdout_without_a_byte_stream_gets_the_text(tmp_path):
    argv = ["census", "--field", "2^2", "--format", "tsv"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(argv) == 0
    path = tmp_path / "census.tsv"
    assert cli.main(argv + ["--output", str(path)]) == 0
    assert text.getvalue() == path.read_bytes().decode("utf-8")


def test_report_partition_round_trips(tmp_path, capsys):
    for name in ("singleton-q4.json", "one-class-q7.json", "wielandt-q5.json",
                 "singleton-q8.json", "one-class-q9.json"):
        doc, code = run_json(capsys, ["check-condition", "--partition",
                                      fixture(name)])
        assert code == 0
        back = tmp_path / "back.json"
        back.write_text(json.dumps(
            {"field": doc["field"], "classes": doc["partition"]}))
        assert load_partition(back) == load_partition(fixture(name))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(tmp_path, capsys):
    bad_partition = tmp_path / "bad.json"
    bad_partition.write_text('{"field": "5^1", "classes": [["0"],["1"]]}')
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    bad_matrix = tmp_path / "singular.json"
    bad_matrix.write_text('{"matrix": [[1, 2], [2, 4]]}')
    for argv in (
        ["census", "--field", "nonsense"],
        ["census", "--field", "13^1"],
        ["cross-validate", "--field", "11^1"],
        ["cross-validate", "--field", "13^1", "--oracle-cap", "169"],
        ["cross-validate", "--field", "5^1", "--workers", "0"],
        ["schurian-test", "--partition", str(bad_partition)],
        ["schurian-test", "--partition", str(not_json)],
        ["schurian-test", "--partition", str(tmp_path / "missing.json")],
        ["schurian-test", "--partition", fixture("wielandt-q5.json"),
         "--oracle-cap", "-3"],
        ["schurian-test", "--partition", fixture("one-class-q9.json"),
         "--oracle-cap", "50"],
        ["check-condition", "--partition", fixture("wielandt-q5.json"),
         "--format", "tsv"],
        ["invariant-slopes", "--field", "5^1", "--partition", str(bad_matrix)],
        ["invariant-slopes", "--field", "3^2", "--partition", str(bad_matrix)],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.strip(), argv
        assert not captured.out, argv


def test_non_ascii_field_digits_exit_2(tmp_path, capsys):
    # a fullwidth five, and an Arabic-Indic five and one, are not 5^1
    path = tmp_path / "arabic-indic.json"
    path.write_text(json.dumps({"field": "\u0665^\u0661",
                                "classes": [["0", "1", "2", "3", "4", "inf"]]}))
    for argv in (["census", "--field", "\uff15^1"],
                 ["check-condition", "--partition", str(path)]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "bad field literal" in captured.err, argv
        assert not captured.out, argv


@pytest.mark.parametrize("command", ["check-condition", "schurian-test",
                                     "invariant-slopes"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    nested = "[" * 100000 + "]" * 100000
    path = tmp_path / "nested.json"
    if command == "invariant-slopes":
        path.write_text('{"matrix": ' + nested + "}")
        argv = [command, "--field", "5^1", "--partition", str(path)]
    else:
        path.write_text(nested)
        argv = [command, "--partition", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.strip()
    assert not captured.out


@pytest.mark.parametrize("command", ["check-condition", "invariant-slopes"])
def test_truncated_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "truncated.json"
    if command == "invariant-slopes":
        path.write_text('{"matrix": [[1, 0], [0 1]]}')
        argv = [command, "--field", "5^1", "--partition", str(path)]
    else:
        path.write_text('{"field": "5^1", "classes": [["0"')
        argv = [command, "--partition", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "not valid JSON" in captured.err
    assert not captured.out


@pytest.mark.parametrize("matrix", [
    [[1.5, 0], [0, True]],
    [["1", "0"], ["0", "1"]],
    [[True, False], [False, True]],
    [[1.0, 0], [0, 1]],
    [[1, 0], [0, None]],
])
def test_matrix_entries_must_be_json_integers(tmp_path, capsys, matrix):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"matrix": matrix}))
    assert cli.main(["invariant-slopes", "--field", "5^1",
                     "--partition", str(path)]) == 2
    captured = capsys.readouterr()
    assert "must be integers" in captured.err
    assert not captured.out


def test_huge_matrix_entries_reduce_mod_p(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"matrix": [[10 ** 23 + 1, 0], [5 ** 40, 1]]}))
    doc, code = run_json(capsys, ["invariant-slopes", "--field", "5^1",
                                  "--partition", str(path)])
    assert code == 0
    assert doc["matrix"] == [[1, 0], [0, 1]]
    assert doc["count"] == 6


@pytest.mark.parametrize("literal", ["2^10", "23^2", "2^20000"])
def test_fields_above_512_elements_exit_2(capsys, literal):
    assert cli.main(["census", "--field", literal]) == 2
    captured = capsys.readouterr()
    assert "above the cap of 512" in captured.err, captured.err
    assert not captured.out


def test_matrix_file_field_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "frob.json"
    path.write_text('{"field": "3^2", "matrix": [[1]]}')
    assert cli.main(["invariant-slopes", "--field", "5^1",
                     "--partition", str(path)]) == 2
    assert "3^2" in capsys.readouterr().err


def test_matrix_file_unknown_keys_exit_2(tmp_path, capsys):
    # a misspelt "field" key used to skip the field check
    path = tmp_path / "frob.json"
    path.write_text('{"feild": "3^2", "matrix": [[1, 0], [0, 1]]}')
    assert cli.main(["invariant-slopes", "--field", "5^1",
                     "--partition", str(path)]) == 2
    captured = capsys.readouterr()
    assert "unknown keys ['feild']" in captured.err
    assert not captured.out


def test_inconsistency_exits_1(monkeypatch, capsys):
    def boom(field, **kwargs):
        raise InconsistencyError("partition 0|1|2,3,4|inf contradicts")
    monkeypatch.setattr(cli, "cross_validate", boom)
    assert cli.main(["cross-validate", "--field", "5^1"]) == 1
    assert "inconsistency" in capsys.readouterr().err


def _dying_worker(pi, oracle_cap):
    os._exit(1)


def test_dead_worker_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "_oracle_worker", _dying_worker)
    assert cli.main(["cross-validate", "--field", "3^1", "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_inconsistent_schurian_report_exits_1_but_still_reports(monkeypatch,
                                                                capsys):
    field = make_field(5, 1)
    fake = SchurianReport(
        partition=wielandt_partition(field), scheme_rank=5, aut_order=100,
        stabilizer_orbit_sizes=(1, 4, 4, 4, 12), class_sizes=(1, 4, 4, 4, 12),
        oracle_verdict="schurian", criterion_verdict="predicts_nonschurian",
        consistent=False)
    monkeypatch.setattr(cli, "analyze_partition", lambda pi, **kw: fake)
    code = cli.main(["schurian-test", "--partition",
                     fixture("wielandt-q5.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["consistent"] is False
