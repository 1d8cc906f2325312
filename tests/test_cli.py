import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppshift
from ppshift.cli import build_parser, dispatch, element_str


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


def test_field_info(capsys):
    doc = run_json(capsys, "field-info", "--p", "3", "--n", "2")
    assert doc["field"] == {"p": 3, "n": 2, "q": 9, "modulus": [1, 0, 1]}
    assert doc["primitive"] == 4
    assert doc["primitive_str"] == "t + 1"
    assert doc["lines"] == 4


def test_eigenspace(capsys):
    doc = run_json(capsys, "eigenspace", "--p", "5", "--n", "1", "--r", "1", "--k", "2")
    assert doc["dim"] == 2
    assert doc["basis"] == ["1*x^1", "1*x^2"]


def test_intersect_default_generators(capsys):
    doc = run_json(capsys, "intersect", "--p", "3", "--n", "2", "--k", "1")
    assert doc["dim"] == 2
    assert doc["generators"] == [1, 4]
    assert doc["basis"] == ["1*x^1", "1*x^3"]


def test_intersect_explicit_generators(capsys):
    doc = run_json(capsys, "intersect", "--p", "3", "--n", "2", "--k", "1",
                   "--r", "2", "--r", "3")
    assert doc["dim"] == 2


def test_is_pp_verdicts(capsys):
    doc = run_json(capsys, "is-pp", "--p", "5", "1*x^3")
    assert doc["is_pp"] and doc["is_ppr"] and doc["witness"] is None
    doc = run_json(capsys, "is-pp", "--p", "5", "1*x^2")
    assert not doc["is_pp"] and doc["witness"] is not None


def test_hermite(capsys):
    doc = run_json(capsys, "hermite", "--p", "5", "1*x^3")
    assert doc["hermite"] is True


def test_invert(capsys):
    doc = run_json(capsys, "invert", "--p", "5", "1*x^3")
    assert doc["inverse"] == "1*x^3"


def test_invert_on_a_zech_field(capsys):
    # F_625 interpolates on the Zech-log path: 7 * 535 = 1 mod 624
    doc = run_json(capsys, "invert", "--p", "5", "--n", "4", "1*x^7")
    assert doc["inverse"] == "1*x^535"


def test_poly_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1*x^3"))
    doc = run_json(capsys, "is-pp", "--p", "5")
    assert doc["is_pp"]


def test_enumerate_vk(capsys):
    doc = run_json(capsys, "enumerate", "--p", "3", "--n", "2", "--k", "1")
    assert doc["ppr_count"] == 6
    assert doc["searched"] == 81
    assert len(doc["pprs"]) == 6


def test_enumerate_budget_exit(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "3", "--n", "2", "--k", "2",
                         "--budget", "100")
    assert code == 3
    assert "budget" in err


def test_degree_dist(capsys):
    doc = run_json(capsys, "degree-dist", "--p", "5")
    assert doc["counts"] == {"1": 1, "2": 0, "3": 5}
    assert doc["total"] == 6
    assert doc["stage_violations"] == []


def test_degree_dist_budget(capsys):
    code, out, err = run(capsys, "degree-dist", "--p", "11")
    assert code == 3 and out == "" and "235794769 candidates" in err
    assert run_json(capsys, "degree-dist", "--p", "5", "--budget", "31")["total"] == 6
    code, out, err = run(capsys, "degree-dist", "--p", "5", "--cap", "11")
    assert code == 64 and "unrecognized arguments" in err


def test_degree_dist_csv(capsys):
    code, out, err = run(capsys, "degree-dist", "--p", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,ppr_count"
    assert "3,5" in out


def test_fp2_verify_sweep(capsys):
    doc = run_json(capsys, "fp2", "verify", "--p", "3", "--n", "2", "--m", "2", "--b", "1")
    assert doc["instances"] == 12 == doc["expected_instances"]
    assert doc["all_verified"] and doc["failures"] == []


def test_fp2_verify_single(capsys):
    doc = run_json(capsys, "fp2", "verify", "--p", "3", "--n", "2", "--m", "2", "--b", "1",
                   "--alpha", "3", "--beta", "7")
    assert doc["constructible"]
    assert doc["delta"] == 2 and doc["d"] == 1
    assert doc["inverse_verified"] is True


def test_fp2_census_csv(capsys):
    code, out, err = run(capsys, "fp2", "census", "--p", "3", "--n", "2",
                         "--mode", "full", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,b,conditioned,full,excess"
    assert len(lines) == 5  # four roots of unity at p = 3


def test_fp2_lemmas(capsys):
    doc = run_json(capsys, "fp2", "lemmas", "--p", "3", "--n", "2")
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "lemma20", "lemma21", "lemma22", "lemma23", "lemma24", "lemma25"
    ]


def test_exit_codes(capsys):
    code, _, err = run(capsys, "field-info", "--p", "4")
    assert code == 2 and "prime" in err
    code, _, _ = run(capsys, "invert", "--p", "5", "1*x^2")
    assert code == 2
    code, _, _ = run(capsys, "eigenspace", "--p", "5", "--r", "0", "--k", "1")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 64
    code, _, _ = run(capsys, "is-pp", "--p", "5", "not a poly")
    assert code == 64
    code, _, _ = run(capsys, "eigenspace", "--k", "1", "--r", "1")  # missing --p
    assert code == 64
    code, out, err = run(capsys, "is-pp", "--p", "5", "1*x^" + "9" * 5000)
    assert code == 64 and out == "" and "digits" in err
    # an explicit --n 1 is refused, not rewritten to the default n = 2
    code, out, err = run(capsys, "fp2", "census", "--p", "3", "--n", "1")
    assert code == 2 and out == "" and "quadratic" in err
    assert run_json(capsys, "fp2", "census", "--p", "3")["field"]["q"] == 9


def test_dense_operator_cap_exits_2(capsys):
    # F_2048 lies past eigen.OPERATOR_MAX_Q; the refusal comes before any matrix
    for argv in (("eigenspace", "--r", "1", "--k", "1"), ("intersect", "--k", "1")):
        code, out, err = run(capsys, *argv, "--p", "2", "--n", "11")
        assert code == 2 and out == "" and "dense operator cap" in err


def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(ppshift.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ppshift.cli", "fp2", "census", "--p", "3", "--n", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("fp2", "census", "--p", "3", "--n", "2", "--mode", "full", "--budget", "1"),
    ("enumerate", "--p", "3", "--n", "2", "--k", "1", "--seed", "1"),
    ("field-info", "--p", "5", "--budget", "1"),
])
def test_flags_outside_their_subcommands_exit_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "unrecognized arguments" in err


def test_reproduce_takes_budget_and_seed():
    args = build_parser().parse_args(["reproduce", "--budget", "5", "--seed", "3"])
    assert (args.budget, args.seed) == (5, 3)


@pytest.mark.parametrize("argv", [
    ("eigenspace", "--p", "5", "--r", "7", "--k", "1"),
    ("eigenspace", "--p", "5", "--r", "-1", "--k", "1"),
    ("fp2", "verify", "--p", "3", "--m", "2", "--b", "99"),
    ("fp2", "verify", "--p", "3", "--m", "2", "--b", "2", "--alpha", "99", "--beta", "1"),
    ("fp2", "verify", "--p", "3", "--m", "2", "--b", "2", "--alpha", "1", "--beta", "-1"),
])
def test_out_of_range_elements_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "is not an element index of F_" in err


def test_unsupported_format_is_usage_error(capsys):
    code, _, err = run(capsys, "field-info", "--p", "5", "--format", "csv")
    assert code == 64 and "format" in err
    code, _, err = run(capsys, "enumerate", "--p", "3", "--n", "2", "--k", "1",
                       "--format", "markdown")
    assert code == 64


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "field-info", "--p", "5", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1


def test_modulus_override_flag(capsys):
    doc = run_json(capsys, "field-info", "--p", "3", "--n", "2", "--modulus", "2,1,1")
    assert doc["field"]["modulus"] == [2, 1, 1]
    code, _, err = run(capsys, "field-info", "--p", "3", "--n", "2", "--modulus", "1,0,1x")
    assert code == 64


def test_reproduce_single_field_deterministic(capsys):
    code1, out1, _ = run(capsys, "reproduce", "--p", "3", "--n", "2")
    code2, out2, _ = run(capsys, "reproduce", "--p", "3", "--n", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    statuses = {c["claim_id"]: c["status"] for c in doc["claims"]}
    assert statuses["thm15.inverse"] == "verified"
    assert statuses["lemma13.count"] == "verified"
    assert all(c["runtime"] is None for c in doc["claims"])


def test_reproduce_markdown_sections(capsys):
    code, out, _ = run(capsys, "reproduce", "--p", "5", "--format", "markdown")
    assert code == 0
    assert "## preliminaries" in out and "## shift-map" in out
    assert "degree.distribution" in out


def test_reproduce_timings_flag(capsys):
    code, out, _ = run(capsys, "reproduce", "--p", "2", "--n", "2", "--timings")
    assert code == 0
    doc = json.loads(out)
    assert any(c["runtime"] is not None for c in doc["claims"])


def test_element_str(field):
    f9 = field(3, 2)
    assert element_str(f9, 0) == "0"
    assert element_str(f9, 2) == "2"
    assert element_str(f9, 3) == "t"
    assert element_str(f9, 7) == "2*t + 1"
