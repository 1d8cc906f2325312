import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppshift
from ppshift import claims, fp2, gf, pp
from ppshift.cli import build_parser, dispatch, element_str
from test_claims import _plant_delta


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


def test_fp2_lemmas_budget_exit(capsys):
    # F_841: (p + 1) q^2 = 30 * 841^2 instances, refused before any walk
    code, out, err = run(capsys, "fp2", "lemmas", "--p", "29", "--n", "2")
    assert code == 3 and out == ""
    assert "21218430 candidates exceed budget 10000000" in err


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


def test_reproduce_reports_over_budget_claims_as_skipped(capsys):
    # the degree census of F_13 needs 1.5e11 candidates; the rest of the field runs
    doc = run_json(capsys, "reproduce", "--p", "13")
    by_id = {c["claim_id"]: c for c in doc["claims"]}
    note = "149346699503 candidates exceed budget 10000000"
    over = [claim_id for claim_id, c in by_id.items() if c["note"] == note]
    assert over == ["cor3.first_appearance", "degree.distribution"]
    assert all(by_id[claim_id]["status"] == "skipped" for claim_id in over)
    assert by_id["cor2.divisor_degrees"]["status"] == "verified"
    assert not [c for c in doc["claims"] if c["status"] == "refuted"]


def test_degree_dist_csv(capsys):
    code, out, err = run(capsys, "degree-dist", "--p", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,ppr_count"
    assert "3,5" in out


@pytest.mark.parametrize("argv", [("degree-dist", "--p", "5"), ("reproduce", "--p", "5")])
def test_csv_rows_end_in_crlf_on_stdout_and_out_file(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    target = tmp_path / "rows.csv"
    assert code == 0 and run(capsys, *argv, "--format", "csv", "--out", str(target))[:2] == (0, "")
    for text in (out, target.read_bytes().decode()):
        rows = text.split("\r\n")
        assert len(rows) > 2 and rows[-1] == ""  # the last row ends in \r\n too
        assert not any("\n" in row or "\r" in row for row in rows)


def test_fp2_verify_sweep(capsys):
    doc = run_json(capsys, "fp2", "verify", "--p", "3", "--n", "2", "--m", "2", "--b", "1")
    assert doc["instances"] == 12 == doc["expected_instances"]
    assert doc["all_verified"] and doc["failures"] == []


def _polynomial_verify_failures(ctx, m, b):
    """fp2 verify's sweep by polynomials: build_pair per instance, then
    is_permutation and is_compositional_inverse."""
    failures = []
    for alpha, beta in fp2.constructible_pairs(ctx, m, b):
        f, h = fp2.build_pair(fp2.derive_params(ctx, m, b, alpha, beta))
        if not pp.is_permutation(ctx, f).is_ppr or not pp.is_compositional_inverse(ctx, f, h):
            failures.append([alpha, beta])
    return failures


@pytest.mark.parametrize("p, make", [(5, "field"), (7, "field"), (5, "zech_field")])
def test_fp2_verify_sweep_matches_the_polynomial_loop(capsys, monkeypatch, request, p, make):
    ctx = request.getfixturevalue(make)(p, 2)
    if ctx.add_table is None:
        monkeypatch.setattr(gf, "FLAT_TABLE_LIMIT", 0)  # the CLI builds the Zech field too
    for m in range(2, p):
        for b in fp2.family_b_values(ctx):
            doc = run_json(capsys, "fp2", "verify", "--p", str(p), "--m", str(m), "--b", str(b))
            failures = _polynomial_verify_failures(ctx, m, b)
            assert (doc["failures"], doc["all_verified"]) == (failures, not failures), (m, b)
            assert doc["instances"] == doc["expected_instances"] == p * (p - 1) ** 2


def test_fp2_verify_sweep_reports_a_planted_delta(capsys, monkeypatch, field):
    ctx = field(5, 2)
    b = fp2.family_b_values(ctx)[1]
    alpha, beta = fp2.constructible_pairs(ctx, 3, b)[4]
    _plant_delta(monkeypatch, (3, b, alpha, beta), lambda delta: ctx.add(delta, 1))
    doc = run_json(capsys, "fp2", "verify", "--p", "5", "--m", "3", "--b", str(b))
    assert (doc["failures"], doc["all_verified"]) == ([[alpha, beta]], False)
    assert _polynomial_verify_failures(ctx, 3, b) == [[alpha, beta]]


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


@pytest.mark.parametrize("p,n", [("2305843009213693951", "1"), ("2", "100000000")])
def test_field_past_the_cap_exits_2_before_any_work(capsys, monkeypatch, p, n):
    # 2^61 - 1 would take minutes of trial division, and 2^(10^8) has
    # more digits than int-to-str conversion allows
    def never(*args):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(gf, "is_prime", never)
    code, out, err = run(capsys, "field-info", "--p", p, "--n", n)
    assert (code, out) == (2, "")
    assert err == f"precondition violation: p = {p}, n = {n}: p^n exceeds cap 65536\n"


def test_reproduce_refuses_past_the_operator_cap_before_any_claim(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a claim ran")

    monkeypatch.setattr(claims._FieldRun, "run", never)
    code, out, err = run(capsys, "reproduce", "--p", "2", "--n", "11")
    assert (code, out) == (2, "")
    assert err == "precondition violation: q = 2048 exceeds the dense operator cap 1024\n"


def test_interpolation_cost_cap_exits_2(capsys, monkeypatch):
    # F_8192's transform would cost 8191^2 terms; the refusal comes before it
    def never(*args):
        raise AssertionError("the transform ran")

    monkeypatch.setattr(pp, "_dft", never)
    code, out, err = run(capsys, "invert", "--p", "2", "--n", "13", "1*x^2")
    assert code == 2 and out == "" and "F_8192 costs" in err


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
    # --format offers only what the subcommand renders; the parser refuses the rest
    for argv in [
        ("field-info", "--p", "5", "--format", "csv"),
        ("field-info", "--p", "5", "--format", "markdown"),
        ("is-pp", "--p", "5", "--format", "csv", "1*x^3"),
        ("enumerate", "--p", "3", "--n", "2", "--k", "1", "--format", "markdown"),
        ("fp2", "verify", "--p", "3", "--m", "2", "--b", "1", "--format", "csv"),
        ("fp2", "lemmas", "--p", "3", "--format", "markdown"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "") and "format" in err, argv


EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout) for fixed invocations: every subcommand
# in each format it renders, plus usage and precondition refusals. A change to
# rendering must keep every digest.
GOLDEN = [
    (("field-info", "--p", "3", "--n", "2"), 0,
     "ebc2c6b2c16c687a1bde834f11394472765e1e2decfa96edcd5a781666d9f7eb"),
    (("field-info", "--p", "2", "--n", "3", "--modulus", "1,0,1,1"), 0,
     "0dcd44ba36f08f442c6c12f1e86f13bc2e6bd6c4f287b15a135124780b0a2f94"),
    (("eigenspace", "--p", "5", "--n", "2", "--r", "1", "--k", "2"), 0,
     "7ac876e1625143ba44b64a580754dc86f28b1e5c597df35153a3b25d983adf33"),
    (("intersect", "--p", "3", "--n", "2", "--k", "1"), 0,
     "2db0995aeb8c63c68ad1144cefe22ef9262fe32ae755688a6d24abc94c76d782"),
    (("intersect", "--p", "3", "--n", "2", "--k", "1", "--r", "2", "--r", "3"), 0,
     "ca2233997300a101034fde2c8e404dbaf0c7af1cf8f9802690f9f9ccd677d7f7"),
    (("is-pp", "--p", "5", "1*x^3"), 0,
     "0862203fe5917cbe5ad2b2b9f004818ebc7790dcac59d2266454dab1b00e9281"),
    (("is-pp", "--p", "5", "1*x^2"), 0,
     "2d5ff18600e7f2c52a99322bda7428aad2b14d925e65e7d5a1f187d285f62798"),
    (("hermite", "--p", "7", "1*x^5"), 0,
     "c66571c0b9613716e81afa0586dc025b1b6fd5d0d927eedbdb0428e123a5dc05"),
    (("hermite", "--p", "7", "1*x^3"), 0,
     "ec76fcd939adb2d000222e314a0e8eaf833dbb94566784520fcaa5abfa467482"),
    (("invert", "--p", "5", "1*x^3"), 0,
     "ba275622d8ee6db4f9ebe4a3fdb40b47b8924bab4dc147194e844b8bcdfb802d"),
    (("invert", "--p", "3", "--n", "2", "1*x^5"), 0,
     "91e30528c44b4706586750d1cdddffa76ec4619ae6d8d19b1a18d801d28b0d05"),
    (("enumerate", "--p", "3", "--n", "2", "--k", "1"), 0,
     "9b6cad8dd855e969873f3e03e4b6bdc7d79b14521843b123cf3ca0341cee9343"),
    (("enumerate", "--p", "3", "--n", "2", "--k", "1", "--format", "csv"), 0,
     "168f229919c8f20f8c797955b11593c024e859a2020e5052f9d39c2d120957c1"),
    (("enumerate", "--p", "3", "--n", "2", "--k", "2", "--r", "1"), 0,
     "7787e3d129c8e99aceb8d9e018903ed5a1cdbd9c18dd60b36fed3a1e9c13ac48"),
    (("enumerate", "--p", "3", "--n", "2", "--k", "2", "--r", "1", "--format", "csv"), 0,
     "4bd1bfe20703f0b79e7cd65d48ae223a809f58471334b2cf9d5d2f0444bb0171"),
    (("degree-dist", "--p", "5"), 0,
     "1b91a5de446afdca32e9a421feb04d0b60eaad14f06f4206002d5586cd585b2f"),
    (("degree-dist", "--p", "7", "--format", "csv"), 0,
     "769b8364697ac1d29afba03ec3aec8d8e0684ed66c67491f96a771837afb2fa5"),
    (("fp2", "verify", "--p", "3", "--m", "2", "--b", "1"), 0,
     "efdca7621c4732a8eeb3dd598879f5e101301675ac8abf3c8a22f815d1488954"),
    (("fp2", "verify", "--p", "3", "--m", "2", "--b", "1", "--alpha", "3", "--beta", "7"), 0,
     "3b40d0771db4fdf28be174df918b118accbd8a90971dd8652428d073485ce2c2"),
    (("fp2", "verify", "--p", "3", "--m", "2", "--b", "1", "--alpha", "1", "--beta", "1"), 0,
     "f6af62d81450aecf64c1930b7e6ed80f52add0031ef37c87aeb7639e2a3292c8"),
    (("fp2", "census", "--p", "3"), 0,
     "b4b901eace9dfbc9c3d57cb6eb37d3e516bbf3d64b5fba5a62bc31b9946604d3"),
    (("fp2", "census", "--p", "3", "--format", "csv"), 0,
     "66318a0222bf8a5f9ee3e371e3736f24ed60766c0f91ec952cc859698889c6a4"),
    (("fp2", "census", "--p", "3", "--mode", "full", "--format", "csv"), 0,
     "dc180583ceebee97f4b1d3305b0018338a27b1901a20dc7865d64b5bd3f70fec"),
    (("fp2", "lemmas", "--p", "3"), 0,
     "9a614d118e9c1063e154d5a93ca9193936d7882bf01a3b09e9baf9a935dd67cf"),
    (("fp2", "lemmas", "--p", "3", "--format", "csv"), 0,
     "daa19ddb0baf15ac166161821bfd7f13b4c010239797ed9dfb2a42d1e7d6b8b4"),
    (("reproduce",), 0,
     "b46ebe69f4d3c99bce16957c117c980df45f96ca0be9916c3f36b01b28cf185b"),
    (("reproduce", "--p", "5", "--n", "2"), 0,
     "cdf2e12cfa2656a714907a80aefdc213971d204f4a8085606bd769f804b88ab4"),
    (("reproduce", "--p", "7", "--format", "csv"), 0,
     "80983bf4723307e65104660c117c40deec3f8d953d1f27906f4b5c2968c15495"),
    (("reproduce", "--p", "3", "--n", "2", "--format", "markdown"), 0,
     "b01a398999d52f059e8c61f75e57e56e90896e403b27c14a37d1f5cf279e4ee9"),
    # skip notes the default roster never reaches: F_81's Hermite cap and
    # lemma13 budget skips, F_11's census budget skips, a prime field below 5
    (("reproduce", "--p", "3", "--n", "4"), 0,
     "64553826deecf1e852e9de648e8366f013d8f6acbc5ab6419cd6db484354d993"),
    # the sampled branch of the shift-operator claims (q > 27) past F_49
    (("reproduce", "--p", "5", "--n", "3"), 0,
     "63a390e4379c6d397eee495eaa51ec0142ad40727a81eb9326366ef407f8ca4c"),
    (("reproduce", "--p", "11"), 0,
     "f8946328e4aa87b7e7d9fdf27a9a168b66c42912392ab99b62136675d0efe651"),
    (("reproduce", "--p", "3"), 0,
     "6c432be991d152ca5b9a92236b189c587d582daba444da4c990a49795d75ac41"),
    (("eigenspace", "--k", "1", "--r", "1"), 64, EMPTY),
    (("field-info", "--p", "4"), 2, EMPTY),
    (("fp2", "verify", "--p", "3", "--m", "2", "--b", "1", "--alpha", "3"), 64, EMPTY),
    (("reproduce", "--p", "2"), 2, EMPTY),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_stdout_and_exit_code(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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


def test_reproduce_refuses_f2_with_one_message(capsys):
    code, out, err = run(capsys, "reproduce", "--p", "2")
    assert (code, out) == (2, "")
    assert err == "precondition violation: V[x] is empty over F_2; reproduce needs q > 2\n"


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
