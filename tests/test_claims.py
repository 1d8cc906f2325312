import json
from collections import Counter
from itertools import product
from math import gcd
from types import SimpleNamespace

import pytest

from ppshift import build_field, claims, eigen, fp2, poly, pp
from ppshift.claims import (
    CLAIM_ANCHORS,
    DEFAULT_ROSTER,
    RunConfig,
    SECTION_ORDER,
    _FieldRun,
    _coprime_count_exponents,
    _divisor_degrees,
    _extra_closure,
    _first_appearance,
    _hermite_agreement,
    _identity_powers,
    _operator_order,
    _operator_power,
    _v1_shapes,
    reproduce,
    reproduce_field,
)
from ppshift.cli import emit_report
from ppshift.errors import BudgetExceededError, NotAPermutationError
from ppshift.fp2 import check_conditions, family_poly
from ppshift.poly import eval_table, gmb_poly, hmd_d, monomial, normalize, poly_scale
from ppshift.pp import HERMITE_MAX_Q, is_permutation
from test_fp2 import _inverse_table_keeps_shape, _power_tables, shape_parameters

STATUSES = {"verified", "refuted", "measured", "skipped"}


def _field_reports(p, n, **cfg_kwargs):
    return reproduce_field(build_field(p, n), RunConfig(**cfg_kwargs))


def _row(claim_id):
    """The _CLAIMS row of claim_id."""
    return next(row for row in claims._CLAIMS if row[0] == claim_id)


def test_registry_sections_are_known():
    assert {section for section, _ in CLAIM_ANCHORS.values()} <= set(SECTION_ORDER)


def test_every_claim_id_is_registered_and_unique():
    reports = _field_reports(3, 2)
    ids = [r.claim_id for r in reports]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(CLAIM_ANCHORS)  # no orphaned registry entries per field


def test_statuses_and_schema_invariants():
    for p, n in ((2, 2), (5, 1), (3, 2)):
        for r in _field_reports(p, n):
            assert r.status in STATUSES
            if r.status == "measured":
                assert r.expected is None
            if r.status == "refuted":
                assert r.observed is not None
            assert r.runtime is None  # timings are opt-in


def test_known_statuses_small_fields():
    by_id = {r.claim_id: r for r in _field_reports(2, 2)}
    assert by_id["lemma1.operator_order"].status == "refuted"
    assert by_id["lemma1.operator_power"].status == "verified"
    assert by_id["thm15.inverse"].status == "skipped"
    by_id = {r.claim_id: r for r in _field_reports(3, 2)}
    assert by_id["lemma1.operator_order"].status == "verified"
    assert by_id["sec5.full_count_half"].status == "measured"
    assert by_id["sec5.v2_count"].status == "verified"


def test_no_refutations_outside_known_edge():
    for p, n in ((5, 1), (2, 3), (3, 2)):
        for r in _field_reports(p, n):
            assert r.status != "refuted", (r.claim_id, r.observed)


def test_reports_deterministic_for_fixed_config():
    a = _field_reports(3, 2, seed=7)
    b = _field_reports(3, 2, seed=7)
    assert a == b
    assert emit_report(a, "json") == emit_report(b, "json")


def test_emit_report_formats():
    reports = _field_reports(2, 2)
    doc = json.loads(emit_report(reports, "json"))
    assert doc["schema"] == 1 and len(doc["claims"]) == len(reports)
    csv_text = emit_report(reports, "csv")
    assert csv_text.splitlines()[0].startswith("claim_id,field,status")
    assert len(csv_text.splitlines()) == len(reports) + 1
    md = emit_report(reports, "markdown")
    for section in ("preliminaries", "shift-map", "shift-family"):
        assert f"## {section}" in md


def test_roster_covers_every_claim_without_skip():
    # every registered claim must be exercised (not skipped) somewhere
    # on the default roster; run the cheap fields plus F_25 which covers
    # the coprime/excess and sampling claims
    covered = set()
    for p, n in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2)):
        for r in _field_reports(p, n):
            if r.status != "skipped":
                covered.add(r.claim_id)
    assert covered == set(CLAIM_ANCHORS)


def test_reproduce_roster_default():
    assert DEFAULT_ROSTER[0] == (2, 2)
    cfg = RunConfig(p=3, n=2)
    reports = reproduce(cfg)
    assert {r.field for r in reports} == {"F_9"}


def test_refuted_claims_carry_counterexample():
    by_id = {r.claim_id: r for r in _field_reports(2, 2)}
    refuted = by_id["lemma1.operator_order"]
    assert refuted.status == "refuted"
    assert refuted.observed["counterexample"] == {"r": 1, "order": 1}


def test_claim_catalog_is_encoding_independent():
    # every statement is basis-free: the whole catalog must come out
    # the same under a different irreducible modulus
    for (p, n, override) in ((3, 2, (2, 1, 1)), (5, 2, (2, 0, 1))):
        ctx = build_field(p, n, modulus_override=override)
        assert ctx.modulus == override
        base = {r.claim_id: r.status for r in _field_reports(p, n)}
        alt = {
            r.claim_id: r.status
            for r in reproduce_field(ctx, RunConfig(modulus_override=override))
        }
        assert alt == base
        assert "refuted" not in set(alt.values())


def test_hermite_agreement_skipped_past_its_cap():
    # the degree criterion refuses q > HERMITE_MAX_Q; the claim must
    # report that as a skip instead of letting the refusal end the run
    ctx = build_field(3, 4)
    assert ctx.q > HERMITE_MAX_Q
    report = next(r for r in reproduce_field(ctx, RunConfig()) if r.claim_id == "hermite.agreement")
    assert (report.status, report.expected, report.observed) == ("skipped", None, None)
    assert str(HERMITE_MAX_Q) in report.note


DOMAIN_FIELDS = [(3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (3, 4)]


@pytest.mark.parametrize("p,n", DOMAIN_FIELDS, ids=[f"F_{p}^{n}" for p, n in DOMAIN_FIELDS])
def test_domain_column_decides_each_skip(p, n):
    # a row with a domain reports its note exactly when the field is
    # outside it, and its check runs otherwise
    ctx = build_field(p, n)
    by_id = {r.claim_id: r for r in reproduce_field(ctx, RunConfig())}
    rows = [row for row in claims._CLAIMS if len(row) == 5]
    assert rows
    for claim_id, _, _, _, (applies, note) in rows:
        report = by_id[claim_id]
        outside = (report.status, report.expected, report.observed, report.note) == (
            "skipped", None, None, note)
        assert outside == (not applies(ctx)), claim_id


def test_a_false_domain_skips_before_the_check_runs():
    def check(run):
        raise AssertionError("the check of a field outside the domain ran")

    run = _FieldRun(build_field(3, 2), RunConfig())
    run.run("planted", check, (lambda ctx: False, "outside"))
    assert [(r.claim_id, r.status, r.expected, r.observed, r.note) for r in run.reports] == [
        ("planted", "skipped", None, None, "outside")]


def _plant_hermite_fault(monkeypatch, ctx, f):
    """Flip pp._hermite_table's verdict on the value table of f alone."""
    real, target = pp._hermite_table, eval_table(ctx, f)
    monkeypatch.setattr(pp, "_hermite_table", lambda c, table: real(c, table) != (table == target))


def test_hermite_agreement_names_a_planted_fault_on_f7(monkeypatch):
    ctx = build_field(7, 1)
    f = [0, 0, 3, 0, 0, 1]  # x^5 + 3x^2
    _plant_hermite_fault(monkeypatch, ctx, f)
    assert _hermite_agreement(_FieldRun(ctx, RunConfig())) == (
        "refuted", "agreement", [tuple(f)], "exhaustive over V[x], 16807 polynomials"
    )


def test_hermite_agreement_names_a_planted_fault_on_a_sample(monkeypatch):
    ctx = build_field(2, 3)
    rng = _FieldRun(ctx, RunConfig()).rng("hermite.agreement")
    drawn = [normalize([0] + [rng.randrange(8) for _ in range(6)]) for _ in range(1000)]
    f = drawn[17]
    assert drawn.count(f) == 1
    _plant_hermite_fault(monkeypatch, ctx, f)
    assert _hermite_agreement(_FieldRun(ctx, RunConfig())) == (
        "refuted", "agreement", [tuple(f)], "1000 random V[x] polynomials (seeded)"
    )


def test_hermite_agreement_on_f7_evaluates_only_the_monomials(monkeypatch):
    calls = []

    def counted(ctx, f):
        calls.append(list(f))
        return eval_table(ctx, f)

    for module in (claims, pp, poly):
        monkeypatch.setattr(module, "eval_table", counted)

    def refuse(*args):
        raise AssertionError("the claim must read both verdicts from one table")

    monkeypatch.setattr(pp, "is_permutation", refuse)
    monkeypatch.setattr(pp, "hermite_test", refuse)
    ctx = build_field(7, 1)
    assert _hermite_agreement(_FieldRun(ctx, RunConfig()))[0] == "verified"
    assert calls == [monomial(j) for j in range(1, 6)]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_field_run_kernels_match_the_public_route(field, p, n):
    ctx = field(p, n)
    run = _FieldRun(ctx, RunConfig())
    for r in range(1, ctx.q):
        for k in range(1, ctx.p + 1):
            assert run.kernel(r, k) == eigen.kernel_power(ctx, r, k), (r, k)
            assert run.unit_kernel(k).dim == eigen.kernel_dim(ctx, r, k), (r, k)


def test_kernel_dims_lists_a_mismatch_at_every_shift(monkeypatch):
    # one K_k read per k; a wrong dimension is named at each r
    run = _FieldRun(build_field(3, 2), RunConfig())
    reads = []
    real = run.unit_kernel

    def planted(k):
        reads.append(k)
        return SimpleNamespace(dim=99) if k == 2 else real(k)

    monkeypatch.setattr(run, "unit_kernel", planted)
    status, _, observed, _ = claims._kernel_dims(run)
    assert reads == [1, 2, 3]
    assert (status, observed) == ("refuted", [(1, 2, 99), (2, 2, 99), (3, 2, 99)])


def _count_calls(monkeypatch, module, name, key=lambda *a, **kw: None):
    calls = Counter()
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("p,n", [(5, 2), (7, 2)])  # exhaustive and sampled branches
def test_each_claim_builds_a_shift_once_and_frees_it(monkeypatch, p, n):
    build, run_claim = eigen.shift_operator, _FieldRun.run
    claim = [None]
    builds = Counter()  # (claim id, r) -> operators built
    live = set()  # (claim id, r) of the operators still referenced
    leaked = []  # (claim id, r) of the operators that outlived their claim

    class Operator(tuple):
        """A_r as built. A tuple subclass takes no weak reference, so its
        __del__ marks the key freed once no reference is left."""

        def __del__(self):
            live.discard(self.key)

    def watched_build(ctx, r):
        op = Operator(build(ctx, r))
        op.key = (claim[0], r)
        builds[op.key] += 1
        live.add(op.key)
        return op

    def watched_run(self, claim_id, check, domain=None):
        claim[0] = claim_id
        run_claim(self, claim_id, check, domain)
        leaked.extend(sorted(key for key in live if key[0] == claim_id))

    monkeypatch.setattr(eigen, "shift_operator", watched_build)
    monkeypatch.setattr(_FieldRun, "run", watched_run)
    reports = reproduce_field(build_field(p, n), RunConfig())
    claimed = {c for c, _ in builds}
    assert claimed == {
        "lemma1.operator_power", "lemma2.eigenvalue", "eq1.matrix_action", "lemma9.additivity"}
    assert max(builds.values()) == 1
    assert not leaked
    assert all(r.status == "verified" for r in reports if r.claim_id in claimed)


@pytest.mark.parametrize("p,n,suite_runs", [(2, 2, 0), (5, 1, 0), (5, 2, 1)])
def test_reports_follow_the_claim_table(monkeypatch, p, n, suite_runs):
    # one report per table row, in table order; the six appendix rows
    # share one lemma suite, run only where it applies
    calls = _count_calls(monkeypatch, fp2, "lemma_suite")
    ids = [r.claim_id for r in _field_reports(p, n)]
    assert ids == [claim_id for claim_id, *_ in claims._CLAIMS]
    assert len(set(ids)) == len(ids)
    assert sum(calls.values()) == suite_runs


def test_reproduce_field_runs_one_degree_census(monkeypatch):
    calls = _count_calls(monkeypatch, pp, "degree_distribution")
    reports = reproduce_field(build_field(5, 1), RunConfig())
    assert sum(calls.values()) == 1
    by_id = {r.claim_id: r.status for r in reports}
    for claim_id in ("def1.orbit_identity", "cor3.first_appearance", "degree.distribution"):
        assert by_id[claim_id] == "verified"


def test_reproduce_field_checks_no_conditions_per_instance(monkeypatch):
    # the conditioned set of each (m, b) is its sweep's pairs array
    calls = _count_calls(monkeypatch, fp2, "check_conditions")
    reports = reproduce_field(build_field(5, 2), RunConfig())
    assert not calls
    by_id = {r.claim_id: r.status for r in reports}
    for claim_id in ("thm15.inverse", "thm15.closure", "sec5.conditioned_count",
                     "sec5.extra_closure"):
        assert by_id[claim_id] == "verified"


def test_conditioned_count_reads_the_theorem15_sweep(monkeypatch):
    # each (m, b) pair list is built once, by the sweep: the lemma suite
    # meets the constructible instances inside its lemma 22 walk
    calls = _count_calls(monkeypatch, fp2, "constructible_pairs", key=lambda ctx, m, b: (m, b))
    reports = reproduce_field(build_field(5, 2), RunConfig())
    assert len(calls) == 3 * 6 and set(calls.values()) == {1}
    by_id = {r.claim_id: r for r in reports}
    assert by_id["sec5.conditioned_count"].status == "verified"
    assert by_id["sec5.conditioned_count"].observed == [80]


@pytest.mark.parametrize("p, top", [(5, 3), (7, 5), (11, 5)])
def test_divisor_degree_scan_matches_the_candidate_list(p, top):
    # the oracle is the list cor2.divisor_degrees used to build per degree d;
    # the scan must find the same permutations in the same order
    ctx = build_field(p, 1)
    hits = 0
    for d in range(2, top + 1):
        candidates = ([0, *mid, 1] for mid in product(range(p), repeat=d - 1))
        oracle = [tuple(f) for f in candidates if is_permutation(ctx, f).is_pp]
        assert list(pp._scan(ctx, monomial(d), [monomial(j) for j in range(1, d)])) == oracle
        hits += len(oracle)
    assert hits  # x^3 on F_5 and F_11, x^5 on F_7


def test_divisor_degrees_refuses_over_budget_before_scanning(monkeypatch):
    # F_13 has 13 + 13^2 + 13^3 + 13^5 = 373,672 candidates of degree 2, 3, 4, 6
    ctx = build_field(13, 1)
    real = pp._scan
    monkeypatch.setattr(pp, "_scan", lambda *args: pytest.fail("scanned over budget"))
    with pytest.raises(BudgetExceededError, match="373672 candidates exceed budget 373671"):
        _divisor_degrees(_FieldRun(ctx, RunConfig(budget=373_671)))
    monkeypatch.setattr(pp, "_scan", real)
    assert _divisor_degrees(_FieldRun(ctx, RunConfig(budget=373_672))) == (
        "verified", "no permutations", "no permutations",
        "degrees [2, 3, 4, 6], 373672 candidates",
    )


def test_a_claim_over_budget_is_skipped_and_the_rest_run():
    # V_2 over F_9 has 9^5 candidates and the lemma suite (p + 1) q^2 =
    # 324 instances, read once for the six appendix claims; every other
    # claim stays under 100
    default = _field_reports(3, 2)
    tight = _field_reports(3, 2, budget=100)
    changed = [(a.claim_id, b.status, b.expected, b.observed, b.note)
               for a, b in zip(default, tight) if a != b]
    assert changed == [("sec5.v2_count", "skipped", None, None,
                        "59049 candidates exceed budget 100")] + [
        (f"appendix.lemma{i}", "skipped", None, None, "324 candidates exceed budget 100")
        for i in range(20, 26)]
    assert len(tight) == len(default)


def test_appendix_claims_read_the_suite_under_the_run_budget():
    # F_25: the suite walks (p + 1) q^2 = 3750 instances
    rows = [row for row in claims._CLAIMS if row[0].startswith("appendix.")]
    assert len(rows) == 6

    def reports(budget):
        run = _FieldRun(build_field(5, 2), RunConfig(budget=budget))
        for claim_id, _, check, _, *domain in rows:
            run.run(claim_id, check, *domain)
        return [(r.status, r.note) for r in run.reports]

    assert reports(3749) == [("skipped", "3750 candidates exceed budget 3749")] * 6
    assert {status for status, _ in reports(3750)} == {"verified"}


def test_degree_census_uses_the_run_budget():
    # F_5 has 1 + 5 + 25 candidates of degree 1..3
    assert _first_appearance(_FieldRun(build_field(5, 1), RunConfig(budget=31)))[0] == "verified"
    with pytest.raises(BudgetExceededError):
        _first_appearance(_FieldRun(build_field(5, 1), RunConfig(budget=30)))


def test_orbit_identity_is_skipped_over_budget(monkeypatch):
    # F_7: the scan covers all 7^6 = 117,649 polynomials of degree <= 5
    claim_id, _, check, _, *domain = _row("def1.orbit_identity")

    def report(budget):
        run = _FieldRun(build_field(7), RunConfig(budget=budget))
        run.run(claim_id, check, *domain)
        return run.reports[-1]

    scan = pp._scan
    monkeypatch.setattr(pp, "_scan", lambda *args: pytest.fail("scanned over budget"))
    over = report(117_648)
    assert (over.status, over.note) == ("skipped", "117649 candidates exceed budget 117648")
    monkeypatch.setattr(pp, "_scan", scan)
    assert report(117_649).status == "verified"


def test_unconditioned_inverse_has_the_inverse_exponent():
    # unconditioned m = 3 shape PPRs of F_121 invert to the shape with
    # m' = 7 = 3^-1 mod 10, not to m = 3: fp2.shape_closure accepts them,
    # and the q-point oracle finds m' = 7 and refuses m' = 3
    ctx = build_field(11, 2)
    power_tables = _power_tables(ctx)
    for alpha, beta in ((1, 1), (11, 1), (38, 1)):
        f = family_poly(ctx, 3, 1, alpha, beta)
        assert is_permutation(ctx, f).is_ppr
        assert not check_conditions(ctx, 3, 1, alpha, beta).constructible
        assert fp2.shape_closure(ctx, {(3, 1): [alpha * ctx.q + beta]}) == []
        inverse = pp.inverse_table(ctx, eval_table(ctx, f))
        assert _inverse_table_keeps_shape(ctx, 7, inverse, power_tables)
        assert not _inverse_table_keeps_shape(ctx, 3, inverse, power_tables)


def test_vk_conjecture_covers_every_k_below_p():
    # F_125: dim V_k = k^3 + 2 for k = 1..4, and V_5 is everything
    check = _row("vk.dim.conjecture")[2]
    status, expected, observed, _ = check(_FieldRun(build_field(5, 3), RunConfig()))
    assert status == "verified"
    assert observed == {1: 3, 2: 10, 3: 29, 4: 66, 5: 123}


def test_list_limit_skips_v1_shapes_and_leaves_the_shape_scans_whole(monkeypatch):
    # V_1 of F_25 holds 20 PPRs, so a list limit of 5 sends enumerate_pprs
    # down its unlisted path, as m = 7 does on F_169; each shape holds 180
    # PPRs, but fp2.shape_pprs keeps every hit whatever the limit, so
    # sec5.extra_closure, which reads it, reports the same
    ctx = build_field(5, 2)
    shapes = [(3, b) for b in fp2.family_b_values(ctx)]  # 3: the m coprime to p - 1
    lengths = [len(fp2.shape_pprs(ctx, m, b)) for m, b in shapes]
    assert min(lengths) > 5
    listed = _FieldRun(ctx, RunConfig())
    closure = _extra_closure(listed)
    assert closure[0] == "verified" and closure[3] == "600 unconditioned shape PPRs inverted"
    assert _v1_shapes(listed)[0] == "verified"
    monkeypatch.setattr(pp, "LIST_LIMIT", 5)
    assert [len(fp2.shape_pprs(ctx, m, b)) for m, b in shapes] == lengths
    unlisted = _FieldRun(ctx, RunConfig())
    assert _extra_closure(unlisted) == closure
    assert _v1_shapes(unlisted) == (
        "skipped", None, None, "PPR list above the reporting threshold"
    )


def _rescanned_extra_closure(ctx):
    """sec5.extra_closure by polynomials: a second scan of every shape,
    then compositional_inverse, scaled monic, and shape_parameters for
    the exponent m^-1 mod p-1."""
    p = ctx.p
    bad, total = [], 0
    for m in (m for m in range(2, p) if gcd(m, p - 1) == 1):
        for b in fp2.family_b_values(ctx):
            for coeffs in pp._scan(ctx, gmb_poly(ctx, m, b), [monomial(p), monomial(1)]):
                _, _, alpha, beta = shape_parameters(ctx, list(coeffs))
                if check_conditions(ctx, m, b, alpha, beta).constructible:
                    continue
                total += 1
                inverse = pp.compositional_inverse(ctx, list(coeffs))
                back = shape_parameters(ctx, poly_scale(ctx, ctx.inv(inverse[-1]), inverse))
                if back is None or back[0] != pow(m, -1, p - 1):
                    bad.append((m, b, alpha, beta))
    status = "verified" if not bad else "refuted"
    return status, bad, total


def test_extra_closure_inverts_without_revalidating_tables(monkeypatch):
    # it inverts only the F_p residue tables of x^m + cx, built in range
    def refuse(ctx, table):
        raise AssertionError("a table valid by construction was re-checked")

    monkeypatch.setattr(pp, "_require_table", refuse)
    status, _, _, note = _extra_closure(_FieldRun(build_field(5, 2), RunConfig()))
    assert (status, note) == ("verified", "600 unconditioned shape PPRs inverted")


@pytest.mark.parametrize("p,n,make", [(5, 2, "field"), (7, 2, "field"), (5, 2, "zech_field")])
def test_extra_closure_matches_the_interpolating_route(request, p, n, make):
    ctx = request.getfixturevalue(make)(p, n)
    want_status, want_bad, total = _rescanned_extra_closure(ctx)
    status, _, observed, note = _extra_closure(_FieldRun(ctx, RunConfig()))
    assert (status, observed) == (want_status, want_bad[:3] or "inverse PPRs keep the shape and m")
    assert note == f"{total} unconditioned shape PPRs inverted"
    assert status == "verified"


def _swap_two(ctx, inverse):
    inverse[1], inverse[2] = inverse[2], inverse[1]


def _add_square(ctx, inverse):
    # + x^2: still a table of F_p values, off the binomials in x^m' and x
    inverse[:] = [ctx.add(v, ctx.mul(y, y)) for y, v in enumerate(inverse)]


@pytest.mark.parametrize("fault", [_swap_two, _add_square])
@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_extra_closure_planted_inverse_fault(request, monkeypatch, make, fault):
    # the claim inverts no F_25 table, only F_5's x^3 + cx; on F_25 every
    # unconditioned PPR has the label c/s = 0, so one corrupted inverse of
    # x^3 refutes all 600 of them, while the interpolating route, which
    # inverts F_25 tables, still verifies
    ctx = request.getfixturevalue(make)(5, 2)
    planted_table = [lam**3 % 5 for lam in range(5)]
    invert = pp._invert

    def planted(table):
        inverse, witness = invert(table)
        if list(table) == planted_table:
            fault(ctx, inverse)
        return inverse, witness

    run = _FieldRun(ctx, RunConfig())
    shapes = {b: sorted(set(run.shape(3, b)).difference(run.sweeps()[3, b].pairs))
              for b in fp2.family_b_values(ctx)}
    monkeypatch.setattr(pp, "_invert", planted)
    status, _, observed, note = _extra_closure(run)
    bad = [("inverse leaves the shape", 3, b, *divmod(code, ctx.q))
           for b, codes in shapes.items() for code in codes]
    assert (status, observed, note) == ("refuted", bad[:3], "600 unconditioned shape PPRs inverted")
    assert fp2.shape_closure(ctx, {(3, b): codes for b, codes in shapes.items()}) == bad
    assert _rescanned_extra_closure(ctx)[:2] == ("verified", [])


def test_reproduce_field_scans_each_shape_once(monkeypatch):
    ctx = build_field(5, 2)
    calls = _count_calls(monkeypatch, fp2, "shape_pprs", key=lambda ctx, m, b, **kw: (m, b))
    reports = reproduce_field(ctx, RunConfig())
    # sec5.v2_count reads m = 2; the coprime, half and closure claims m = 3
    shapes = {(m, b) for m in (2, 3) for b in fp2.family_b_values(ctx)}
    assert set(calls) == shapes and set(calls.values()) == {1}
    by_id = {r.claim_id: r for r in reports}
    assert by_id["sec5.extra_closure"].note == "600 unconditioned shape PPRs inverted"


def test_coprime_count_leaves_out_the_half_exponent_past_p5():
    # m = (p+1)/2 is coprime to p - 1 when p = 1 mod 4; past p = 5 its
    # census belongs to sec5.full_count_half
    assert _coprime_count_exponents(13) == [5, 11]
    assert _coprime_count_exponents(17) == [3, 5, 7, 11, 13, 15]
    # the roster keeps its exponents: m = 3 = (5+1)/2 on F_25, m = 5 on F_49
    assert _coprime_count_exponents(5) == [3]
    assert _coprime_count_exponents(7) == [5]
    assert _coprime_count_exponents(3) == []


def _chain_identity_powers(run):
    """{r: whether A_r^j = I for j = 1..p} from each A_r's own mat_mul
    chain: the per-shift route, with no appeal to D_r conjugation."""
    ctx = run.ctx
    ident = eigen.mat_identity(ctx.q - 2)
    got = {}
    for r in range(1, ctx.q):
        a = eigen.shift_operator(ctx, r)
        acc, flags = a, [a == ident]
        for _ in range(ctx.p - 1):
            acc = eigen.mat_mul(ctx, acc, a)
            flags.append(acc == ident)
        got[r] = tuple(flags)
    return got


@pytest.mark.parametrize("p,n", DEFAULT_ROSTER)
def test_identity_powers_match_each_shifts_own_chain(field, monkeypatch, p, n):
    run = _FieldRun(field(p, n), RunConfig())
    products = _count_calls(monkeypatch, eigen, "mat_mul")
    got = _identity_powers(run)
    assert sum(products.values()) == p - 1  # the one A_1 chain
    assert got == _chain_identity_powers(run)


def _lemma1_claims(ctx, per_shift):
    """Both Lemma 1 claims on a fresh run, with every flag from the
    shift's own chain when per_shift is set."""
    with pytest.MonkeyPatch.context() as mp:
        if per_shift:
            mp.setattr(claims, "_identity_powers", _chain_identity_powers)
        run = _FieldRun(ctx, RunConfig())
        return _operator_power(run), _operator_order(run)


def _plant(monkeypatch, r, change):
    """Make shift_operator return change(A_r) in place of A_r."""
    build = eigen.shift_operator

    def planted(ctx, s):
        op = build(ctx, s)
        return change(ctx, op) if s == r else op

    monkeypatch.setattr(eigen, "shift_operator", planted)


def _set_entry(i, j, value):
    def change(ctx, matrix):
        rows = [list(row) for row in matrix]
        rows[i][j] = value
        return tuple(tuple(row) for row in rows)

    return change


@pytest.mark.parametrize("r,change,power_status,power_observed", [
    pytest.param(7, _set_entry(3, 3, 2), "refuted", [7], id="diagonal"),
    pytest.param(7, _set_entry(20, 2, 1), "refuted", [7], id="below-diagonal"),
    # A_1 itself: every other r then fails the check and runs its own chain
    pytest.param(1, _set_entry(0, 1, 3), "refuted", [1], id="unit-shift"),
    pytest.param(7, lambda ctx, m: eigen.shift_operator(ctx, 11),
                 "verified", "identity at power p", id="swapped"),
])
def test_planted_operator_faults_give_the_per_shift_statuses(
        monkeypatch, r, change, power_status, power_observed):
    ctx = build_field(5, 2)
    _plant(monkeypatch, r, change)
    got = _lemma1_claims(ctx, per_shift=False)
    assert got == _lemma1_claims(ctx, per_shift=True)
    power, order = got
    assert (power[0], power[2]) == (power_status, power_observed)
    if power_status == "refuted":
        assert order[0] == "refuted" and order[2]["counterexample"]["r"] == r


def _pairwise_thm15_sweep(ctx):
    """The Theorem 15 sweep by polynomials: build_pair per instance and
    is_compositional_inverse, which compares h with the inverse table."""
    inverse_bad, closure_bad = [], []
    instances = 0
    counts = {}
    for m in range(2, ctx.p):
        for b in fp2.family_b_values(ctx):
            pairs = fp2.constructible_pairs(ctx, m, b)
            counts[m, b] = len(pairs)
            for alpha, beta in pairs:
                instances += 1
                tag = (m, b, alpha, beta)
                inst = fp2.derive_params(ctx, m, b, alpha, beta)
                f, h = fp2.build_pair(inst)
                try:
                    exact = pp.is_compositional_inverse(ctx, f, h)
                except NotAPermutationError:
                    exact = None
                if exact is None or not (f[-1] == 1 and f[0] == 0):
                    inverse_bad.append(("not a PPR", *tag))
                elif not exact:
                    inverse_bad.append(("inverse mismatch", *tag))
                if inst.delta == 0:
                    closure_bad.append(("zero delta", *tag))
                    continue
                alpha2 = ctx.div(inst.gamma, inst.delta)
                beta2 = ctx.div(inst.epsilon, inst.delta)
                if not fp2.check_conditions(ctx, m, inst.d, alpha2, beta2).constructible:
                    closure_bad.append(("inverse instance fails conditions", *tag))
    return instances, inverse_bad, closure_bad, counts


def _claims_thm15_sweep(ctx):
    """The claims' Theorem 15 data in the oracle's shape, from one field
    run's fp2.inverse_sweep of each (m, b): (instances, inverse
    failures, fp2.closure_failures, {(m, b): number of pairs})."""
    run = _FieldRun(ctx, RunConfig())
    counts = {mb: len(s.pairs) for mb, s in run.sweeps().items()}
    return (sum(counts.values()), claims._inverse_failures(run),
            fp2.closure_failures(ctx, run.sweeps()), counts)


@pytest.mark.parametrize("p,n,make", [(5, 2, "field"), (7, 2, "field"), (5, 2, "zech_field")])
def test_thm15_sweep_matches_the_pairwise_route(request, p, n, make):
    ctx = request.getfixturevalue(make)(p, n)
    got = _claims_thm15_sweep(ctx)
    assert got == _pairwise_thm15_sweep(ctx)
    assert got[1:3] == ([], [])


def _plant_delta(monkeypatch, at, delta):
    """fp2._derive, which derive_params and the sweep share, with its
    delta replaced by delta(delta) at the instance at = (m, b, alpha,
    beta), which _derive meets as (m, d, alpha, beta)."""
    derive = fp2._derive
    m0, b0, alpha0, beta0 = at

    def planted(ctx, m, d, alpha, beta):
        gamma, epsilon, value = derive(ctx, m, d, alpha, beta)
        if (m, d, alpha, beta) == (m0, hmd_d(ctx, m0, b0), alpha0, beta0):
            value = delta(value)
        return gamma, epsilon, value

    monkeypatch.setattr(fp2, "_derive", planted)


def test_reproduce_field_derives_each_instance_once(monkeypatch):
    # F_25: 3 exponents, 6 roots b and 80 constructible pairs each
    ctx = build_field(5, 2)
    calls = _count_calls(monkeypatch, fp2, "_derive", key=lambda ctx, m, d, alpha, beta: (
        m, d, alpha, beta))
    reproduce_field(ctx, RunConfig())
    assert calls == Counter((m, hmd_d(ctx, m, b), alpha, beta)
                            for m in range(2, 5) for b in fp2.family_b_values(ctx)
                            for alpha, beta in fp2.constructible_pairs(ctx, m, b))
    assert sum(calls.values()) == 1440


def test_thm15_sweep_derives_without_revalidating(field, monkeypatch):
    # constructible_pairs validated every (alpha, beta) the sweep reads
    ctx = field(5, 2)
    want = _claims_thm15_sweep(ctx)
    monkeypatch.setattr(fp2, "derive_params", None)
    assert _claims_thm15_sweep(ctx) == want


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_thm15_sweep_planted_delta(request, monkeypatch, make):
    ctx = request.getfixturevalue(make)(5, 2)
    b = fp2.family_b_values(ctx)[1]
    at = (3, b, *fp2.constructible_pairs(ctx, 3, b)[5])
    _plant_delta(monkeypatch, at, lambda delta: ctx.add(delta, 1))
    wrong = _claims_thm15_sweep(ctx)
    assert wrong == _pairwise_thm15_sweep(ctx)
    assert wrong[1] == [("inverse mismatch", *at)]
    _plant_delta(monkeypatch, at, lambda delta: 0)
    zero = _claims_thm15_sweep(ctx)
    assert zero == _pairwise_thm15_sweep(ctx)
    assert zero[1] == [("inverse mismatch", *at)] and zero[2] == [("zero delta", *at)]


@pytest.mark.parametrize("make", ["field", "zech_field"])
def test_thm15_closure_names_an_inverse_instance_off_the_conditions(request, monkeypatch, make):
    # delta times the primitive element, which is not in F_p, moves the
    # inverse instance's (beta + d alpha)^(p-1) off the second condition
    ctx = request.getfixturevalue(make)(5, 2)
    b = fp2.family_b_values(ctx)[3]
    at = (2, b, *fp2.constructible_pairs(ctx, 2, b)[7])
    _plant_delta(monkeypatch, at, lambda delta: ctx.mul(delta, ctx.primitive))
    got = _claims_thm15_sweep(ctx)
    assert got == _pairwise_thm15_sweep(ctx)
    assert got[2] == [("inverse instance fails conditions", *at)]
    closure = _row("thm15.closure")[2]
    status, _, observed, _ = closure(_FieldRun(ctx, RunConfig()))
    assert (status, observed) == ("refuted", [("inverse instance fails conditions", *at)])


def test_thm15_sweep_tags_a_non_permutation(monkeypatch):
    # an F_25 pair failing the second condition whose f does not permute,
    # let through constructible_pairs and build_pair's condition check
    ctx = build_field(5, 2)
    m, b = 2, fp2.family_b_values(ctx)[0]
    extra = next((alpha, beta) for alpha in range(1, ctx.q) for beta in range(1, ctx.q)
                 if check_conditions(ctx, m, b, alpha, beta).cond1
                 and not check_conditions(ctx, m, b, alpha, beta).cond2
                 and ctx.pow(beta, ctx.p) != ctx.mul(alpha, hmd_d(ctx, m, b))  # derive_params' guard
                 and not is_permutation(ctx, family_poly(ctx, m, b, alpha, beta)).is_pp)
    pairs, verdict = fp2.constructible_pairs, fp2.check_conditions
    monkeypatch.setattr(fp2, "constructible_pairs",
                        lambda ctx, mm, bb: pairs(ctx, mm, bb) + ([extra] if (mm, bb) == (m, b) else []))
    monkeypatch.setattr(fp2, "check_conditions",
                        lambda *args: fp2.ConditionVerdict(True, True) if args[1:] == (m, b, *extra)
                        else verdict(*args))
    got = _claims_thm15_sweep(ctx)
    assert got == _pairwise_thm15_sweep(ctx)
    assert got[1] == [("not a PPR", m, b, *extra)]
