"""Self-tests of the benchmark's tracer and correctness gates.

    python3 -m pytest perfbench -q

The last test runs one traced roster pass (about half a minute).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_on_synthetic_tree():
    t = tr.Tracer()
    a = t.record("A", 0.0, 10.0)
    t.record("B", 1.0, 4.0, parent=a)
    c = t.record("C", 5.0, 9.0, parent=a)
    t.record("D", 6.0, 7.0, parent=c)
    t.record("B", 11.0, 12.0)
    totals = tr.layer_totals(t)
    assert totals["A"] == tr.LayerTotals(1, 10.0, 3.0)
    assert totals["B"] == tr.LayerTotals(2, 4.0, 4.0)
    assert totals["C"] == tr.LayerTotals(1, 4.0, 3.0)
    assert totals["D"] == tr.LayerTotals(1, 1.0, 1.0)


def test_wrapped_calls_nest_and_count():
    t = tr.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = t.wrap(leaf, "leaf", on_result=lambda tracer, r: tracer.count("sum", r))

    def outer(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    assert t.wrap(outer, "outer", label=lambda x: f"outer.{x}")(2) == 6
    names = [t.names[i] for i in t.cols["name"]]
    assert names == ["outer.2", "leaf", "leaf"]
    assert list(t.cols["parent"]) == [-1, 0, 0]
    assert t.counters == {"sum": 6}
    totals = tr.layer_totals(t)
    assert totals["outer.2"].self_s <= totals["outer.2"].total_s


def test_spans_round_trip(tmp_path):
    t = tr.Tracer()
    t.pass_id = 1
    t.record("x", 1.0, 2.5, parent=t.record("y", 0.0, 3.0))
    t.count("n", 3)
    path = tmp_path / "t.spans"
    t.dump(path, {"workload": "w"})
    header, back = tr.load(path)
    assert header["meta"] == {"workload": "w"}
    assert back.names == t.names and back.counters == t.counters
    assert {c: list(v) for c, v in back.cols.items()} == {c: list(v) for c, v in t.cols.items()}


def test_install_reaches_every_namespace_and_restores():
    mods = run.load_ppshift()
    original = mods.poly.eval_table
    intersect = mods.eigen.Subspace.intersect
    holders = [m for m in vars(mods).values() if vars(m).get("eval_table") is original]
    assert len(holders) > 1  # poly itself plus the modules importing it by name
    t = tr.Tracer()
    uninstall = tr.install(t, vars(mods), run.LAYERS)
    try:
        assert all(m.eval_table is not original for m in holders)
        assert mods.eigen.Subspace.intersect.__wrapped__ is intersect
        ctx = mods.gf.build_field(3, 1)
        mods.pp.compositional_inverse(ctx, [0, 1])
    finally:
        uninstall()
    assert all(m.eval_table is original for m in holders)
    assert mods.eigen.Subspace.intersect is intersect
    totals = tr.layer_totals(t)
    assert totals["pp.compositional_inverse"].calls == 1
    assert totals["poly.eval_table"].calls == 1
    assert totals["pp.interpolate_table"].calls == 1


def _roster_report(statuses) -> str:
    claims = ",".join(
        f'{{"claim_id": "{cid}", "field": "{f}", "status": "{s}"}}' for cid, f, s in statuses
    )
    return f'{{"schema": 1, "claims": [{claims}]}}'


def _good_statuses():
    rows = [("lemma1.operator_order", "F_4", "refuted")]
    rows += [(f"claim{i}", "F_49", "verified") for i in range(wl.ROSTER_CLAIMS - 1)]
    return rows


def test_roster_gate_accepts_expected_statuses_and_rejects_corruption():
    good = _good_statuses()
    assert wl.check_roster({"seed": 1}, _roster_report(good)).failures == []

    flipped = list(good)
    flipped[5] = ("claim4", "F_49", "refuted")
    out = wl.check_roster({"seed": 1}, _roster_report(flipped))
    assert out.failures == ["claim4 on F_49: refuted"]

    unrefuted = [("lemma1.operator_order", "F_4", "verified")] + good[1:]
    assert len(wl.check_roster({"seed": 1}, _roster_report(unrefuted)).failures) == 1
    assert len(wl.check_roster({"seed": 1}, _roster_report(good[:-1])).failures) == 1

    # seed 0 is also gated on the exact bytes of the parent's report
    out = wl.check_roster({"seed": 0}, _roster_report(good))
    assert out.attempted == wl.ROSTER_CLAIMS + 2 and len(out.failures) == 1
    assert wl.check_roster({"seed": 0}, "not json").failures


def test_operator_and_family_gates_reject_wrong_values():
    dims = [("ker", 7, 3, k, min(k * 49, 341)) for k in wl.OPS_CHAIN_KS]
    dims += [("V", 7, 3, 1, 3), ("V", 7, 3, 2, 10), ("ker", 5, 4, 1, 125)]
    assert wl.check_operators({}, dims).failures == []
    dims[3] = ("ker", 7, 3, 4, 195)
    assert len(wl.check_operators({}, dims).failures) == 1

    ctx = SimpleNamespace(p=11)
    bs = list(range(12))
    census = [SimpleNamespace(m=m, b=b, conditioned=1100, full=full)
              for m, full in wl.FAMILY_CENSUS_FULL.items() for b in bs]
    result = {"censuses": census, "pairs": 1100, "mismatches": [],
              "lemmas": [(f"lemma{i}", True) for i in range(20, 26)]}
    inputs = {"ctx": ctx, "bs": bs}
    good = wl.check_family(inputs, result)
    assert good.failures == [] and good.attempted == 1 + 24 * 2 + 1 + 1100 + 1 + 6
    bad = dict(result, mismatches=[(3, 4)], lemmas=result["lemmas"][:5] + [("lemma25", False)])
    bad["censuses"] = census[:-1] + [SimpleNamespace(m=6, b=11, conditioned=1100, full=5939)]
    out = wl.check_family(inputs, bad)
    assert out.attempted == good.attempted and len(out.failures) == 3


def test_traced_roster_report_is_byte_identical():
    mods = run.load_ppshift()
    t = tr.Tracer()
    uninstall = tr.install(t, vars(mods), run.LAYERS)
    try:
        text = wl.WORKLOADS["roster"].run(mods, {"cfg": mods.claims.RunConfig(seed=0)})
    finally:
        uninstall()
    # the digest is that of the untraced report, which untraced runs gate on
    assert hashlib.sha256(text.encode()).hexdigest() == wl.ROSTER_SEED0_SHA256
    names = set(tr.layer_totals(t))
    assert {f"claims.{f}" for f in run.ROSTER_FIELDS} <= names
    assert {"cli.emit_report", "eigen.mat_mul", "pp.enumerate_pprs"} <= names
