"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop of one caller: `build` makes the inputs
from the seed (field contexts included, so their cost is set-up time),
`run` is one timed pass through public ppshift functions, and `check`
compares a pass's output with what the paper and the parent commit
give. Checks never run inside the timed region. NOTES.md explains why
each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

# sha256 of `ppshift reproduce --format json` (default roster, seed 0)
# as produced by the parent commit of the benchmark; the refactors the
# roadmap plans must keep this report byte-identical.
ROSTER_SEED0_SHA256 = "865c488b574dda2f2cbefee388e918a8ce9b82b5973c26fd12c2ed64781396a6"
ROSTER_CLAIMS = 344
# the single refutation the catalog expects on the default roster
ROSTER_EXPECTED_REFUTED = {("lemma1.operator_order", "F_4")}
ROSTER_PASSING = {"verified", "measured", "skipped"}

# operators: F_343 runs the flat-table arithmetic, F_625 the exp/log
# path (q > gf.FLAT_TABLE_LIMIT = 512)
OPS_CHAIN_FIELD = (7, 3)
OPS_CHAIN_KS = range(1, 8)
OPS_VK_KS = (1, 2)
OPS_LARGE_FIELD = (5, 4)

# family over F_121: full shape counts per m, the same for each of the
# 12 admissible b, recorded from the parent commit
FAMILY_FIELD = (11, 2)
FAMILY_CENSUS_FULL = {2: 1100, 6: 5940}
# The sweep's cost grows with m (build_pair and evaluation are of degree
# m*p), so a seed-chosen m would make runs with different seeds do
# different work; the seed picks b, whose cost is flat.
FAMILY_SWEEP_M = 6


@dataclass
class Outcome:
    """Checks of one pass: how many ran and a description of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple[tuple[int, int], ...]
    build: Callable  # (mods, seed) -> inputs; timed as set-up
    run: Callable  # (mods, inputs) -> output; one timed pass
    check: Callable  # (inputs, output) -> Outcome


# -- roster --


def _roster_build(mods, seed: int) -> dict:
    return {"seed": seed, "cfg": mods.claims.RunConfig(seed=seed)}


def _roster_run(mods, inputs) -> str:
    reports = mods.claims.reproduce(inputs["cfg"])
    return mods.cli.emit_report(reports, "json")


def check_roster(inputs, text: str) -> Outcome:
    out = Outcome()
    try:
        claims = json.loads(text)["claims"]
    except (ValueError, KeyError, TypeError) as exc:
        out.expect(False, f"report does not parse: {exc}")
        return out
    out.expect(len(claims) == ROSTER_CLAIMS, f"{len(claims)} claims, expected {ROSTER_CLAIMS}")
    for claim in claims:
        key = (claim.get("claim_id"), claim.get("field"))
        status = claim.get("status")
        ok = status == "refuted" if key in ROSTER_EXPECTED_REFUTED else status in ROSTER_PASSING
        out.expect(ok, f"{key[0]} on {key[1]}: {status}")
    if inputs["seed"] == 0:
        digest = hashlib.sha256(text.encode()).hexdigest()
        out.expect(digest == ROSTER_SEED0_SHA256, f"seed-0 report digest {digest[:16]}")
    return out


# -- operators --


def _ops_build(mods, seed: int) -> dict:
    rng = random.Random(f"operators:{seed}")
    chain = mods.gf.build_field(*OPS_CHAIN_FIELD)
    large = mods.gf.build_field(*OPS_LARGE_FIELD)
    # dims are the same for every nonzero shift, and so is the cost
    return {
        "chain": chain, "chain_r": 1 + rng.randrange(chain.q - 1),
        "large": large, "large_r": 1 + rng.randrange(large.q - 1),
    }


def _ops_run(mods, inputs) -> list[tuple]:
    eigen = mods.eigen
    chain, large = inputs["chain"], inputs["large"]
    dims = [("ker", chain.p, chain.n, k, eigen.kernel_power(chain, inputs["chain_r"], k).dim)
            for k in OPS_CHAIN_KS]
    dims += [("V", chain.p, chain.n, k, eigen.intersection_space(chain, k).dim)
             for k in OPS_VK_KS]
    dims.append(("ker", large.p, large.n, 1, eigen.kernel_power(large, inputs["large_r"], 1).dim))
    return dims


def check_operators(inputs, dims) -> Outcome:
    out = Outcome()
    expected_rows = len(OPS_CHAIN_KS) + len(OPS_VK_KS) + 1
    out.expect(len(dims) == expected_rows, f"{len(dims)} results, expected {expected_rows}")
    for kind, p, n, k, dim in dims:
        q = p**n
        want = min(k * p ** (n - 1), q - 2) if kind == "ker" else k**n + n - 1
        out.expect(dim == want, f"dim {kind}_{k} over F_{q} = {dim}, expected {want}")
    return out


# -- family --


def _family_build(mods, seed: int) -> dict:
    ctx = mods.gf.build_field(*FAMILY_FIELD)
    bs = mods.fp2.family_b_values(ctx)
    rng = random.Random(f"family:{seed}")
    return {"ctx": ctx, "bs": bs, "sweep_b": bs[rng.randrange(len(bs))]}


def _family_run(mods, inputs) -> dict:
    fp2, pp = mods.fp2, mods.pp
    ctx, m, b = inputs["ctx"], FAMILY_SWEEP_M, inputs["sweep_b"]
    censuses = [fp2.census(ctx, cm, cb, "full") for cm in FAMILY_CENSUS_FULL for cb in inputs["bs"]]
    mismatches = []
    pairs = fp2.constructible_pairs(ctx, m, b)
    for alpha, beta in pairs:
        f, h = fp2.build_pair(fp2.derive_params(ctx, m, b, alpha, beta))
        if h != pp.compositional_inverse(ctx, f):
            mismatches.append((alpha, beta))
    suite = fp2.lemma_suite(ctx)
    return {"censuses": censuses, "pairs": len(pairs), "mismatches": mismatches,
            "lemmas": [(c.name, c.passed) for c in suite.checks]}


def check_family(inputs, result) -> Outcome:
    out = Outcome()
    p = inputs["ctx"].p
    conditioned = p * (p - 1) ** 2
    want_census = len(FAMILY_CENSUS_FULL) * len(inputs["bs"])
    got_census = len(result["censuses"])
    out.expect(got_census == want_census, f"{got_census} censuses, expected {want_census}")
    for c in result["censuses"]:
        out.expect(c.conditioned == conditioned,
                   f"conditioned count m={c.m} b={c.b}: {c.conditioned} != {conditioned}")
        want = FAMILY_CENSUS_FULL.get(c.m)
        out.expect(c.full == want, f"full count m={c.m} b={c.b}: {c.full} != {want}")
    out.expect(result["pairs"] == conditioned,
               f"{result['pairs']} constructible pairs swept, expected {conditioned}")
    # one check per swept pair; a pair whose inverse differs fails its own
    out.attempted += result["pairs"]
    out.failures += [f"inverse mismatch at (alpha, beta) = {ab}" for ab in result["mismatches"]]
    out.expect(len(result["lemmas"]) == 6, f"{len(result['lemmas'])} lemma checks, expected 6")
    for name, passed in result["lemmas"]:
        out.expect(passed, f"lemma suite: {name} failed")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "roster",
            "the default reproduce roster F_4..F_49 rendered as JSON: the product users run",
            ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)),
            _roster_build, _roster_run, check_roster,
        ),
        Workload(
            "operators",
            "kernel chain and V_1, V_2 on F_343 plus ker(A_r - I) on F_625: shift-operator algebra",
            (OPS_CHAIN_FIELD, OPS_LARGE_FIELD),
            _ops_build, _ops_run, check_operators,
        ),
        Workload(
            "family",
            "F_121 family censuses, a swept inverse check and the lemma suite: enumeration, no matrices",
            (FAMILY_FIELD,),
            _family_build, _family_run, check_family,
        ),
    )
}
