"""Command-line front door.

Subcommands: field-info, eigenspace, intersect, is-pp, hermite,
invert, enumerate, degree-dist, fp2 verify|census|lemmas, reproduce.
All numeric output is exact (element indices and integers); every JSON
document carries "schema": 1 and output is byte-identical across runs
for a fixed configuration.

--format offers only what a subcommand renders: json everywhere, csv
for enumerate, degree-dist, fp2 census|lemmas and reproduce, markdown
for reproduce alone. The parser refuses any other value.

Exit codes: 0 verdict computed (refutations are data, not failures),
1 stdout closed before the output was written, 2 precondition
violation (reproduce --p 2 among them: V[x] is empty over F_2),
3 enumeration budget exceeded, 64 usage (a refused --format too).
reproduce never exits 3: it reports a claim over the budget as skipped,
with the budget message as the note, and runs the other claims.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from . import eigen, fp2, pp
from .claims import CLAIM_ANCHORS, SECTION_ORDER, ClaimReport, RunConfig, reproduce
from .errors import BudgetExceededError, PreconditionError
from .gf import FieldContext, build_field, line_count, line_decomposition
from .poly import format_poly, parse_poly

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def element_str(ctx: FieldContext, x: int) -> str:
    """Render an element index as a polynomial in t over F_p."""
    if ctx.n == 1 or x < ctx.p:
        return str(x)
    parts = []
    for i in reversed(range(ctx.n)):
        c = ctx.digits(x)[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            parts.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(parts) if parts else "0"


def _field_block(ctx: FieldContext) -> dict:
    return {"p": ctx.p, "n": ctx.n, "q": ctx.q, "modulus": list(ctx.modulus)}


def _parse_modulus(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--modulus expects comma-separated integers: {exc}") from exc


def _build_ctx(args) -> FieldContext:
    if args.p is None:
        raise UsageError("--p is required")
    return build_field(args.p, args.n, modulus_override=_parse_modulus(args.modulus))


def _read_poly(ctx: FieldContext, args) -> list[int]:
    text = args.poly
    if text is None or text == "-":
        text = sys.stdin.read()
    try:
        return parse_poly(ctx, text)
    except PreconditionError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render(args, ctx: FieldContext, body: dict, table=None) -> str:
    """A subcommand's output: body under the schema and field block as
    JSON, or table's (header, rows) as CSV."""
    if args.format == "csv":
        return _csv(*table)
    return json.dumps({"schema": 1, "field": _field_block(ctx), **body}, indent=2)


# -- subcommand handlers: each returns the text dispatch emits --


def _cmd_field_info(args) -> str:
    ctx = _build_ctx(args)
    return _render(args, ctx, {
        "modulus_str": " + ".join(
            f"{c}*t^{e}" for e, c in reversed(list(enumerate(ctx.modulus))) if c
        ),
        "primitive": ctx.primitive,
        "primitive_str": element_str(ctx, ctx.primitive),
        "lines": line_count(ctx),
        "line_representatives": [line.representative for line in line_decomposition(ctx)],
    })


def _cmd_eigenspace(args) -> str:
    ctx = _build_ctx(args)
    space = eigen.kernel_power(ctx, args.r, args.k)
    return _render(args, ctx, {
        "r": args.r,
        "k": args.k,
        "dim": space.dim,
        "basis": [format_poly(ctx, f) for f in space.polynomials()],
    })


def _cmd_intersect(args) -> str:
    ctx = _build_ctx(args)
    generators = args.r if args.r else eigen.default_generators(ctx)
    space = eigen.intersection_space(ctx, args.k, generators)
    return _render(args, ctx, {
        "generators": list(generators),
        "k": args.k,
        "dim": space.dim,
        "basis": [format_poly(ctx, f) for f in space.polynomials()],
    })


def _cmd_is_pp(args) -> str:
    ctx = _build_ctx(args)
    f = _read_poly(ctx, args)
    verdict = pp.is_permutation(ctx, f)
    return _render(args, ctx, {
        "poly": format_poly(ctx, f),
        "is_pp": verdict.is_pp,
        "is_ppr": verdict.is_ppr,
        "witness": list(verdict.witness) if verdict.witness else None,
    })


def _cmd_hermite(args) -> str:
    ctx = _build_ctx(args)
    f = _read_poly(ctx, args)
    return _render(args, ctx, {"poly": format_poly(ctx, f), "hermite": pp.hermite_test(ctx, f)})


def _cmd_invert(args) -> str:
    ctx = _build_ctx(args)
    f = _read_poly(ctx, args)
    h = pp.compositional_inverse(ctx, f)
    return _render(args, ctx, {"poly": format_poly(ctx, f), "inverse": format_poly(ctx, h)})


def _cmd_enumerate(args) -> str:
    ctx = _build_ctx(args)
    if args.r is not None:
        space = eigen.kernel_power(ctx, args.r, args.k)
        space_desc = {"space": "kernel", "r": args.r, "k": args.k}
    else:
        space = eigen.intersection_space(ctx, args.k)
        space_desc = {"space": "vk", "k": args.k}
    report = pp.enumerate_pprs(ctx, space, budget=args.budget)
    body = {
        **space_desc,
        "dim": space.dim,
        "searched": report.searched,
        "ppr_count": report.ppr_count,
        "pprs": None
        if report.ppr_list is None
        else [format_poly(ctx, list(c)) for c in report.ppr_list],
    }
    header = ["p", "n", "space", "k", "r", "dim", "searched", "ppr_count"]
    row = [ctx.p, ctx.n, space_desc["space"], args.k, args.r, space.dim,
           report.searched, report.ppr_count]
    return _render(args, ctx, body, (header, [row]))


def _cmd_degree_dist(args) -> str:
    ctx = _build_ctx(args)
    census = pp.degree_distribution(ctx, budget=args.budget)
    counts = sorted(census.counts.items())
    return _render(args, ctx, {
        "counts": {str(d): c for d, c in counts},
        "total": census.total,
        "stage_violations": [list(v) for v in census.stage_violations],
    }, (["degree", "ppr_count"], counts))


def _cmd_fp2_verify(args) -> str:
    ctx = _build_ctx(args)
    body = {"m": args.m, "b": args.b}
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise UsageError("--alpha and --beta come together")
        verdict = fp2.check_conditions(ctx, args.m, args.b, args.alpha, args.beta)
        body.update(
            alpha=args.alpha, beta=args.beta,
            cond1=verdict.cond1, cond2=verdict.cond2, constructible=verdict.constructible,
        )
        if verdict.constructible:
            inst = fp2.derive_params(ctx, args.m, args.b, args.alpha, args.beta)
            f, h = fp2.build_pair(inst)
            body.update(
                gamma=inst.gamma, epsilon=inst.epsilon, delta=inst.delta, d=inst.d,
                f=format_poly(ctx, f), h=format_poly(ctx, h),
                inverse_verified=pp.is_compositional_inverse(ctx, f, h),
            )
        return _render(args, ctx, body)
    sweep = fp2.inverse_sweep(ctx, args.m, args.b)
    failures = [[alpha, beta] for _, alpha, beta in sweep.failures]
    body.update(instances=len(sweep.pairs), expected_instances=ctx.p * (ctx.p - 1) ** 2,
                failures=failures, all_verified=not failures)
    return _render(args, ctx, body)


def _cmd_fp2_census(args) -> str:
    ctx = _build_ctx(args)
    ms = [args.m] if args.m is not None else list(range(2, ctx.p))
    bs = [args.b] if args.b is not None else fp2.family_b_values(ctx)
    entries = []
    for m in ms:
        for b in bs:
            report = fp2.census(ctx, m, b, args.mode)
            entries.append(
                {"m": m, "b": b, "conditioned": report.conditioned,
                 "full": report.full, "excess": report.excess}
            )
    header = ["p", "m", "b", "conditioned", "full", "excess"]
    rows = [[ctx.p, *(e[k] for k in header[1:])] for e in entries]
    return _render(args, ctx, {"mode": args.mode, "entries": entries}, (header, rows))


def _cmd_fp2_lemmas(args) -> str:
    ctx = _build_ctx(args)
    suite = fp2.lemma_suite(ctx)
    checks = [
        {
            "name": c.name,
            "statement": c.statement,
            "checked": c.checked,
            "skipped": c.skipped,
            "passed": c.passed,
            "counterexamples": [list(x) for x in c.counterexamples[:5]],
        }
        for c in suite.checks
    ]
    header = ["name", "checked", "skipped", "passed"]
    rows = [[c[k] for k in header] for c in checks]
    return _render(args, ctx, {"passed": suite.passed, "checks": checks}, (header, rows))


def emit_report(reports: list[ClaimReport], fmt: str) -> str:
    """Render claim reports: json, csv (one row per claim) or markdown
    (one table per section)."""
    if fmt == "json":
        return json.dumps({"schema": 1, "claims": [vars(r) for r in reports]}, indent=2)
    if fmt == "csv":
        return _csv(
            [f.name for f in dataclasses.fields(ClaimReport)],
            ([json.dumps(v) if k in ("expected", "observed") else v for k, v in vars(r).items()]
             for r in reports),
        )
    if fmt == "markdown":
        lines = ["# Claim report", ""]
        for section in SECTION_ORDER:
            rows = [r for r in reports if CLAIM_ANCHORS[r.claim_id][0] == section]
            if not rows:
                continue
            lines.append(f"## {section}")
            lines.append("")
            lines.append("| claim | field | status | expected | observed | note |")
            lines.append("|---|---|---|---|---|---|")
            for r in rows:
                cells = [
                    r.claim_id, r.field, r.status,
                    json.dumps(r.expected), json.dumps(r.observed), r.note,
                ]
                lines.append("| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |")
            lines.append("")
        return "\n".join(lines).rstrip("\n")
    raise UsageError(f"unsupported format {fmt!r}")


def _cmd_reproduce(args) -> str:
    cfg = RunConfig(
        p=args.p,
        n=args.n if args.p is not None else None,
        modulus_override=_parse_modulus(args.modulus),
        budget=args.budget,
        seed=args.seed,
        timings=args.timings,
    )
    return emit_report(reproduce(cfg), args.format)


def _add_common(parser, poly_arg=False, n_default=1, formats=("json",)) -> None:
    parser.add_argument("--p", type=int, default=None, help="field characteristic (prime)")
    parser.add_argument("--n", type=int, default=n_default, help="extension degree")
    parser.add_argument("--modulus", default=None,
                        help="override modulus, comma-separated coefficients, degree 0 first")
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--out", default=None, help="write the report to FILE")
    if poly_arg:
        parser.add_argument("poly", nargs="?", default=None,
                            help="polynomial like '1*x^6 + 2*x^2' (stdin when omitted)")


def _add_budget(parser) -> None:
    parser.add_argument("--budget", type=int, default=pp.DEFAULT_BUDGET,
                        help="candidate cap for enumerations")


def build_parser() -> _Parser:
    parser = _Parser(prog="ppshift", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("field-info", help="modulus, primitive element and line count")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_field_info)

    sp = sub.add_parser("eigenspace", help="basis of ker((A_r - I)^k)")
    _add_common(sp)
    sp.add_argument("--r", type=int, required=True, help="shift element index")
    sp.add_argument("--k", type=int, required=True, help="kernel power")
    sp.set_defaults(handler=_cmd_eigenspace)

    sp = sub.add_parser("intersect", help="basis of the intersection space V_k")
    _add_common(sp)
    sp.add_argument("--r", type=int, action="append", default=None,
                    help="generator shift (repeatable; default 1, a, ..., a^(n-1))")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=_cmd_intersect)

    sp = sub.add_parser("is-pp", help="bijectivity verdict for a polynomial")
    _add_common(sp, poly_arg=True)
    sp.set_defaults(handler=_cmd_is_pp)

    sp = sub.add_parser("hermite", help="power-degree permutation criterion")
    _add_common(sp, poly_arg=True)
    sp.set_defaults(handler=_cmd_hermite)

    sp = sub.add_parser("invert", help="compositional inverse of a permutation")
    _add_common(sp, poly_arg=True)
    sp.set_defaults(handler=_cmd_invert)

    sp = sub.add_parser("enumerate", help="count the PPRs inside V_k or one kernel")
    _add_common(sp, formats=("json", "csv"))
    _add_budget(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, default=None,
                    help="enumerate ker((A_r - I)^k) instead of V_k")
    sp.set_defaults(handler=_cmd_enumerate)

    sp = sub.add_parser("degree-dist", help="degree census of prime-field PPRs")
    _add_common(sp, formats=("json", "csv"))
    _add_budget(sp)
    sp.set_defaults(handler=_cmd_degree_dist)

    fp2_parser = sub.add_parser("fp2", help="the quadratic-extension family")
    fp2_sub = fp2_parser.add_subparsers(dest="fp2_command")

    # the family lives over quadratic extensions
    sp = fp2_sub.add_parser("verify", help="check the parametric inverse for (m, b)")
    _add_common(sp, n_default=2)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--b", type=int, required=True, help="root-of-unity element index")
    sp.add_argument("--alpha", type=int, default=None)
    sp.add_argument("--beta", type=int, default=None)
    sp.set_defaults(handler=_cmd_fp2_verify)

    sp = fp2_sub.add_parser("census", help="count family permutations")
    _add_common(sp, n_default=2, formats=("json", "csv"))
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--mode", choices=("conditioned", "full"), default="conditioned")
    sp.set_defaults(handler=_cmd_fp2_census)

    sp = fp2_sub.add_parser("lemmas", help="run the identity suite")
    _add_common(sp, n_default=2, formats=("json", "csv"))
    sp.set_defaults(handler=_cmd_fp2_lemmas)

    sp = sub.add_parser("reproduce", help="claim-by-claim verification report")
    _add_common(sp, formats=("json", "csv", "markdown"))
    _add_budget(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--timings", action="store_true", help="include wall-clock runtimes")
    sp.set_defaults(handler=_cmd_reproduce)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        _emit(args.handler(args), args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionError, ZeroDivisionError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); silence the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
