"""Command line front end.

Subcommands: classpoly, cmpoints, modpoly-eval, norm, greens, sweep.

Exit code contract (scientifically meaningful, do not conflate 1 and 2):
  0  every requested assertion passed, or the value is legally zero
  1  an assertion failed, i.e. a numerical counterexample to a claimed bound
  2  computational failure (precision exhausted, tail budget, numeric
     overflow, bad input)

A sweep with both counterexamples and failed instances exits 1.  norm and
sweep run verify.verify_instance, which records a failed instance in its
report, and take their exit code from the summarize() tally of the reports.
Every exception that means exit 2 (PrecisionError, TailBudgetError,
OverflowError, ValueError and its subclasses QuadFormError,
SingularityError) is mapped in main alone; the subcommands catch nothing.

Big integers are serialized as decimal strings in JSON output so results
survive any JSON parser.  Point arguments accept three spellings: a negative
discriminant (principal class), a form triple "a,b,c", or a complex number
like "0.3+1.1i" / "2i" / "-0.3+1.1i" (see _Parser).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import mpmath as mp

from . import cache as diskcache
from .numerics import GUARD_BITS, PrecisionContext, PrecisionError
from .quadforms import QuadForm, enumerate_reduced, reduce_form
from .modular import (
    JValue,
    classpoly,
    coset_apply,
    hecke_cosets,
    j_eval,
    modpoly_eval,
)
from .greens import G_k_m, TailBudgetError
from .cmcycles import build_cycle
from .verify import (
    fundamental_discriminants,
    summarize,
    sweep,
    verify_instance,
)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_COMPUTE = 2


def parse_point(text: str):
    """Discriminant, form triple or complex number -> reduced form (a CM
    point) or complex."""
    text = text.strip()
    if re.fullmatch(r"-\d+", text):
        return enumerate_reduced(int(text)).identity
    if re.fullmatch(r"-?\d+\s*,\s*-?\d+\s*,\s*-?\d+", text):
        a, b, c = (int(s) for s in text.split(","))
        return reduce_form(QuadForm(a, b, c))
    # complex: accept i as the imaginary unit, with or without a coefficient
    expr = text.replace(" ", "").replace("I", "i")
    expr = re.sub(r"(?<![\d.])i", "1j", expr).replace("i", "j")
    z = complex(expr)
    if not z.imag > 0:
        raise ValueError(f"point {text!r} is not in the upper half plane")
    return z


def _positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"invalid input: {text} is not a positive integer")
    return int(text)


def _context(args) -> PrecisionContext:
    return PrecisionContext(mantissa_bits=args.precision_bits)


def _emit(args, payload, text: str):
    body = json.dumps(payload, indent=2) if args.json else text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def _poly_text(coeffs) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0 and len(coeffs) > 1:
            continue
        mono = "X" if power == 1 else (f"X^{power}" if power else "")
        if power == len(coeffs) - 1:
            lead = "" if abs(c) == 1 and power else str(c)
            terms.append(f"{lead}{mono}" if c > 0 else f"-{lead.lstrip('-')}{mono}")
            continue
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        coef = "" if mag == 1 and power else str(mag)
        terms.append(f"{sign} {coef}{mono}".rstrip())
    return " ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# subcommands


def cmd_classpoly(args) -> int:
    d = args.d
    ctx = _context(args)
    coeffs = None
    if args.cache_dir:
        coeffs = diskcache.load_ints(args.cache_dir, f"classpoly:{d}")
    if coeffs is None:
        coeffs = classpoly(d, ctx)
        if args.cache_dir:
            diskcache.store_ints(args.cache_dir, f"classpoly:{d}", coeffs)
    payload = {"d": d, "degree": len(coeffs) - 1,
               "coeffs": [str(c) for c in coeffs]}
    _emit(args, payload, _poly_text(coeffs))
    return EXIT_OK


def cmd_cmpoints(args) -> int:
    d = args.d
    group = enumerate_reduced(d)
    ctx = _context(args)
    rows = []
    for form in group.reduced_forms:
        z = form.approx()
        entry = {"form": [form.a, form.b, form.c],
                 "point": f"(-({form.b}) + sqrt({d}))/{2 * form.a}",
                 "approx": [z.real, z.imag]}
        if args.j:
            # at the context's scale, whatever finer value the point cache holds
            scale = ctx.mantissa_bits + GUARD_BITS
            re, im, err = j_eval(form, ctx).at_scale(scale)
            # a part inside the certified error is shown as 0
            shown = JValue(re if abs(re) > err else 0, im if abs(im) > err else 0,
                           err, scale)
            with ctx.workprec():
                entry["j"] = mp.nstr(shown.value if shown.im else shown.value.real, 20)
                entry["j_error"] = mp.nstr(shown.error, 5)
        rows.append(entry)
    payload = {"d": d, "d_K": group.discriminant.d_K,
               "conductor": group.discriminant.f, "h": group.h, "points": rows}
    lines = [f"d = {d} = {group.discriminant.f}^2 * {group.discriminant.d_K}, "
             f"h = {group.h}"]
    for entry in rows:
        a, b, c = entry["form"]
        line = f"  ({a},{b},{c})  z ~ {entry['approx'][0]:+.6f} + {entry['approx'][1]:.6f}i"
        if args.j:
            line += f"  j = {entry['j']}"
        lines.append(line)
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_modpoly_eval(args) -> int:
    ctx = _context(args)
    value = modpoly_eval(args.m, parse_point(args.z1), parse_point(args.z2), ctx)
    payload = {"m": args.m, "z1": args.z1, "z2": args.z2,
               "zero": value.is_zero,
               "zero_cosets": [list(c) for c in value.zero_cosets],
               "rel_error": float(value.rel_error)}
    if value.is_zero:
        text = f"phi_{args.m} = 0 (vanishing cosets {list(value.zero_cosets)})"
    else:
        payload["value"] = mp.nstr(value.value, 30)
        payload["log_abs"] = float(value.log_abs())
        text = f"phi_{args.m} = {mp.nstr(value.value, 30)}"
    _emit(args, payload, text)
    return EXIT_OK


def _report_dict(rep) -> dict:
    out = {
        "d1": rep.d1, "d2": rep.d2, "m": rep.m,
        "cycle_kind": rep.cycle_kind, "group_order": rep.group_order,
        "status": rep.status, "asserted": rep.asserted,
        "elapsed": round(rep.elapsed, 4),
    }
    if rep.norm is not None:
        out["norm"] = str(rep.norm)
        out["log_norm"] = rep.log_norm
        out["non_unit"] = rep.non_unit
    if rep.factorization is not None:
        out["factorization"] = [[str(p), e] for p, e in rep.factorization.factors]
        out["cofactor"] = str(rep.factorization.cofactor)
        out["witness"] = rep.witness
    if rep.chain:
        out["chain"] = [{"k": c.k, "mk": c.mk, "neg_gkm": c.neg_gkm,
                         "bound": c.bound, "passed": c.passed} for c in rep.chain]
    if rep.epsilon_bounds:
        out["epsilon_bounds"] = [
            {"epsilon": b.epsilon, "count": b.count, "rhs": b.rhs,
             "lhs": b.lhs, "passed": b.passed} for b in rep.epsilon_bounds]
    if rep.singular_pair is not None:
        out["singular_pair"] = list(rep.singular_pair)
    if rep.error:
        out["error"] = rep.error
    return out


def _report_text(rep) -> str:
    lines = [f"(d1, d2, m) = ({rep.d1}, {rep.d2}, {rep.m})  "
             f"[{rep.cycle_kind}, |Z(W)| = {rep.group_order}]"]
    if rep.status == "zero":
        lines.append(f"  value is zero on the cycle at pair {rep.singular_pair}")
    elif rep.status == "error":
        lines.append(f"  error: {rep.error}")
    else:
        digits = len(str(rep.norm))
        shown = str(rep.norm) if digits <= 50 else f"{str(rep.norm)[:24]}...({digits} digits)"
        tag = "" if rep.asserted else "  [diagnostic product, not asserted as the norm]"
        lines.append(f"  N = {shown}{tag}")
        lines.append(f"  log N = {rep.log_norm:.6f}, non-unit: {rep.non_unit}")
        if rep.factorization is not None:
            lines.append(f"  N = {rep.factorization}")
            lines.append(f"  isogeny witness prime: {rep.witness}")
        for c in rep.chain:
            lines.append(f"  chain k={c.k}: 2 log N = {2 * rep.log_norm:.4f} >= "
                         f"m_k * (-G_k^m) = {c.bound:.4f}  {'pass' if c.passed else 'FAIL'}")
        for b in rep.epsilon_bounds:
            lines.append(f"  eps={b.epsilon}: count {b.count}, "
                         f"log N = {b.lhs:.4f} >= {b.rhs:.6f}  "
                         f"{'pass' if b.passed else 'FAIL'}")
    return "\n".join(lines)


def _exit_code(stats: dict) -> int:
    """Exit code of a summarize() tally: counterexamples outrank failures."""
    if stats["assert_failures"]:
        return EXIT_ASSERT
    return EXIT_COMPUTE if stats["error"] else EXIT_OK


def cmd_norm(args) -> int:
    rep = verify_instance(args.d1, args.d2, args.m, _context(args),
                          epsilons=args.epsilon or (), chain=args.chain,
                          factor=args.factor)
    if rep.status == "error" and rep.error.startswith("chain: "):
        print(f"chain skipped: {rep.error.removeprefix('chain: ')}", file=sys.stderr)
    _emit(args, _report_dict(rep), _report_text(rep))
    return _exit_code(summarize([rep]))


def cmd_greens(args) -> int:
    ctx = _context(args)
    if args.cycle:
        d1, d2 = args.cycle
        cycle = build_cycle(d1, d2)
        total = 0.0
        tail = 0.0
        rows = []
        for pair in cycle.pairs:
            part = G_k_m(args.k, args.m, pair.z1, pair.z2, ctx,
                         tail_target=args.tail)
            rows.append({"pair": list(pair.key),
                         "multiplicity": pair.multiplicity,
                         "value": float(part.value),
                         "tail_bound": part.tail_bound})
            total += pair.multiplicity * float(part.value)
            tail += pair.multiplicity * part.tail_bound
        payload = {"k": args.k, "m": args.m, "d1": d1, "d2": d2,
                   "value": total, "tail_bound": tail, "pairs": rows}
        text = "\n".join(
            [f"G_{args.k}^{args.m}(Z({d1},{d2})) = {total:.9f} "
             f"(tail bound {tail:.2e})"] +
            [f"  pair {r['pair']} x{r['multiplicity']}: {r['value']:.9f}"
             for r in rows])
    else:
        z1 = parse_point(args.z1)
        z2 = parse_point(args.z2)
        rows = []
        if args.k == 1:
            for coset in hecke_cosets(args.m):
                part = G_k_m(1, 1, z1, coset_apply(coset, z2), ctx)
                rows.append({"coset": list(coset), "value": float(part.value)})
            total = sum(r["value"] for r in rows)
            tail = 0.0
        else:
            part = G_k_m(args.k, args.m, z1, z2, ctx, tail_target=args.tail)
            total, tail = float(part.value), part.tail_bound
            rows.append({"coset": "all", "value": total,
                         "tail_bound": part.tail_bound,
                         "terms": part.terms})
        payload = {"k": args.k, "m": args.m, "value": total,
                   "tail_bound": tail, "per_coset": rows}
        text = "\n".join(
            [f"G_{args.k}^{args.m}(z1, z2) = {total:.9f} "
             f"(tail bound {tail:.2e})"] +
            [f"  {r}" for r in rows])
    _emit(args, payload, text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    ctx = _context(args)
    values = (fundamental_discriminants(args.dmax) if args.coprime_fundamental
              else [d for d in range(-3, -args.dmax - 1, -1) if d % 4 in (0, 1)])
    if not values:
        raise ValueError(f"--dmax {args.dmax} leaves no discriminant to sweep")
    reports = sweep(values, values, range(1, args.mmax + 1), ctx, policy=args.policy,
                    epsilons=args.epsilon or (), chain=args.chain,
                    factor=args.factor, workers=args.threads)
    stats = summarize(reports)
    payload = {"summary": stats, "reports": [_report_dict(r) for r in reports]}
    text = (f"{stats['total']} instances: {stats['ok']} ok, "
            f"{stats['zero']} zero, {stats['error']} error, "
            f"{stats['assert_failures']} assertion failures")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(text)
    else:
        _emit(args, payload, text)
    return _exit_code(stats)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token opening with a minus sign and a
    digit, such as the point -0.3+1.1i, as a value, where argparse reads
    only plain negative numbers so and takes the rest for options.  No
    option of singmod opens that way; the subcommand parsers are built with
    this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=256,
                        help="working mantissa bits (default 256)")
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument("--out", type=str, default=None,
                        help="write output to this path instead of stdout")
    parser = _Parser(
        prog="singmod",
        description="Exact norms and Green's-function bounds for modular "
                    "polynomial values at CM points")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classpoly", parents=[common],
                       help="class polynomial of a discriminant")
    p.add_argument("d", type=int)
    p.add_argument("--cache-dir", type=str, default=None,
                   help="directory for the class polynomial cache")
    p.set_defaults(func=cmd_classpoly)

    p = sub.add_parser("cmpoints", parents=[common], help="reduced forms and CM points of a discriminant")
    p.add_argument("d", type=int)
    p.add_argument("--j", action="store_true", help="include j-values")
    p.set_defaults(func=cmd_cmpoints)

    p = sub.add_parser("modpoly-eval", parents=[common], help="modular polynomial value at two points")
    p.add_argument("m", type=int)
    p.add_argument("z1", type=str)
    p.add_argument("z2", type=str)
    p.set_defaults(func=cmd_modpoly_eval)

    p = sub.add_parser("norm", parents=[common], help="exact cycle norm with optional bound checks")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--epsilon", type=float, action="append",
                   help="check the epsilon-neighborhood lower bound (repeatable)")
    p.add_argument("--chain", action="store_true",
                   help="check the k in {3,5,7} chain inequalities")
    p.add_argument("--factor", action="store_true",
                   help="factor the norm and report the witness prime")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("greens", parents=[common], help="Hecke-averaged Green's function values")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--z1", type=str)
    p.add_argument("--z2", type=str)
    p.add_argument("--cycle", type=int, nargs=2, metavar=("D1", "D2"))
    p.add_argument("--tail", type=float, default=None,
                   help="absolute tail budget for the lattice sums")
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("sweep", parents=[common], help="batch verification over a discriminant grid")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--mmax", type=_positive, default=3)
    p.add_argument("--coprime-fundamental", action="store_true",
                   help="restrict to fundamental discriminants")
    p.add_argument("--policy", choices=("exact", "all"), default="exact")
    p.add_argument("--epsilon", type=float, action="append")
    p.add_argument("--chain", action="store_true")
    p.add_argument("--factor", action="store_true")
    p.add_argument("--threads", type=_positive, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="accepted and ignored: sweep reads no cache")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    # norms reach 14 932 bits (4 495 digits) on the acceptance grid, past
    # Python's default 4 300-digit limit for int <-> str; the limit exists
    # from 3.10.7 on
    lift_limit = getattr(sys, "set_int_max_str_digits", None)
    if lift_limit:
        lift_limit(0)
    args = build_parser().parse_args(argv)
    if args.command == "greens" and not args.cycle and not (args.z1 and args.z2):
        print("error: greens needs --cycle or both --z1/--z2", file=sys.stderr)
        return EXIT_COMPUTE
    if args.command == "greens" and args.cycle and (args.z1 or args.z2):
        print("error: greens takes --cycle or --z1/--z2, not both", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        code = args.func(args)
    except PrecisionError as err:
        print(f"precision failure: {err}", file=sys.stderr)
        return EXIT_COMPUTE
    except TailBudgetError as err:
        print(f"tail budget: {err}", file=sys.stderr)
        return EXIT_COMPUTE
    except OverflowError as err:
        print(f"numeric overflow: {err}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_COMPUTE
    return code


if __name__ == "__main__":
    sys.exit(main())
