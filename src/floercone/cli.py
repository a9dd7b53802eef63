"""Command line driver: model building, surgery, dual knots, contact arithmetic.

Exit codes: 0 success, 1 domain errors (bad parameters, excluded
coefficients, unsupported models), 2 malformed input or I/O failure, 3 a
failed internal invariant (a fault in the package, reported as
"error: internal: ..." without a traceback).
Output is deterministic: identical invocations emit identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import serialize
from .algebra import check_complex
from .cone import MappingCone
from .contact import (
    LegendrianData,
    c1_plus_one_surgery,
    c1_positive_integer_surgery,
    c1_surgery_cobordism,
    characterize_all_minus_two,
    distinctness_pipeline,
    negative_expansion,
    positive_expansion,
)
from .dual import build_dual_cone, g_map, loss_grading, normal_form, require_framing
from .errors import DomainError, InternalError, ParseError, past_digit_limit
from .models import (
    box,
    dual_normal_form_model,
    euler_characteristic,
    flip,
    hat_knot_homology,
    minus_twist_flip,
    minus_twist_knot,
    mirror,
    poly_string,
    staircase,
    unknot,
)


def _rational(text: str) -> Fraction:
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc
    # e-notation builds 10^k with no int-from-string limit; the same value in
    # digits meets that limit, above, and is refused the same way
    if past_digit_limit(r.numerator) or past_digit_limit(r.denominator):
        raise ParseError(f"not a rational number: {text!r}")
    return r


def _read(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# model flag (its dest) -> the model built from the flag's value
MODELS = {
    "minus_en": minus_twist_knot,
    "dual_normal": dual_normal_form_model,
    "staircase": lambda _: staircase(),
    "box": lambda _: box(),
    "unknot": lambda _: unknot(),
}


def _build_model(args) -> "FilteredComplex":
    # every model flag defaults to None, so a size flag set to 0 counts as given
    picked = [name for name in MODELS if getattr(args, name) is not None]
    if len(picked) != 1:
        raise ParseError("pick exactly one of " +
                         ", ".join("--" + name.replace("_", "-") for name in MODELS))
    c = MODELS[picked[0]](getattr(args, picked[0]))
    return mirror(c) if args.mirror else c


def cmd_model(args) -> str:
    return serialize.dumps(serialize.complex_to_json(_build_model(args)))


def cmd_validate(args) -> str:
    data = serialize.loads(_read(args.path))
    payloads = []
    if isinstance(data, dict) and "generators" in data:
        payloads.append(data)
    elif isinstance(data, dict) and "kind" in data:
        if "complex" in data:
            payloads.append(data["complex"])
    else:
        raise ParseError("unrecognized payload: neither a complex nor a report")
    for payload in payloads:
        c = serialize.complex_from_json(payload)
        report = check_complex(c)
        if not report.ok:
            sys.stderr.write(str(report) + "\n")
            raise DomainError("complex fails validation")
    return serialize.dumps({"kind": "validation", "ok": True, "complexes": len(payloads)})


def cmd_surgery(args) -> str:
    c = serialize.complex_from_json(serialize.loads(_read(args.infile)))
    cone = MappingCone.build(flip(c), args.p, args.q, args.range)
    sectors = [args.sector % abs(args.p)] if args.sector is not None else list(cone.sectors)
    table = {}
    for i in sectors:
        ranks = cone.sector_homology(i, args.flavor)
        table[str(i)] = serialize.ranks_json(ranks, ("maslov",) if args.flavor == "hat"
                                             else ("maslov_parity",))
    payload = {
        "kind": "surgery_report",
        "p": args.p, "q": args.q, "flavor": args.flavor, "range": args.range,
        "genus": cone.flip.genus,
        "vertices": [{"segment": v.segment, "t": v.t, "s": v.s} for v in cone.vertices()],
        "sectors": table,
        "complex": serialize.complex_to_json(c),
    }
    return serialize.dumps(payload)


def cmd_dualknot(args) -> str:
    if args.model.startswith("minus-en:"):
        try:
            size = int(args.model.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"not an integer model size: {args.model!r}") from exc
        f = minus_twist_flip(size)
    elif args.model == "staircase":  # the n = 1 twist model
        f = minus_twist_flip(1)
    else:
        f = flip(serialize.complex_from_json(serialize.loads(_read(args.model))))
    require_framing(args.n, for_normal_form=True)  # both checks read the normal form
    dc = build_dual_cone(f, args.n)
    payload = {"kind": "dualknot_report", "framing": args.n, "genus": dc.cone.flip.genus}
    nf = normal_form(dc)
    if args.check == "normalform":
        payload["summands"] = [
            {"kind": s.kind, "names": list(s.names),
             "positions": [[serialize.fraction_json(a), serialize.fraction_json(m)]
                           for a, m in s.position]}
            for s in nf.summands
        ]
        payload["counts"] = {kind: nf.count(kind) for kind in ("free", "horizontal", "vertical")}
        payload["complex"] = serialize.complex_to_json(nf.form.complex)
    else:
        rep = g_map(nf.form.complex)
        payload["gmap"] = {
            "alexander": serialize.fraction_json(rep.alexander),
            "domain_dim": rep.domain_dim,
            "codomain_dim": rep.codomain_dim,
            "rank": rep.map_rank,
            "injective": rep.injective,
            "matrix": [[col >> i & 1 for col in rep.columns] for i in range(rep.codomain_dim)],
        }
    return serialize.dumps(payload)


def cmd_dgs(args) -> str:
    r = _rational(args.r)
    exp = negative_expansion(r) if r < 0 else positive_expansion(r)
    payload = {
        "kind": "dgs_expansion",
        "r": serialize.fraction_json(r),
        "expansion_kind": exp.kind,
        "a": list(exp.a),
        "e": exp.e,
        "stabilizations": list(exp.stabilizations),
        "surgery_signs": list(exp.surgery_signs),
        "round_trip": serialize.fraction_json(exp.evaluate()),
    }
    if r < 0:
        flag, ell = characterize_all_minus_two(r)
        payload["all_minus_two"] = flag
        if ell is not None:
            payload["ell"] = ell
    return serialize.dumps(payload)


def cmd_c1(args) -> str:
    l = LegendrianData(args.tb, args.rot, args.y)
    if args.formula == "cobordism":
        value = c1_surgery_cobordism(l, args.p, args.q)
    elif args.formula == "posint":
        value = c1_positive_integer_surgery(l, args.n)
    else:
        value = c1_plus_one_surgery(l)
    return serialize.dumps({"kind": "c1", "formula": args.formula, "value": value})


def cmd_pipeline(args) -> str:
    report = distinctness_pipeline(args.n, _rational(args.r), args.m)
    if args.format == "json":
        return serialize.dumps({
            "kind": "pipeline_report",
            "n": report.n,
            "r": serialize.fraction_json(report.r),
            "m": report.m,
            "case": report.case,
            "distinct": report.distinct,
            "steps": [s._asdict() for s in report.steps],
        })
    lines = [f"pipeline n={report.n} r={report.r}" + (f" m={report.m}" if report.m != 1 else "")]
    for i, step in enumerate(report.steps, 1):
        mark = {True: "ok", False: "FAIL", None: "trusted"}[step.verified]
        values = ", ".join(f"{k}={v}" for k, v in step.values.items())
        lines.append(f"  {i}. [{step.kind}/{mark}] {step.title}: {values}")
    lines.append(report.verdict)
    return "\n".join(lines) + "\n"


def cmd_loss(args) -> str:
    return serialize.dumps({"kind": "loss_grading", "tb": args.tb, "rot": args.rot,
                            "alexander": loss_grading(args.tb, args.rot)})


def cmd_knot_homology(args) -> str:
    c = _build_model(args)
    ranks = hat_knot_homology(c)
    poly = euler_characteristic(ranks)
    return serialize.dumps({
        "kind": "knot_homology",
        "hat_ranks": serialize.ranks_json(ranks, ("alexander", "maslov")),
        "alexander_polynomial": {str(a): coef for a, coef in sorted(poly.items())},
        "alexander_polynomial_str": poly_string(poly),
    })


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--minus-en", dest="minus_en", type=int, metavar="N",
                   help="mirror twist-knot model, N odd")
    p.add_argument("--dual-normal", dest="dual_normal", type=int, metavar="N",
                   help="dual-knot normal form model, N odd")
    p.add_argument("--staircase", action="store_true", default=None)
    p.add_argument("--box", action="store_true", default=None)
    p.add_argument("--unknot", action="store_true", default=None)
    p.add_argument("--mirror", action="store_true", help="dualize the chosen model")
    p.add_argument("--out", default=None)


def _add_validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", nargs="?", default=None)


def _add_surgery_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--flavor", choices=("hat", "infinity"), default="hat")
    p.add_argument("--range", choices=("paper", "full"), default="paper")
    p.add_argument("--sector", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None, help="complex JSON (default stdin)")
    p.add_argument("--out", default=None)


def _add_dualknot_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="integer framing")
    p.add_argument("--model", default="-", help="minus-en:N, staircase, or a JSON path")
    p.add_argument("--check", choices=("normalform", "gmap"), default="normalform")
    p.add_argument("--out", default=None)


def _add_dgs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", required=True,
                   help="nonzero rational; write fractions as --r=-7/2")
    p.add_argument("--out", default=None)


def _add_c1_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", choices=("cobordism", "posint", "plusone"), required=True)
    p.add_argument("--tb", type=int, default=0)
    p.add_argument("--rot", type=int, default=0)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--y", type=int, default=1, help="order of the knot class")
    p.add_argument("--out", default=None)


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", required=True, help="negative rational; write fractions as --r=-5/2")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)


def _add_loss_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tb", type=int, required=True)
    p.add_argument("--rot", type=int, required=True)
    p.add_argument("--out", default=None)


# name -> (help, argument adder, handler returning its output), in the order the
# help lists them
COMMANDS = {
    "model": ("emit a model complex as JSON", _add_model_flags, cmd_model),
    "validate": ("check a complex or report file", _add_validate_args, cmd_validate),
    "surgery": ("mapping cone ranks for p/q surgery", _add_surgery_args, cmd_surgery),
    "dualknot": ("dual-knot cone reports", _add_dualknot_args, cmd_dualknot),
    "dgs": ("contact surgery continued-fraction expansion", _add_dgs_args, cmd_dgs),
    "c1": ("first-Chern-class pairing formulas", _add_c1_args, cmd_c1),
    "pipeline": ("distinctness pipeline for contact r-surgery", _add_pipeline_args,
                 cmd_pipeline),
    "loss": ("Alexander grading of the Legendrian invariant", _add_loss_args, cmd_loss),
    "knot-homology": ("hat knot homology and Alexander polynomial", _add_model_flags,
                      cmd_knot_homology),
}


def make_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floercone",
        description="Exact mapping-cone computations for surgery on knot Floer models.")
    # only the invoked command's subparser, but a usage line that names them all
    names = [argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, **(
        {"metavar": "{" + ",".join(COMMANDS) + "}"} if len(names) == 1 else {}))
    for name in names:
        help_text, add_args, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = make_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, out = args.func(args), getattr(args, "out", None)  # validate has no --out
        if out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InternalError as exc:
        sys.stderr.write(f"error: internal: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
