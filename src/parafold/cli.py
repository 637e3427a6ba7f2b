"""Command-line interface.

Subcommands: portrait, star, bifdiagram, classify, canon, nf, dsinv.
Exit codes: 0 ok, 2 usage error, 3 numerical failure, 4 semantic mismatch.
All file input/output is JSON (UTF-8) or SVG 1.1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys

from . import render
from .disk import NewtonDivergence, RootLoss
from .model import (
    AtBifurcation,
    DegenerateParameter,
    ModelField,
    PathThroughSingularity,
    SeriesOutOfDomain,
    StepSizeUnderflow,
    ds_invariant,
    singularities,
)
from .normal_forms import NotCanonical, polynomial_nf, rational_nf
from .series import MAX_JSON_ORDER, SeriesError
from .unfolding import (
    AmbiguousMatch,
    EigenvalueFunction,
    FamilySpec,
    NotGeneric,
    canonicalize,
    eigenvalue_function,
    equivalent_fixed_parameter,
    equivalent_full,
    factor_family,
)

NUMERICAL_ERRORS = (
    NewtonDivergence,
    RootLoss,
    StepSizeUnderflow,
    PathThroughSingularity,
    SeriesOutOfDomain,
    AtBifurcation,
    SeriesError,
)
SEMANTIC_ERRORS = (NotGeneric, NotCanonical, DegenerateParameter)


def parse_complex(text: str) -> complex:
    """``a+bi`` as a complex number.  Only the ``i`` that ends the number (or
    stands before its closing parenthesis) is the imaginary unit, so ``inf``
    and ``infinity`` reach the finiteness check."""
    cleaned = re.sub(r"i(\)?)$", r"j\1", text.strip().replace(" ", ""))
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex number {text!r} is not finite")
    return value


def checked(convert, domain: str, holds):
    """An argparse type: ``convert(text)``, refused unless ``holds`` of it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from exc
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {domain}")
        return value

    return parse


class DecadeRange(argparse.Action):
    def __call__(self, parser, namespace, values, option_string):
        lo, hi = values
        if not lo < hi:
            raise argparse.ArgumentError(self, f"needs LO < HI, got {lo:g} >= {hi:g}")
        setattr(namespace, self.dest, (lo, hi))


def _complex_dict(z: complex):
    return {"re": z.real, "im": z.imag}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _load_eigenvalue(path, truncation):
    """Read an eigenvalue function from a lambda file or a family file."""
    data = _load_json(path)
    if isinstance(data, dict) and "omega" in data:
        return eigenvalue_function(FamilySpec.from_dict(data), order=truncation)
    return EigenvalueFunction.from_dict(data)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_portrait(args):
    # the JSON export holds the separatrices the SVG draws
    svg, seps = render._portrait(args.k, args.eps, args.radius, args.seed, args.samples)
    _write_text(args.out, svg)
    if args.json_out:
        sing = singularities(ModelField(args.k, args.eps))
        data = {
            "singularities": [_complex_dict(z) for z in sing],
            "separatrices": [t.to_dict() for t in seps],
        }
        _write_text(args.json_out, _dump(data))
    return 0


def cmd_star(args):
    svg = render.star_svg(k=args.k, eps=args.eps, r=args.r)
    _write_text(args.out, svg)
    return 0


def cmd_bifdiagram(args):
    svg = render.bifdiagram_svg(
        k=args.k, r=args.r, decades=args.decades, per_decade=args.per_decade
    )
    _write_text(args.out, svg)
    return 0


def cmd_classify(args):
    l1 = _load_eigenvalue(args.family_a, args.truncation)
    l2 = _load_eigenvalue(args.family_b, args.truncation)
    if l1.k != l2.k:
        print(f"error: codimension mismatch {l1.k} != {l2.k}", file=sys.stderr)
        return 4
    verdict = {"truncation_order": min(l1.order, l2.order)}
    try:
        zeta = equivalent_fixed_parameter(l1, l2, tol=args.tol)
        verdict["fixed_parameter"] = None if zeta is None else _complex_dict(zeta)
    except AmbiguousMatch as exc:
        verdict["fixed_parameter"] = {"ambiguous": [_complex_dict(w) for w in exc.witnesses]}
    try:
        full = equivalent_full(l1, l2, tol=args.tol)
        if full is None:
            verdict["full"] = None
        else:
            nu, xi = full
            verdict["full"] = {"nu": _complex_dict(nu), "xi": xi.to_dict(zero_tol=1e-14)}
    except AmbiguousMatch as exc:
        verdict["full"] = {"ambiguous": [_complex_dict(w) for w in exc.witnesses]}
    print(_dump(verdict))
    return 0


def cmd_canon(args):
    ef = _load_eigenvalue(args.input, args.truncation)
    result = canonicalize(ef)
    out = {
        "k": ef.k,
        "truncation_order": ef.order,
        "lambda_canonical": result.lam.to_dict(),
        "h": result.h.to_dict(zero_tol=1e-15),
        "linear_choices": [_complex_dict(a) for a in result.linear_choices],
    }
    print(_dump(out))
    return 0


def cmd_nf(args):
    spec = factor_family(FamilySpec.from_dict(_load_json(args.family)), z_order=args.truncation)
    maker = polynomial_nf if args.kind == "polynomial" else rational_nf
    nf = maker(spec, eps_order=args.eps_order)
    print(_dump(nf.to_dict()))
    return 0


def cmd_dsinv(args):
    fld = ModelField(args.k, args.eps)
    inv = ds_invariant(fld, tol=args.tol, validate=args.validate)
    out = inv.to_dict()
    out["epsilon"] = _complex_dict(args.eps)
    out["singularities"] = [_complex_dict(z) for z in singularities(fld)]
    print(_dump(out))
    return 0


EPS_HELP = "complex parameter, e.g. 0.3+0.2i; write a value with a leading minus as --eps=-0.7i"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parafold",
        description="Phase portraits, bifurcation diagrams and normal forms "
        "for z' = z^{k+1} - eps and its generic unfoldings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def integer(lo, hi):
        domain = f"an integer in [{lo}, {hi}]" if hi < math.inf else f"an integer >= {lo}"
        return checked(int, domain, lambda n: lo <= n <= hi)

    positive = checked(float, "finite and > 0", lambda x: 0 < x < math.inf)
    nonnegative = checked(float, "finite and >= 0", lambda x: 0 <= x < math.inf)
    order, codimension = integer(0, MAX_JSON_ORDER), integer(1, MAX_JSON_ORDER)

    def add_truncation(p):
        # an order-0 factorisation has no linear term to normalise by
        p.add_argument("--truncation", type=integer(1, MAX_JSON_ORDER), default=40,
                       help="series truncation order")

    def add_tol(p):
        p.add_argument("--tol", type=nonnegative, default=1e-9, help="decision tolerance")

    p = sub.add_parser("portrait", help="phase portrait of z' = z^{k+1} - eps")
    p.add_argument("--k", type=codimension, required=True)
    p.add_argument("--eps", type=parse_complex, required=True, help=EPS_HELP)
    p.add_argument("--radius", type=positive, default=1.5)
    p.add_argument("--samples", type=integer(0, math.inf), default=40)
    p.add_argument("--seed", type=integer(0, math.inf), default=0, help="RNG seed for the sampled orbits")
    p.add_argument("--out", required=True)
    p.add_argument("--json-out", default=None, help="also export trajectories as JSON")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("star", help="rectified t-space figure with eyelets")
    p.add_argument("--k", type=codimension, required=True)
    p.add_argument("--eps", type=parse_complex, required=True, help=EPS_HELP)
    p.add_argument("--r", type=positive, default=1.0, help="disk radius")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("bifdiagram", help="bifurcation curves in the eps-plane")
    p.add_argument("--k", type=codimension, required=True)
    p.add_argument("--r", type=positive, default=1.0)
    p.add_argument("--decades", type=positive, nargs=2, default=(1e-6, 1e-2),
                   metavar=("LO", "HI"), action=DecadeRange)
    p.add_argument("--per-decade", type=integer(1, math.inf), default=12)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bifdiagram)

    p = sub.add_parser("classify", help="decide conjugacy of two families")
    p.add_argument("family_a")
    p.add_argument("family_b")
    add_truncation(p)
    add_tol(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("canon", help="canonicalize an eigenvalue function or family")
    p.add_argument("input")
    add_truncation(p)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("nf", help="polynomial or rational normal form coefficients")
    p.add_argument("kind", choices=("polynomial", "rational"))
    p.add_argument("family")
    p.add_argument("--eps-order", type=order, default=6)
    add_truncation(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("dsinv", help="print the combinatorial invariant")
    p.add_argument("--k", type=codimension, required=True)
    p.add_argument("--eps", type=parse_complex, required=True, help=EPS_HELP)
    p.add_argument("--validate", action="store_true")
    add_tol(p)
    p.set_defaults(func=cmd_dsinv)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 4
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
