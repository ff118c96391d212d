"""Batch command-line front end.

Artifacts are deterministic: identical inputs and flags produce byte-identical
output regardless of worker count.  Progress goes to stderr only; stdout
carries exactly one JSON document (or nothing when --out / --svg is used).
Errors exit nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .classify import (
    chamber_path,
    count_dichotomies,
    covectors_linear,
    format_signs,
    level_set,
    parse_signs,
)
from .dual import decision_boundary, render_svg
from .fan import (
    CapExceededError,
    affine_dim,
    enumerate_all_cones,
    enumerate_maximal_cones,
    lineality_dim,
    pattern_of,
)
from .matroids import om_axioms_check, pattern_axioms_check
from .rationals import format_rat, rat
from .relu import TERM_CAP, TermCapExceededError, bound_m, net_to_tropical, prune_terms
from .tropical import classify, eval_rational


def _progress(message: str):
    print(f"# {message}", file=sys.stderr, flush=True)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.loads(fh.read())


def _emit(doc, out_path: str | None):
    text = jsonio.dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_data(args):
    return jsonio.dataset_from_json(_read_json(args.data))


def _load_theta(args):
    return jsonio.rational_from_json(_read_json(args.theta))


def _parse_window(text: str):
    parts = [rat(tok) for tok in text.split(",")]
    if len(parts) != 4:
        raise ValueError("window must be xmin,xmax,ymin,ymax")
    return tuple(parts)


def cmd_eval(args):
    theta = _load_theta(args)
    data = _load_data(args)
    values = [eval_rational(theta, p) for p in data.points]
    _emit(
        {
            "values": [format_rat(v) for v in values],
            "signs": format_signs([classify(theta, p) for p in data.points]),
        },
        args.out,
    )


def cmd_pattern(args):
    theta = _load_theta(args)
    data = _load_data(args)
    _emit(jsonio.pattern_to_json(pattern_of(theta, data)), args.out)


def cmd_enum_fan(args):
    data = _load_data(args)
    N = args.n + args.m
    maximal = enumerate_maximal_cones(
        data, N, cap=args.cap, workers=args.workers, progress=_progress
    )
    doc = {
        "N": N,
        "maximal_count": len(maximal),
        "lineality_dim": lineality_dim(data, N),
        "ambient_dim": N * (data.d + 1),
        "affine_dim_of_data": affine_dim(data),
        "maximal_patterns": [jsonio.pattern_to_json(g) for g in maximal],
    }
    if args.all_cones:
        cones = enumerate_all_cones(data, N, cap=args.cap, workers=args.workers)
        doc["cones"] = [
            {"pattern": jsonio.pattern_to_json(c.pattern), "dim": c.dimension}
            for c in cones
        ]
    _emit(doc, args.out)


def cmd_levels(args):
    data = _load_data(args)
    target = parse_signs(args.target)
    ks = [int(tok) for tok in args.k.split(",")]
    reports = {}
    for k in ks:
        rep = level_set(
            data, args.n, args.m, target, k, cap=args.cap, workers=args.workers,
            progress=_progress,
        )
        reports[str(k)] = jsonio.level_report_to_json(rep)
    _emit({"target": format_signs(target), "n": args.n, "m": args.m, "levels": reports}, args.out)


def cmd_components(args):
    data = _load_data(args)
    target = parse_signs(args.target)
    k = int(args.k)
    rep = level_set(
        data, args.n, args.m, target, k, cap=args.cap, workers=args.workers, progress=_progress
    )
    _emit(jsonio.level_report_to_json(rep), args.out)


def cmd_dichotomies(args):
    data = _load_data(args)
    _emit(
        {"count": count_dichotomies(data, args.n, args.m, cap=args.cap, workers=args.workers)},
        args.out,
    )


def cmd_boundary(args):
    if args.svg and not args.window:
        raise ValueError("--svg requires --window")
    if not args.svg and (args.data or args.window):
        raise ValueError("--data and --window require --svg")
    theta = _load_theta(args)
    edges = decision_boundary(theta)
    doc = {"edges": [{"i": e.i, "j": e.j, "sign_mixed": e.sign_mixed} for e in edges]}
    if args.svg:
        data = _load_data(args) if args.data else None
        svg = render_svg(theta, data, _parse_window(args.window))
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    _emit(doc, args.out)


def cmd_relu_convert(args):
    net = jsonio.network_from_json(_read_json(args.net))
    result = net_to_tropical(net, term_cap=args.cap)
    doc = jsonio.conversion_to_json(result)
    doc["bound_m"] = bound_m(net.widths[:-1])
    if args.prune:
        doc["pruned"] = jsonio.rational_to_json(prune_terms(result.theta))
    _emit(doc, args.out)


def cmd_check_axioms(args):
    data = _load_data(args)
    N = args.n + args.m
    cones = enumerate_all_cones(data, N, cap=args.cap, workers=args.workers)
    pat_report = pattern_axioms_check([c.pattern for c in cones])
    cov_report = om_axioms_check(covectors_linear(data, cones)) if N == 2 else None
    doc = {"patterns": jsonio.axiom_report_to_json(pat_report)}
    if cov_report is not None:
        doc["covectors"] = jsonio.axiom_report_to_json(cov_report)
    _emit(doc, args.out)


def cmd_path(args):
    data = _load_data(args)
    start = parse_signs(args.start)
    target = parse_signs(args.target)
    path = chamber_path(start, target, data)
    _emit(
        {
            "length": len(path),
            "covectors": [format_signs(c) for c in path],
            "separations": [
                sum(1 for a, b in zip(target, c) if a == -b != 0) for c in path
            ],
        },
        args.out,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="Exact polyhedral analysis of piecewise-linear classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, theta=False, net=False, fan=False, target=False):
        if data:
            p.add_argument("--data", required=True, help="dataset JSON file")
        if theta:
            p.add_argument("--theta", required=True, help="tropical rational parameter JSON file")
        if net:
            p.add_argument("--net", required=True, help="ReLU network JSON file")
        if fan:  # the command enumerates the fan of n + m terms
            p.add_argument("--n", type=int, required=True, help="numerator term count")
            p.add_argument("--m", type=int, required=True, help="denominator term count")
            p.add_argument("--cap", type=int, default=None, help="candidate cap")
            p.add_argument("--workers", type=int, default=1, help="parallel workers for enumeration")
        if target:
            p.add_argument("--target", required=True, help="target dichotomy, e.g. +,-,+")
        p.add_argument("--out", default=None, help="write the JSON artifact here instead of stdout")
        return p

    p = common(sub.add_parser("eval", help="evaluate a classifier on a dataset"), data=True, theta=True)
    p.set_defaults(func=cmd_eval)

    p = common(sub.add_parser("pattern", help="activation pattern of parameters on data"), data=True, theta=True)
    p.set_defaults(func=cmd_pattern)

    p = common(sub.add_parser("enum-fan", help="enumerate the activation fan"), data=True, fan=True)
    p.add_argument("--all-cones", action="store_true", help="include non-maximal cones")
    p.set_defaults(func=cmd_enum_fan)

    p = common(sub.add_parser("levels", help="0/1-loss level sets"), data=True, fan=True, target=True)
    p.add_argument("--k", required=True, help="comma-separated loss levels")
    p.set_defaults(func=cmd_levels)

    p = common(sub.add_parser("components", help="wall components of one level set"), data=True, fan=True, target=True)
    p.add_argument("--k", required=True, help="loss level")
    p.set_defaults(func=cmd_components)

    p = common(sub.add_parser("dichotomies", help="count realizable dichotomies"), data=True, fan=True)
    p.set_defaults(func=cmd_dichotomies)

    p = common(sub.add_parser("boundary", help="decision boundary and optional SVG"), theta=True)
    p.add_argument("--data", default=None, help="optional dataset JSON for point overlays")
    p.add_argument("--svg", default=None, help="write an SVG rendering here (d = 2)")
    p.add_argument("--window", default=None, help="xmin,xmax,ymin,ymax for the SVG")
    p.set_defaults(func=cmd_boundary)

    p = common(sub.add_parser("relu-convert", help="convert a ReLU network to tropical form"), net=True)
    p.add_argument("--cap", type=int, default=TERM_CAP, help="stored term cap")
    p.add_argument("--prune", action="store_true", help="include the pruned parameters")
    p.set_defaults(func=cmd_relu_convert)

    p = common(sub.add_parser("check-axioms", help="verify pattern / covector axioms"), data=True, fan=True)
    p.set_defaults(func=cmd_check_axioms)

    p = common(sub.add_parser("path", help="monotone chamber path for linear classifiers"), data=True, target=True)
    p.add_argument("--start", required=True, help="start covector, e.g. -,-,+")
    p.set_defaults(func=cmd_path)

    return parser


_DASH_VALUE_FLAGS = {"--window", "--target", "--start", "--k"}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Fold values that begin with '-' (sign strings, negative windows) into
    --flag=value form so argparse does not read them as options."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_dash_values(list(argv)))
    try:
        if min(getattr(args, "n", 1), getattr(args, "m", 1)) < 1:  # fan commands
            raise ValueError("--n and --m must be at least 1")
        if getattr(args, "workers", 1) < 1:
            raise ValueError("--workers must be at least 1")
        if (getattr(args, "cap", None) or 0) < 0:
            raise ValueError("--cap must be at least 0")
        args.func(args)
    except CapExceededError as exc:
        print(json.dumps({"error": "cap_exceeded", "message": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError, TermCapExceededError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
