"""Command line front end.

Exit codes: 0 when the command's answer is yes/valid, 1 when it is no or the
input algebra is invalid, 2 when an EquivalenceViolation fired (two provably
equal routes disagreed; always a bug worth reporting), 64 for usage errors,
70 for any other exception (an internal error, with its traceback on stderr),
74 for unreadable or unwritable files and for paths that are not regular files.
"""
from __future__ import annotations

import argparse
import os
import sys

# Each command imports the modules it runs, so a process loads only those.
from .core import ResiduatedLattice, size_bound
from .errors import CarrierTooLarge, EquivalenceViolation, ReslatError, UsageError

EX_OK = 0
EX_FALSE = 1
EX_VIOLATION = 2
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IO = 74
# `search 7` takes under a second and `search 8` about 6 s on a 2-CPU host;
# larger sizes are refused up front.
SEARCH_MAX = 8


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resolve(spec: str) -> ResiduatedLattice:
    """Catalog name (case insensitive) first, then a file path."""
    from . import catalog, fileformat

    found = catalog.get(spec)
    if found is not None:
        return found
    if not os.path.exists(spec):
        raise OSError(f"no catalog entry or file named {spec!r}")
    return fileformat.load(spec)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tags(f: int, sets: dict) -> str:
    """' name,name' for each named set that holds f, or '' if none does."""
    held = [name for name, members in sets.items() if f in members]
    return " " + ",".join(held) if held else ""


def _cmd_check(a, args) -> int:
    from . import filters as flt

    ctx = flt.analysis(a)
    print(f"{a.label}: valid residuated lattice on {a.n} elements")
    print(
        f"filters={len(ctx.filters)} maximal={len(ctx.maximals)} "
        f"prime={len(flt.prime_filters(a))}"
    )
    return EX_OK


def _cmd_filters(a, args) -> int:
    from . import filters as flt
    from . import pure as pr

    ctx = flt.analysis(a)
    tags = {"improper": {a.full}, "maximal": set(ctx.maximals),
            "prime": set(flt.prime_filters(a)), "pure": set(pr.pure_filters(a))}
    for f in ctx.filters:
        print(f"{a.set_repr(f)} generator={a.names[ctx.generator[f]]}" + _tags(f, tags))
    return EX_OK


def _cmd_spectrum(a, args) -> int:
    from . import filters as flt
    from . import topology as top

    primes = flt.prime_filters(a)
    space = top.spec_space(a, args.kind)
    maxima = {"maximal": set(flt.maximal_filters(a))}
    for p in primes:
        print(a.set_repr(p) + _tags(p, maxima))
    count = 1 << space.npoints if top.is_discrete(space) else len(space.closed)
    print(f"{len(primes)} points, {count} closed sets")
    preds = top.space_predicates(space)
    print(" ".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(preds.items())))
    return EX_OK


def _cmd_gelfand(a, args) -> int:
    from .gelfand import gelfand_verdict

    verdict = gelfand_verdict(a)
    passed = sum(verdict.criteria.values())
    word = "yes" if verdict.verdict else "no"
    print(f"Gelfand: {word} ({passed}/{len(verdict.criteria)} criteria)")
    for name in sorted(verdict.witnesses):
        print(f"witness[{name}]: {verdict.witnesses[name]}")
    return EX_OK if verdict.verdict else EX_FALSE


def _cmd_pure(a, args) -> int:
    from . import pure as pr

    tags = {"purely-prime": set(pr.purely_prime(a)),
            "purely-maximal": set(pr.purely_maximal(a))}
    for f in pr.pure_filters(a):
        print(a.set_repr(f) + _tags(f, tags))
    homeo = pr.spp_max_homeo(a)
    print(f"pure spectrum homeomorphic to maximal spectrum: "
          f"{'yes' if homeo else 'no'}")
    return EX_OK if homeo else EX_FALSE


def _cmd_soft(a, args) -> int:
    from .gelfand import is_soft

    soft, routes = is_soft(a)
    for key in sorted(routes):
        print(f"{key}: {'yes' if routes[key] else 'no'}")
    print(f"soft: {'yes' if soft else 'no'}")
    return EX_OK if soft else EX_FALSE


def _cmd_search(a, args) -> int:
    from . import modelgen

    if args.size < 1:
        raise UsageError(f"search needs a positive size, got {args.size}")
    if args.size > SEARCH_MAX:
        raise UsageError(f"search is limited to {SEARCH_MAX} elements, got {args.size}")
    if args.size > size_bound():
        raise CarrierTooLarge(f"carrier size {args.size} exceeds bound {size_bound()}")
    for n in range(1, args.size + 1):
        rep = modelgen.classify_all(n, deep=args.deep, chains_only=args.chains)
        print(
            f"n={n}: lattices={rep.lattice_count} structures={rep.structure_count}",
            *(f"{k}={getattr(rep, k + '_count')}" for k in modelgen.SWEEP_FLAGS),
        )
    return EX_OK


def _cmd_report(a, args) -> int:
    from .report import build_report, render_json

    _emit(render_json(build_report(a)), args.output)
    return EX_OK


def _cmd_export_dot(a, args) -> int:
    from . import fileformat

    _emit(fileformat.export_dot(a, args.kind), args.output)
    return EX_OK


def _cmd_catalog(a, args) -> int:
    from . import catalog

    for name in catalog.catalog_names():
        print(f"{name}: {catalog.get(name).n} elements")
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="reslat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, algebra=True):
        p = sub.add_parser(name, help=help_text)
        if algebra:
            p.add_argument("algebra", help="catalog name or algebra file")
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check, "validate an algebra and summarize it")
    add("filters", _cmd_filters, "list the filters with their roles")
    p = add("spectrum", _cmd_spectrum, "describe the prime spectrum")
    p.add_argument("--kind", choices=("hull", "dual", "patch"), default="hull")
    add("gelfand", _cmd_gelfand, "evaluate the Gelfand criteria")
    add("pure", _cmd_pure, "list pure filters and the pure spectrum")
    add("soft", _cmd_soft, "evaluate the softness characterizations")
    p = add("search", _cmd_search, "enumerate all models up to a size", algebra=False)
    p.add_argument("size", type=int)
    p.add_argument("--chains", action="store_true", help="chains only")
    p.add_argument("--deep", action="store_true", help="also run law suites")
    p = add("report", _cmd_report, "full JSON report")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p = add("export-dot", _cmd_export_dot, "Hasse diagram or spectrum as DOT")
    p.add_argument("--kind", choices=("hasse", "spec"), default="hasse")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    add("catalog", _cmd_catalog, "list built-in algebras", algebra=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # resolved before the command imports anything: a rejected input
        # loads no more modules than `_resolve` needs
        a = _resolve(args.algebra) if "algebra" in args else None
        return args.func(a, args)
    except SystemExit as exc:
        return EX_OK if exc.code in (0, None) else EX_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except EquivalenceViolation as exc:
        print(f"equivalence violation: {exc}", file=sys.stderr)
        if exc.detail is not None:
            print(f"detail: {exc.detail}", file=sys.stderr)
        return EX_VIOLATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EX_IO
    except ReslatError as exc:
        print(f"invalid algebra: {exc}", file=sys.stderr)
        return EX_FALSE
    except Exception:
        import traceback

        traceback.print_exc()
        return EX_SOFTWARE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
