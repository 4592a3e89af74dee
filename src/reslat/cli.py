"""Command line front end.

Exit codes: 0 when the command's answer is yes/valid, 1 when it is no or the
input algebra is invalid, 2 when an EquivalenceViolation fired (two provably
equal routes disagreed; always a bug worth reporting), 64 for usage errors,
70 for any other exception (an internal error, with its traceback on stderr),
74 for unreadable or unwritable files and for paths that are not regular files.
"""
from __future__ import annotations

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


def _cmd_check(a) -> int:
    from . import filters as flt

    generators, maxima = flt.filter_generators(a), flt.maximal_filters(a)
    print(f"{a.label}: valid residuated lattice on {a.n} elements")
    print(f"filters={len(generators)} maximal={len(maxima)} prime={len(flt.prime_filters(a))}")
    return EX_OK


def _cmd_filters(a) -> int:
    from . import filters as flt
    from . import pure as pr

    tags = {"improper": {a.full}, "maximal": set(flt.maximal_filters(a)),
            "prime": set(flt.prime_filters(a)), "pure": set(pr.pure_filters(a))}
    for f, e in flt.filter_generators(a).items():
        print(f"{a.set_repr(f)} generator={a.names[e]}" + _tags(f, tags))
    return EX_OK


def _cmd_spectrum(a, kind) -> int:
    from . import filters as flt
    from . import topology as top

    primes = flt.prime_filters(a)
    space = top.spec_space(a, kind)
    maxima = {"maximal": set(flt.maximal_filters(a))}
    for p in primes:
        print(a.set_repr(p) + _tags(p, maxima))
    count = 1 << len(space) if top.is_discrete(space) else len(top.closed_sets(space))
    print(f"{len(primes)} points, {count} closed sets")
    preds = top.space_predicates(space)
    print(" ".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(preds.items())))
    return EX_OK


def _cmd_gelfand(a) -> int:
    from .gelfand import gelfand_verdict

    verdict = gelfand_verdict(a)
    passed = sum(verdict.criteria.values())
    word = "yes" if verdict.verdict else "no"
    print(f"Gelfand: {word} ({passed}/{len(verdict.criteria)} criteria)")
    for name in sorted(verdict.witnesses):
        print(f"witness[{name}]: {verdict.witnesses[name]}")
    return EX_OK if verdict.verdict else EX_FALSE


def _cmd_pure(a) -> int:
    from . import pure as pr

    tags = {"purely-prime": set(pr.purely_prime(a)),
            "purely-maximal": set(pr.purely_maximal(a))}
    for f in pr.pure_filters(a):
        print(a.set_repr(f) + _tags(f, tags))
    homeo = pr.spp_max_homeo(a)
    print(f"pure spectrum homeomorphic to maximal spectrum: "
          f"{'yes' if homeo else 'no'}")
    return EX_OK if homeo else EX_FALSE


def _cmd_soft(a) -> int:
    from .gelfand import is_soft

    soft, routes = is_soft(a)
    for key in sorted(routes):
        print(f"{key}: {'yes' if routes[key] else 'no'}")
    print(f"soft: {'yes' if soft else 'no'}")
    return EX_OK if soft else EX_FALSE


def _cmd_search(size, chains, deep) -> int:
    from . import modelgen

    if size < 1:
        raise UsageError(f"search needs a positive size, got {size}")
    if size > SEARCH_MAX:
        raise UsageError(f"search is limited to {SEARCH_MAX} elements, got {size}")
    if size > size_bound():
        raise CarrierTooLarge(f"carrier size {size} exceeds bound {size_bound()}")
    for n in range(1, size + 1):
        rep = modelgen.classify_all(n, deep=deep, chains_only=chains)
        print(
            f"n={n}: lattices={rep.lattice_count} structures={rep.structure_count}",
            *(f"{k}={getattr(rep, k + '_count')}" for k in modelgen.SWEEP_FLAGS),
        )
    return EX_OK


def _cmd_report(a, output) -> int:
    from .report import build_report, render_json

    _emit(render_json(build_report(a)), output)
    return EX_OK


def _cmd_export_dot(a, kind, output) -> int:
    from . import fileformat

    _emit(fileformat.export_dot(a, kind), output)
    return EX_OK


def _cmd_catalog() -> int:
    from . import catalog

    for name in catalog.catalog_names():
        print(f"{name}: {catalog.get(name).n} elements")
    return EX_OK


# name -> (function, help, operand, options): the whole command line. The
# operand is ALG, a catalog name or algebra file that main resolves once the
# command line has parsed; N, an integer; or None. An option maps its long
# name to (short name, value, help), where the value is bool for a switch
# (default False), str for a text (default None) or the tuple of its choices
# (default the first). A function takes each option by its long name.
_OUTPUT = ("-o", str, "write to a file instead of stdout")
COMMANDS = {
    "check": (_cmd_check, "validate an algebra and summarize it", "ALG", {}),
    "filters": (_cmd_filters, "list the filters with their roles", "ALG", {}),
    "spectrum": (_cmd_spectrum, "describe the prime spectrum", "ALG",
                 {"--kind": (None, ("hull", "dual", "patch"), "the topology")}),
    "gelfand": (_cmd_gelfand, "evaluate the Gelfand criteria", "ALG", {}),
    "pure": (_cmd_pure, "list pure filters and the pure spectrum", "ALG", {}),
    "soft": (_cmd_soft, "evaluate the softness characterizations", "ALG", {}),
    "search": (_cmd_search, "enumerate all models up to a size", "N",
               {"--chains": (None, bool, "chains only"),
                "--deep": (None, bool, "also run law suites")}),
    "report": (_cmd_report, "full JSON report", "ALG", {"--output": _OUTPUT}),
    "export-dot": (_cmd_export_dot, "Hasse diagram or spectrum as DOT", "ALG",
                   {"--kind": (None, ("hasse", "spec"), "what to draw"),
                    "--output": _OUTPUT}),
    "catalog": (_cmd_catalog, "list built-in algebras", None, {}),
}
_HELP = {"--help": ("-h", bool, "show this help")}


def _help() -> str:
    """What -h/--help prints, at the top or after a command."""
    lines = ["usage: reslat [-h] COMMAND [OPERAND] [OPTIONS]", "", __doc__.strip(), "",
             "commands:"]
    for name, (_, text, operand, options) in COMMANDS.items():
        lines.append(f"  {name + ' ' + (operand or ''):<16}{text}")
        for flag, (short, value, about) in options.items():
            shown = f"{short}/{flag}" if short else flag
            if value is str:
                shown += " " + flag[2:].upper()
            elif value is not bool:
                shown, about = f"{shown} {'|'.join(value)}", f"{about} (default {value[0]})"
            lines.append(f"      {shown}: {about}")
    return "\n".join(lines) + "\n"


def _is_operand(token: str, ended: bool) -> bool:
    """Whether token is an operand rather than an option: so is every token
    after "--", "-" alone and a negative number such as -2 or -.5, which
    `search` refuses with its own message."""
    if ended or not token.startswith("-") or token == "-":
        return True
    whole, dot, fraction = token[1:].partition(".")
    return (whole + fraction).isdecimal() and (fraction.isdecimal() or not dot)


def _option(token: str, options: dict):
    """(long name, value given with it or None) of the option that token
    names, or None if it names none. A long option matches exactly or by a
    unique prefix, with its value after "="; a short one may be followed by
    its value, with or without "="."""
    for flag, (short, _, _) in options.items():
        if short and token[:2] == short:
            token = flag + ("=" + token[2:].removeprefix("=") if token[2:] else "")
    flag, eq, value = token.partition("=")
    found = [flag] if flag in options else [f for f in options if f.startswith(flag)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {flag} could match {', '.join(found)}")
    return (found[0], value if eq else None) if found else None


def parse_args(argv):
    """(command name, operands, options by keyword) read from argv through
    COMMANDS, or None once the help that -h/--help asks for is printed.
    Options go before or after the operand, and "--" ends them."""
    name = operand = None
    operands, values, unknown, ended, options = [], {}, [], False, _HELP
    choices = f"(choose from {', '.join(COMMANDS)})"
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not ended:
            ended = True
        elif _is_operand(token, ended):
            if name is None:
                if token not in COMMANDS:
                    raise UsageError(f"unknown command {token!r} {choices}")
                name, (_, _, operand, own) = token, COMMANDS[token]
                options = {**own, **_HELP}
                values = {f[2:]: False if v is bool else v[0] if isinstance(v, tuple) else None
                          for f, (_, v, _) in own.items()}
            elif operands or operand is None:
                unknown.append(token)
            elif operand == "N":
                try:
                    operands.append(int(token))
                except ValueError:
                    raise UsageError(f"N must be an integer, got {token!r}") from None
            else:
                operands.append(token)
        elif (found := _option(token, options)) is None:
            unknown.append(token)
        else:
            flag, value = found
            kind = options[flag][1]
            if kind is bool and value is not None:
                raise UsageError(f"{flag} takes no value, got {value!r}")
            if flag == "--help":
                sys.stdout.write(_help())
                return None
            if kind is not bool and value is None:
                value = next(tokens, None)
                if value is None or not _is_operand(value, False):
                    raise UsageError(f"{flag} needs a value")
            if isinstance(kind, tuple) and value not in kind:
                raise UsageError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
            values[flag[2:]] = True if kind is bool else value
    if name is None:
        raise UsageError(f"no command given {choices}")
    if operand and not operands:
        raise UsageError(f"missing operand: reslat {name} {operand}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return name, operands, values


def main(argv=None) -> int:
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return EX_OK
        name, operands, options = parsed
        func, _, operand, _ = COMMANDS[name]
        if operand == "ALG":
            # resolved before the command imports anything: a rejected input
            # loads no more modules than `_resolve` needs
            operands = [_resolve(operands[0])]
        return func(*operands, **options)
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
