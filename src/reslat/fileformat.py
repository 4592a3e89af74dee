"""Reading, writing and exporting algebras.

The text format is line based:

    name A6
    elements 0 a b c d 1
    covers 0<a 0<c a<b b<d c<d d<1
    mul
    0 0 0 0 0 0
    ...
    res
    1 1 1 1 1 1
    ...

The order section is either a single `covers` line or a `leq` marker followed
by n rows of 0/1. The `res` block is optional; when present it must match the
residuum derived from the order and multiplication. The JSON format carries
the same fields. serialize/parse round-trip byte for byte on canonical output.
"""
from __future__ import annotations

import json

from .core import ResiduatedLattice, bits, validate
from .errors import FormatError
from . import filters as flt
from . import topology as top


def parse_text(text: str) -> ResiduatedLattice:
    label = ""
    names: list[str] | None = None
    covers: list[tuple[int, int]] | None = None
    leq: list[list[int]] | None = None
    mul: list[list[int]] | None = None
    res: list[list[int]] | None = None
    index: dict[str, int] = {}
    rows_needed = 0
    target: list[list[int]] | None = None
    target_line = 0

    def lookup(tok: str, lineno: int) -> int:
        if tok not in index:
            raise FormatError(f"unknown element {tok!r}", lineno)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if rows_needed:
            toks = line.split()
            if names is None or len(toks) != len(names):
                raise FormatError(
                    f"expected {len(names or ())} entries in table row", lineno
                )
            if target is leq:
                if any(t not in ("0", "1") for t in toks):
                    raise FormatError("leq rows must contain 0 or 1", lineno)
                target.append([int(t) for t in toks])
            else:
                target.append([lookup(t, lineno) for t in toks])
            rows_needed -= 1
            continue
        word, _, rest = line.partition(" ")
        if word == "name":
            label = rest.strip()
        elif word == "elements":
            if names is not None:
                raise FormatError("duplicate elements line", lineno)
            names = rest.split()
            if not names:
                raise FormatError("elements line lists no elements", lineno)
            if len(set(names)) != len(names):
                raise FormatError("duplicate element names", lineno)
            index = {s: i for i, s in enumerate(names)}
        elif word == "covers":
            if names is None:
                raise FormatError("covers before elements", lineno)
            if covers is not None:
                raise FormatError("duplicate covers line", lineno)
            covers = []
            for tok in rest.split():
                lo, sep, hi = tok.partition("<")
                if not sep:
                    raise FormatError(f"malformed cover {tok!r}", lineno)
                covers.append((lookup(lo, lineno), lookup(hi, lineno)))
        elif word in ("leq", "mul", "res"):
            if names is None:
                raise FormatError(f"{word} before elements", lineno)
            if rest.strip():
                raise FormatError(f"{word} takes no arguments", lineno)
            if {"leq": leq, "mul": mul, "res": res}[word] is not None:
                raise FormatError(f"duplicate {word} block", lineno)
            block: list[list[int]] = []
            if word == "leq":
                leq = block
            elif word == "mul":
                mul = block
            else:
                res = block
            target = block
            rows_needed = len(names)
            target_line = lineno
        else:
            raise FormatError(f"unknown directive {word!r}", lineno)
    if rows_needed:
        raise FormatError(
            f"table starting here is missing {rows_needed} rows", target_line
        )
    if names is None:
        raise FormatError("no elements line")
    if (covers is None) == (leq is None):
        raise FormatError("need exactly one of covers or leq")
    if mul is None:
        raise FormatError("no mul table")
    return validate(names, mul, leq=leq, covers=covers, res=res, label=label)


def _covers(up) -> tuple[tuple[int, int], ...]:
    """The covering pairs (x, y) of the order whose up masks are `up` (bit y
    of up[x] is set iff x <= y): x < y with nothing strictly between, in
    ascending order."""
    out = []
    for x, above in enumerate(up):
        above &= ~(1 << x)
        for y in bits(above):
            if not any((up[z] >> y) & 1 for z in bits(above & ~(1 << y))):
                out.append((x, y))
    return tuple(out)


def cover_pairs(a: ResiduatedLattice) -> tuple[tuple[int, int], ...]:
    return _covers(a.up)


def serialize(a: ResiduatedLattice) -> str:
    """The text form; refuses element names that parse_text cannot read back
    (empty, holding whitespace or a line break as str.split sees them, '#'
    or '<'), and labels holding '#' or a line break or with whitespace at
    either end."""
    for name in a.names:
        if name.split() != [name] or "#" in name or "<" in name:
            raise FormatError(f"element name {name!r} cannot be written as text")
    if "#" in a.label or a.label != a.label.strip() or len(a.label.splitlines()) > 1:
        raise FormatError(f"label {a.label!r} cannot be written as text")
    lines = [f"name {a.label}", "elements " + " ".join(a.names)]
    lines.append(
        "covers "
        + " ".join(f"{a.names[x]}<{a.names[y]}" for x, y in cover_pairs(a))
    )
    lines.append("mul")
    for row in a.mul:
        lines.append(" ".join(a.names[v] for v in row))
    lines.append("res")
    for row in a.res:
        lines.append(" ".join(a.names[v] for v in row))
    return "\n".join(lines) + "\n"


def parse_json_text(text: str) -> ResiduatedLattice:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    if "elements" not in data:
        raise FormatError("missing elements")
    if not isinstance(data["elements"], list):
        raise FormatError("elements must be a list")
    names = [str(s) for s in data["elements"]]
    index = {s: i for i, s in enumerate(names)}

    def table(key):
        rows = data[key]
        return [[index[str(v)] for v in row] for row in rows]

    try:
        if "covers" in data:
            covers = [(index[str(lo)], index[str(hi)]) for lo, hi in data["covers"]]
            leq = None
        elif "leq" in data:
            covers = None
            leq = [list(row) for row in data["leq"]]
            if any(type(v) is not int or v not in (0, 1) for row in leq for v in row):
                raise FormatError("leq rows must contain 0 or 1")
        else:
            raise FormatError("need covers or leq")
        mul = table("mul")
    except KeyError as exc:
        raise FormatError(f"unknown element or missing field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed table: {exc}") from None
    try:
        res = table("res") if "res" in data else None
    except KeyError as exc:
        raise FormatError(f"unknown element in res: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed table: {exc}") from None
    return validate(
        names, mul, leq=leq, covers=covers, res=res, label=str(data.get("name", ""))
    )


def to_json(a: ResiduatedLattice) -> str:
    data = {
        "name": a.label,
        "elements": list(a.names),
        "covers": [[a.names[x], a.names[y]] for x, y in cover_pairs(a)],
        "mul": [[a.names[v] for v in row] for row in a.mul],
        "res": [[a.names[v] for v in row] for row in a.res],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def parse(text: str) -> ResiduatedLattice:
    """Dispatch on the leading character: '{' means JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json_text(text)
    return parse_text(text)


def load(path: str) -> ResiduatedLattice:
    """Parse a UTF-8 file, with or without a byte order mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        byte, line = exc.object[exc.start], exc.object.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8: {exc.reason} 0x{byte:02x}", line) from None
    return parse(text)


def _dot_name(label: str) -> str:
    """An unquoted DOT ID: letters, digits and '_', not starting with a
    digit."""
    name = "".join(c if c.isalnum() else "_" for c in label) or "algebra"
    return "_" + name if name[0].isdigit() else name


def _dot_id(text: str) -> str:
    """A quoted DOT node ID, with backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: ResiduatedLattice, kind: str = "hasse") -> str:
    """DOT text: the Hasse diagram, or the specialization order on primes."""
    lines = [f"digraph {_dot_name(a.label)} {{", "  rankdir=BT;"]
    if kind == "hasse":
        for name in a.names:
            lines.append(f"  {_dot_id(name)};")
        for x, y in cover_pairs(a):
            lines.append(f"  {_dot_id(a.names[x])} -> {_dot_id(a.names[y])};")
    elif kind == "spec":
        primes = flt.prime_filters(a)
        ids = [_dot_id(a.set_repr(p)) for p in primes]
        for i in ids:
            lines.append(f"  {i};")
        for i, j in _covers([top.hull_in(primes, p) for p in primes]):
            lines.append(f"  {ids[i]} -> {ids[j]};")
    else:
        raise ValueError(f"unknown export kind {kind!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"
