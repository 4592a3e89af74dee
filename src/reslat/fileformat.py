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
the same fields. Each reader turns its syntax into one directive table, and
`_assemble` holds every rule of the format for both. serialize/parse
round-trip byte for byte on canonical output.
"""
from __future__ import annotations

import os
import stat

from .core import ResiduatedLattice, bits, size_bound, validate
from .errors import FormatError


_BLOCKS = ("leq", "mul", "res")
_DIRECTIVES = ("name", "elements", "covers") + _BLOCKS


def _assemble(raw: dict) -> ResiduatedLattice:
    """The algebra of a directive table, read by either format: each
    directive maps to (its line, its value), the line None in JSON. The
    value is the label, the element names, the covers as name pairs (a cover
    that is no pair as written), or for a block its rows, each with its own
    line. Every rule of the format is checked here, in the table's order."""
    label = raw.get("name", (None, ""))[1]
    if not isinstance(label, str):
        raise FormatError("name must be a string")
    if "elements" not in raw:
        raise FormatError("no elements line")
    line, names = raw["elements"]
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise FormatError("elements must be a list of strings", line)
    if not names:
        raise FormatError("elements line lists no elements", line)
    if len(set(names)) != len(names):
        raise FormatError("duplicate element names", line)
    index = {s: i for i, s in enumerate(names)}

    def lookup(tok, line) -> int:
        if not isinstance(tok, str) or tok not in index:
            raise FormatError(f"unknown element {tok!r}", line)
        return index[tok]

    tables: dict = {}
    for word, (line, value) in raw.items():
        if word == "covers":
            tables[word] = []
            for pair in value:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise FormatError(f"malformed cover {pair!r}", line)
                tables[word].append((lookup(pair[0], line), lookup(pair[1], line)))
        elif word in _BLOCKS:
            tables[word] = []
            for line, row in value:
                if not isinstance(row, list) or len(row) != len(names):
                    raise FormatError(f"expected {len(names)} entries in table row", line)
                if word != "leq":
                    row = [lookup(tok, line) for tok in row]
                elif any(type(v) is not int or v not in (0, 1) for v in row):
                    raise FormatError("leq rows must contain 0 or 1", line)
                tables[word].append(row)
    if ("covers" in raw) == ("leq" in raw):
        raise FormatError("need exactly one of covers or leq")
    if "mul" not in raw:
        raise FormatError("no mul table")
    return validate(
        names, tables["mul"], leq=tables.get("leq"), covers=tables.get("covers"),
        res=tables.get("res"), label=label,
    )


def parse_text(text: str) -> ResiduatedLattice:
    raw: dict = {}
    rows_needed = 0
    block = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if rows_needed:
            toks = line.split()
            if block == "leq":  # 0 and 1 stand for the numbers, as in JSON
                toks = [int(t) if t in ("0", "1") else t for t in toks]
            raw[block][1].append((lineno, toks))
            rows_needed -= 1
            continue
        word, _, rest = line.partition(" ")
        if word not in _DIRECTIVES:
            raise FormatError(f"unknown directive {word!r}", lineno)
        if word not in ("name", "elements") and "elements" not in raw:
            raise FormatError(f"{word} before elements", lineno)
        if word in _BLOCKS and rest.strip():
            raise FormatError(f"{word} takes no arguments", lineno)
        if word in raw:
            kind = "block" if word in _BLOCKS else "line"
            raise FormatError(f"duplicate {word} {kind}", lineno)
        if word == "name":
            value = rest.strip()
        elif word == "elements":
            value = rest.split()
        elif word == "covers":  # a token without '<' stays whole, and is no pair
            value = [tok.split("<", 1) if "<" in tok else tok for tok in rest.split()]
        else:
            value, block, rows_needed = [], word, len(raw["elements"][1])
        raw[word] = (lineno, value)
    if rows_needed:
        raise FormatError(f"table starting here is missing {rows_needed} rows", raw[block][0])
    return _assemble(raw)


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


def _fields(a: ResiduatedLattice) -> dict:
    """The fields both writers render, in their order: the label, the
    element names, the covers as name pairs and the rows of mul and res."""
    names = a.names
    return {
        "name": a.label,
        "elements": list(names),
        "covers": [[names[x], names[y]] for x, y in cover_pairs(a)],
        "mul": [[names[v] for v in row] for row in a.mul],
        "res": [[names[v] for v in row] for row in a.res],
    }


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
    lines = []
    for word, value in _fields(a).items():
        if word in _BLOCKS:
            lines += [word] + [" ".join(row) for row in value]
        elif word == "covers":
            lines.append("covers " + " ".join(f"{lo}<{hi}" for lo, hi in value))
        else:
            lines.append(f"{word} " + (value if word == "name" else " ".join(value)))
    return "\n".join(lines) + "\n"


def parse_json_text(text: str) -> ResiduatedLattice:
    """The algebra of a JSON object; its keys are read in order, so that a
    repeated directive is refused as in the text form."""
    import json

    pairs = []  # the key-value pairs of the object parsed last: the top level

    def keep_pairs(items):
        pairs[:] = items
        return dict(items)

    try:
        data = json.loads(text, object_pairs_hook=keep_pairs)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc.msg}", exc.lineno) from exc
    except RecursionError:
        raise FormatError("bad JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    raw: dict = {}
    for word, value in pairs:
        if word not in _DIRECTIVES:
            raise FormatError(f"unknown directive {word!r}")
        if word in raw:
            raise FormatError(f"duplicate {word} {'block' if word in _BLOCKS else 'line'}")
        if (word == "covers" or word in _BLOCKS) and not isinstance(value, list):
            raise FormatError(f"{word} must be a list")
        if word in _BLOCKS:
            value = [(None, row) for row in value]
        raw[word] = (None, value)
    return _assemble(raw)


def to_json(a: ResiduatedLattice) -> str:
    import json

    return json.dumps(_fields(a), sort_keys=True, indent=2) + "\n"


def parse(text: str) -> ResiduatedLattice:
    """Dispatch on the leading character: '{' means JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json_text(text)
    return parse_text(text)


def load(path: str) -> ResiduatedLattice:
    """Parse a UTF-8 file, with or without a byte order mark. A FIFO, device
    or directory is refused unopened. At most 256 bytes per table cell of the
    largest admitted carrier are read (three n x n tables of about 85 bytes a
    cell, room for long names and JSON indentation), plus one to refuse more."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(f"{path!r} is not a regular file")
    limit = 256 * size_bound() ** 2
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise FormatError(f"file exceeds {limit} bytes, the bound for {size_bound()} elements")
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
        from . import filters as flt
        from . import topology as top

        primes = flt.prime_filters(a)
        ids = [_dot_id(a.set_repr(p)) for p in primes]
        for i in ids:
            lines.append(f"  {i};")
        for i, j in _covers(top.specialization(a)):
            lines.append(f"  {ids[i]} -> {ids[j]};")
    else:
        raise ValueError(f"unknown export kind {kind!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"
