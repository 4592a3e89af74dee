"""Workloads of the reslat benchmark: the operations, their inputs, their oracles.

An operation is one `reslat` command line plus the exit code and output it
must produce. Every input file is built here from the seed: Goedel chain
tables, products made with `direct_product`, and files written with
`serialize` or `to_json`. The program under test only ever receives the files.

The oracles do not compare JSON text. They check facts that follow from the
mathematics and were confirmed against the code when the benchmark was
written, so a report that gains fields still passes while a wrong count or a
wrong verdict fails.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from typing import Callable

# Facts of the catalog algebras used as factors or as direct inputs:
# carrier size, filters, prime filters, maximal filters, Gelfand, soft, covers.
_CATALOG_FACTS = {
    "A6": (6, 5, 3, 2, False, False, 6),
    "A8": (8, 5, 3, 1, True, False, 10),
    "chain3": (3, 3, 2, 1, True, False, 2),
    "chain4": (4, 4, 3, 1, True, False, 3),
    "cube1": (2, 2, 1, 1, True, True, 1),
    "cube2": (4, 4, 2, 2, True, True, 4),
}

# `reslat search 6` at the commit that introduced the benchmark. The lattice
# counts are OEIS A006966; the structure counts were cross-checked against
# the naive enumerator in the test suite.
SEARCH6_LINES = (
    "n=1: lattices=1 structures=1 gelfand=1 soft=1 local=0 semisimple=1 "
    "rickart=1 baer=1 prelinear=1",
    "n=2: lattices=1 structures=1 gelfand=1 soft=1 local=1 semisimple=1 "
    "rickart=1 baer=1 prelinear=1",
    "n=3: lattices=1 structures=2 gelfand=2 soft=1 local=2 semisimple=1 "
    "rickart=2 baer=2 prelinear=2",
    "n=4: lattices=2 structures=7 gelfand=7 soft=3 local=6 semisimple=3 "
    "rickart=7 baer=7 prelinear=7",
    "n=5: lattices=5 structures=26 gelfand=25 soft=7 local=25 semisimple=7 "
    "rickart=25 baer=25 prelinear=23",
    "n=6: lattices=15 structures=129 gelfand=125 soft=34 local=123 "
    "semisimple=34 rickart=126 baer=126 prelinear=99",
)
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15)
STRUCTURE_COUNTS = (1, 1, 2, 7, 26, 129)

# Exit codes of the CLI.
EX_OK, EX_FALSE, EX_VIOLATION, EX_USAGE, EX_IO = 0, 1, 2, 64, 74


@dataclass(frozen=True)
class Facts:
    """What the oracles know about one algebra."""

    label: str
    size: int
    filters: int
    primes: int
    maximals: int
    gelfand: bool
    soft: bool | None = None  # None: not known independently, not checked
    covers: int | None = None

    @property
    def local(self) -> bool:
        return self.maximals == 1


def catalog_facts(name: str) -> Facts:
    size, filters, primes, maximals, gelfand, soft, covers = _CATALOG_FACTS[name]
    return Facts(name, size, filters, primes, maximals, gelfand, soft, covers)


def chain_facts(k: int) -> Facts:
    """Goedel chain of k elements: k filters, k-1 primes, one maximal,
    Gelfand and local, not soft for k >= 3, k-1 covers."""
    return Facts(f"goedel{k}", k, k, k - 1, 1, True, k < 3, k - 1)


def product_facts(a: Facts, b: Facts) -> Facts:
    """Filters multiply, prime and maximal counts add, and the product is
    Gelfand iff both factors are."""
    return Facts(
        f"{a.label}x{b.label}",
        a.size * b.size,
        a.filters * b.filters,
        a.primes + b.primes,
        a.maximals + b.maximals,
        a.gelfand and b.gelfand,
    )


# --- oracles -------------------------------------------------------------
# Each takes (stdout, stderr) and returns True when the output is right.


def _bool_leaves(node):
    if isinstance(node, bool):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _bool_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _bool_leaves(value)


def report_oracle(f: Facts) -> Callable[[str, str], bool]:
    def check(out: str, err: str) -> bool:
        try:
            r = json.loads(out)
            laws = list(_bool_leaves(r["laws"]))
            return (
                r["name"] == f.label
                and r["size"] == f.size
                and r["filters"]["count"] == f.filters
                and len(r["filters"]["sets"]) == f.filters
                and len(r["prime_filters"]) == f.primes
                and len(r["maximal_filters"]) == f.maximals
                and r["gelfand"]["verdict"] is f.gelfand
                and r["classification"]["gelfand"] is f.gelfand
                and r["classification"]["local"] is f.local
                and bool(laws)
                and all(laws)
            )
        except (ValueError, KeyError, TypeError):
            return False

    return check


def search6_oracle(out: str, err: str) -> bool:
    lines = tuple(out.splitlines())
    if lines != SEARCH6_LINES:
        return False
    counts = [dict(kv.split("=") for kv in line.split(":")[1].split()) for line in lines]
    return tuple(int(c["lattices"]) for c in counts) == LATTICE_COUNTS and tuple(
        int(c["structures"]) for c in counts
    ) == STRUCTURE_COUNTS


def check_oracle(f: Facts):
    expected = [
        f"{f.label}: valid residuated lattice on {f.size} elements",
        f"filters={f.filters} maximal={f.maximals} prime={f.primes}",
    ]
    return lambda out, err: out.splitlines() == expected


def gelfand_oracle(f: Facts):
    # Unanimity: a verdict is only reported when all fourteen criteria agree.
    head = f"Gelfand: yes (14/14 criteria)" if f.gelfand else "Gelfand: no (0/14 criteria)"
    return lambda out, err: out.splitlines()[:1] == [head]


def patch_spectrum_oracle(f: Facts):
    # The patch topology of a finite spectrum is discrete: 2^|primes| closed sets.
    def check(out: str, err: str) -> bool:
        lines = out.splitlines()
        points = lines[: f.primes]
        return (
            len(lines) == f.primes + 2
            and sum(p.endswith(" maximal") for p in points) == f.maximals
            and lines[-2] == f"{f.primes} points, {2 ** f.primes} closed sets"
            and lines[-1]
            == "compact=yes discrete=yes hausdorff=yes normal=yes t1=yes"
        )

    return check


def soft_oracle(f: Facts):
    last = f"soft: {'yes' if f.soft else 'no'}"
    return lambda out, err: out.splitlines()[-1:] == [last]


def pure_oracle(f: Facts):
    # The pure spectrum is homeomorphic to the maximal one iff Gelfand.
    last = (
        "pure spectrum homeomorphic to maximal spectrum: "
        + ("yes" if f.gelfand else "no")
    )
    return lambda out, err: out.splitlines()[-1:] == [last]


def filters_oracle(f: Facts):
    def check(out: str, err: str) -> bool:
        tags = [line.split(" ")[2].split(",") if line.count(" ") >= 2 else []
                for line in out.splitlines()]
        return (
            len(tags) == f.filters
            and sum("improper" in t for t in tags) == 1
            and sum("maximal" in t for t in tags) == f.maximals
            and sum("prime" in t for t in tags) == f.primes
        )

    return check


def hasse_dot_oracle(f: Facts):
    def check(out: str, err: str) -> bool:
        lines = out.splitlines()
        body = lines[2:-1]
        return (
            bool(lines)
            and lines[0].startswith("digraph ")
            and lines[-1] == "}"
            and sum("->" not in line for line in body) == f.size
            and sum("->" in line for line in body) == f.covers
        )

    return check


def rejected_oracle(prefix: str):
    return lambda out, err: out == "" and err.startswith(prefix)


# --- operations ------------------------------------------------------------

INPUT = "{input}"  # placeholder in argv for the operation's input file


class Malformed:
    """Input source: the algebra's file with the second mul row cut short."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.label = "malformed"


ABSENT = "absent"  # input source: a path where no file is written


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it must produce."""

    name: str
    argv: tuple[str, ...]
    expect_code: int
    check: Callable[[str, str], bool]
    source: object = None  # an algebra, a Malformed one, ABSENT, or None
    env: tuple[tuple[str, str], ...] = ()
    path: str = ""

    def command(self) -> list[str]:
        """Arguments after `reslat`, with the input path filled in."""
        return [self.path if a == INPUT else a for a in self.argv]


def goedel_chain(reslat, k: int):
    """The k-element Goedel chain, built from its tables: mul = min."""
    names = ["0"] + [chr(ord("a") + i) for i in range(k - 2)] + ["1"]
    mul = [[min(i, j) for j in range(k)] for i in range(k)]
    covers = [(i, i + 1) for i in range(k - 1)]
    return reslat.validate(names, mul, covers=covers, label=f"goedel{k}")


def _report(name: str, algebra, facts: Facts) -> Op:
    return Op(f"report {name}", ("report", INPUT), EX_OK, report_oracle(facts), algebra)


def _report_chains(reslat) -> list[Op]:
    # Every chain twice. Chain 8 is a fifth of every round and costs four
    # times chain 7, so the p90 is the median of the chain-8 reports whatever
    # the number of rounds.
    ops = []
    for k in (4, 5, 6, 7, 8, 4, 5, 6, 7, 8):
        ops.append(_report(f"goedel{k}", goedel_chain(reslat, k), chain_facts(k)))
    return ops


def _report_products(reslat) -> list[Op]:
    get, prod = reslat.get, reslat.direct_product
    pairs = [("A8", "cube1"), ("A6", "cube2"), ("chain4", "chain4"),
             ("A8", "chain3")]
    # The four cheaper products twice, the two dearest once. With the 19
    # short commands of `_cli_mix` a round has 29 operations, and its p90
    # falls among the A6xcube2 and A8xchain3 reports, inside their cluster.
    ops = []
    for x, y in pairs + pairs:
        facts = product_facts(catalog_facts(x), catalog_facts(y))
        ops.append(_report(facts.label, prod(get(x), get(y)), facts))
    c3 = catalog_facts("chain3")
    cubed = prod(prod(get("chain3"), get("chain3")), get("chain3"))
    ops.append(_report("chain3^3", cubed, product_facts(product_facts(c3, c3), c3)))
    a6 = catalog_facts("A6")
    ops.append(_report("A6xA6", prod(get("A6"), get("A6")), product_facts(a6, a6)))
    return ops


def _sweep(reslat) -> list[Op]:
    return [Op("search 6", ("search", "6"), EX_OK, search6_oracle)]


def _cli_mix(reslat) -> list[Op]:
    a6, a8, cube2 = (catalog_facts(n) for n in ("A6", "A8", "cube2"))
    c5, c6 = chain_facts(5), chain_facts(6)
    chain5, chain6 = goedel_chain(reslat, 5), goedel_chain(reslat, 6)
    mixed = product_facts(catalog_facts("cube1"), catalog_facts("chain3"))
    mixed_alg = reslat.direct_product(reslat.get("cube1"), reslat.get("chain3"))

    def op(argv, code, check, source=None, env=()):
        shown = " ".join(a for a in argv if a != INPUT)
        if source is not None:
            shown += f" <{getattr(source, 'label', source)}>"
        if env:
            shown += " " + " ".join(f"{k}={v}" for k, v in env)
        return Op(shown, tuple(argv), code, check, source, tuple(env))

    return [
        op(("check", "A8"), EX_OK, check_oracle(a8)),
        op(("gelfand", "A6"), EX_FALSE, gelfand_oracle(a6)),
        op(("gelfand", "A8"), EX_OK, gelfand_oracle(a8)),
        op(("spectrum", "--kind", "patch", "A8"), EX_OK, patch_spectrum_oracle(a8)),
        op(("soft", "cube2"), EX_OK, soft_oracle(cube2)),
        op(("pure", "A6"), EX_FALSE, pure_oracle(a6)),
        op(("filters", "A8"), EX_OK, filters_oracle(a8)),
        op(("export-dot", "A8"), EX_OK, hasse_dot_oracle(a8)),
        op(("check", INPUT), EX_OK, check_oracle(c5), chain5),
        op(("gelfand", INPUT), EX_OK, gelfand_oracle(c6), chain6),
        op(("spectrum", "--kind", "patch", INPUT), EX_OK,
           patch_spectrum_oracle(mixed), mixed_alg),
        op(("soft", INPUT), EX_FALSE, soft_oracle(c5), chain5),
        op(("pure", INPUT), EX_OK, pure_oracle(mixed), mixed_alg),
        op(("filters", INPUT), EX_OK, filters_oracle(c6), chain6),
        op(("export-dot", INPUT), EX_OK, hasse_dot_oracle(c5), chain5),
        op(("check", INPUT), EX_FALSE, rejected_oracle("invalid algebra: "),
           Malformed(chain5)),
        op(("check", INPUT), EX_IO, rejected_oracle("io error: "), ABSENT),
        op(("check", "A6"), EX_FALSE, rejected_oracle("invalid algebra: carrier size"),
           env=(("RESLAT_MAX_SIZE", "4"),)),
        op(("check", "A8"), EX_USAGE, rejected_oracle("usage error: RESLAT_MAX_SIZE"),
           env=(("RESLAT_MAX_SIZE", "abc"),)),
    ]


def _products_cli(reslat) -> list[Op]:
    # The short commands ride with the product reports rather than forming a
    # workload of their own: three workloads of 35 s take as long to measure
    # as four of 24 s, and longer runs average more of the host's speed
    # drift. The reports still take about two thirds of a round's time and
    # nearly all of its in-process time.
    return _report_products(reslat) + _cli_mix(reslat)


_BUILDERS = {
    "report-chains": _report_chains,
    "products-cli": _products_cli,
    "sweep": _sweep,
}
WORKLOADS = tuple(_BUILDERS)


def build_ops(workload: str, reslat) -> list[Op]:
    """The operations of one round, cheapest first; the first is the warm-up."""
    return _BUILDERS[workload](reslat)


def _render(reslat, source, as_json: bool) -> str:
    if not isinstance(source, Malformed):
        return reslat.to_json(source) if as_json else reslat.serialize(source)
    if as_json:
        data = json.loads(reslat.to_json(source.algebra))
        data["mul"][1] = data["mul"][1][:-1]
        return json.dumps(data)
    lines = reslat.serialize(source.algebra).splitlines()
    row = lines.index("mul") + 2
    lines[row] = lines[row].rsplit(" ", 1)[0]
    return "\n".join(lines) + "\n"


def write_inputs(ops: list[Op], reslat, directory: str, rng: random.Random) -> list[Op]:
    """Write each operation's input into `directory`, in text or JSON as the
    seeded generator picks, and return the operations with their paths."""
    out = []
    for i, op in enumerate(ops):
        if op.source is None:
            out.append(op)
            continue
        as_json = rng.random() < 0.5
        path = os.path.join(directory, f"{i:02d}-input.{'json' if as_json else 'txt'}")
        if op.source is not ABSENT:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_render(reslat, op.source, as_json))
        out.append(replace(op, path=path))
    return out
