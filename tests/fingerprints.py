"""Output fingerprints of every catalog algebra, every enumerated model up
to seven elements (up to six for the chains) and nine catalog products.

Each line is `group label size s1 s2 s3`: the group (`catalog`,
`structures`, `chains` or `products`), the algebra's label and carrier
size, and the sha256 of `serialize(a)`, of `render_json(build_report(a))`
and of `repr(gelfand_verdict(a))`. The lines also fix the enumeration order and the
labels. Regenerate the fixture only when a change to the answers is
intended, with

    PYTHONPATH=src python tests/fingerprints.py > tests/fingerprints.txt
"""

import hashlib

from reslat import (
    build_report, catalog, direct_product, gelfand_verdict, render_json, serialize,
)
from reslat.modelgen import residuated_structures

FIXTURE = "fingerprints.txt"
GROUPS = ("catalog", "structures", "chains", "products")

# The benchmark's six products, then three more that each report in well
# under a second; a tuple of three names is a threefold product.
PRODUCTS = (
    ("A8", "cube1"), ("A6", "cube2"), ("chain4", "chain4"), ("A8", "chain3"),
    ("chain3", "chain3", "chain3"), ("A6", "A6"),
    ("cube2", "A8"), ("A6", "A8"), ("MV3", "A8"),
)


def product(names):
    out = catalog.get(names[0])
    for name in names[1:]:
        out = direct_product(out, catalog.get(name))
    return out


def algebras(group):
    if group == "catalog":
        return (catalog.get(name) for name in catalog.catalog_names())
    if group == "structures":
        return (a for n in range(1, 8) for a in residuated_structures(n))
    if group == "chains":
        return (a for n in range(1, 7) for a in residuated_structures(n, chains_only=True))
    return (product(names) for names in PRODUCTS)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(group, a):
    return " ".join((
        group, a.label, str(a.n),
        _sha(serialize(a)),
        _sha(render_json(build_report(a))),
        _sha(repr(gelfand_verdict(a))),
    ))


def lines(group):
    return [fingerprint(group, a) for a in algebras(group)]


if __name__ == "__main__":
    for group in GROUPS:
        print("\n".join(lines(group)))
