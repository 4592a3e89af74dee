"""Full structured description of one algebra, rendered as stable JSON.

build_report computes everything the package knows how to check: filters,
spectra, the Gelfand criteria, softness, the law suites of `laws`. Rendering
sorts keys and ends with a newline, so two runs over the same algebra are
byte-identical. A report belongs to its caller: the dicts of the memoized
verdict and soft routes are copied into it, so editing a report changes no
later answer on the algebra.
"""
from __future__ import annotations

import json

from .core import ResiduatedLattice, classify_elements, is_prelinear
from . import filters as flt
from . import laws
from . import pure as pr
from . import topology as top
from .gelfand import (
    classification,
    gelfand_verdict,
    hausdorff_battery,
    is_soft,
    retractions,
)


def _names(a: ResiduatedLattice, mask: int) -> list[str]:
    return list(a.set_names(mask))


def _family(a: ResiduatedLattice, masks) -> list[list[str]]:
    return [_names(a, m) for m in masks]


def build_report(a: ResiduatedLattice) -> dict:
    fs = flt.all_filters(a)
    cls = classify_elements(a)
    verdict = gelfand_verdict(a)
    flags = classification(a)
    _, soft_routes = is_soft(a)
    battery = hausdorff_battery(a)
    count, _ = retractions(a)
    hspace = top.spec_space(a, "hull")
    pspace = top.spec_space(a, "patch")
    rad = flt.radical_total(a, 1 << a.one)
    return {
        "name": a.label,
        "size": a.n,
        "elements": list(a.names),
        "prelinear": is_prelinear(a),
        "boolean_center": _names(a, cls.boolean_center),
        "nilpotents": _names(a, cls.nilpotents),
        "idempotents": _names(a, cls.idempotents),
        "filters": {
            "count": len(fs),
            "sets": _family(a, fs),
        },
        "maximal_filters": _family(a, flt.maximal_filters(a)),
        "prime_filters": _family(a, flt.prime_filters(a)),
        "radical": _names(a, rad),
        "classification": flags,
        "gelfand": {
            "verdict": verdict.verdict,
            "criteria": dict(verdict.criteria),
            "details": {name: dict(leaves) for name, leaves in verdict.details.items()},
            "witnesses": dict(verdict.witnesses),
        },
        "soft_routes": dict(soft_routes),
        "hausdorff_battery": battery,
        "local_battery": flt.local_battery(a),
        "retraction_count": count,
        "pure_filters": _family(a, pr.pure_filters(a)),
        "purely_prime": _family(a, pr.purely_prime(a)),
        "purely_maximal": _family(a, pr.purely_maximal(a)),
        "spectrum": {
            "points": _family(a, flt.prime_filters(a)),
            "closed_set_count": len(top.closed_sets(hspace)),
            "hull_predicates": top.space_predicates(hspace),
            "patch_predicates": top.space_predicates(pspace),
            "clopen_count": len(top.clopen_check(a)),
        },
        "laws": laws.run_laws(a),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
