"""Full structured description of one algebra, rendered as stable JSON.

build_report computes everything the package knows how to check: filters,
spectra, the Gelfand criteria, softness, the law suites. Rendering sorts keys
and ends with a newline, so two runs over the same algebra are byte-identical.
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


def run_laws(a: ResiduatedLattice) -> dict[str, dict[str, bool]]:
    """Every law suite in the package; raises EquivalenceViolation on any
    failure, otherwise returns the named results."""
    out = {
        "generated_filter": laws.generated_filter_laws(a),
        "comaximality": laws.comaximality_laws(a),
        "maximality_power": laws.maximality_power_law(a),
        "filter_lattice": laws.filter_lattice_laws(a),
        "nilpotent_ideal": laws.nilpotent_ideal_law(a),
        "boolean_center": laws.beta_radical_laws(a),
        "dpart_meet": laws.dpart_meet_law(a),
        "quotient_maximals": laws.quotient_maximals_law(a),
        "local_quotient": laws.local_quotient_law(a),
        "coannihilator": laws.coannihilator_laws(a),
        "omega": laws.omega_monotone_law(a),
        "sigma": pr.sigma_laws(a),
        "sigma_frame": pr.sigma_frame_laws(a),
        "pure_intersection": pr.pure_intersection_law(a),
        "rho": pr.rho_laws(a),
        "purely_prime": pr.purely_prime_laws(a),
        "continuity": pr.continuity_law(a),
        "stable_open": pr.stable_open_law(a),
    }
    top.closure_lemmas(a)
    top.patch_stability_criterion(a)
    top.clopen_check(a)
    top.max_dense_iff_semisimple(a)
    out["topology"] = {
        "closure_lemmas": True,
        "closed_families_coincide": True,
        "patch_stability_criterion": True,
        "clopens_are_center_hulls": True,
        "max_dense_iff_semisimple": True,
    }
    return out


def _names(a: ResiduatedLattice, mask: int) -> list[str]:
    return list(a.set_names(mask))


def _family(a: ResiduatedLattice, masks) -> list[list[str]]:
    return [_names(a, m) for m in masks]


def build_report(a: ResiduatedLattice) -> dict:
    ctx = flt.analysis(a)
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
            "count": len(ctx.filters),
            "sets": _family(a, ctx.filters),
        },
        "maximal_filters": _family(a, ctx.maximals),
        "prime_filters": _family(a, flt.prime_filters(a)),
        "radical": _names(a, rad),
        "classification": flags,
        "gelfand": {
            "verdict": verdict.verdict,
            "criteria": verdict.criteria,
            "details": verdict.details,
            "witnesses": verdict.witnesses,
        },
        "soft_routes": soft_routes,
        "hausdorff_battery": battery,
        "local_battery": flt.local_battery(a),
        "retraction_count": count,
        "pure_filters": _family(a, pr.pure_filters(a)),
        "purely_prime": _family(a, pr.purely_prime(a)),
        "purely_maximal": _family(a, pr.purely_maximal(a)),
        "spectrum": {
            "points": _family(a, flt.prime_filters(a)),
            "closed_set_count": len(hspace.closed),
            "hull_predicates": top.space_predicates(hspace),
            "patch_predicates": top.space_predicates(pspace),
            "clopen_count": len(top.clopen_check(a)),
        },
        "laws": run_laws(a),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
