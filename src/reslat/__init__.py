"""Finite residuated lattices: filters, spectra, and the Gelfand property.

The package represents a finite residuated lattice by its operation tables,
computes its filter lattice and hull-kernel spectra, and evaluates every
known characterization of the Gelfand, soft, local and semisimple properties
independently, insisting that equivalent routes agree before answering.

Importing the package loads none of its modules: each exported name is
imported from its home module on first use (PEP 562), so a command pays only
for the modules it runs.
"""
import sys

__version__ = "0.1.0"

# Home module of each exported name.
_EXPORTS = {
    "catalog": "catalog_names get",
    "core": (
        "ResiduatedLattice classify_elements direct_product is_prelinear quotient"
        " size_bound validate"
    ),
    "errors": (
        "AdjunctionFails CarrierTooLarge EquivalenceViolation FormatError"
        " ImproperInput NoResiduum NotAFilter NotALattice NotAnIdeal"
        " NotCommutativeMonoid NotResiduated ReslatError ResiduumMismatch UsageError"
    ),
    "fileformat": "export_dot load parse serialize to_json",
    "filters": (
        "all_filters coannihilator d_part filter_generators generated_filter"
        " is_comaximal is_local is_semisimple local_battery maximal_filters"
        " omega_filter prime_filters principal_filters radical radical_total"
    ),
    "gelfand": "GelfandVerdict classification gelfand_verdict hausdorff_battery is_soft",
    "modelgen": "classify_all enumerate_lattices residuated_structures",
    "pure": "pure_filters purely_maximal purely_prime rho sigma",
    "laws": "run_laws",
    "report": "build_report render_json",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    """An exported name, from its home module, or a submodule not imported
    yet. `__import__` keeps these imports visible to `-X importtime`."""
    submodule = f"{__name__}.{_HOME.get(name, name)}"
    try:
        __import__(submodule)
    except ModuleNotFoundError as exc:
        if exc.name != submodule:
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = sys.modules[submodule]
    value = getattr(module, name) if name in _HOME else module
    globals()[name] = value
    return value
