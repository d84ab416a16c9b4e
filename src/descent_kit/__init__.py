"""Exact Weil restriction for algebras with free-operator structures.

The package computes, over QQ or a prime field, the descent of a finitely
presented algebra along a free finite ring extension while transporting
difference/differential (and more general finite-dimensional operator)
structures, certifying every supporting identity as it goes.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first access (PEP 562), so a caller pays
only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "scalars": ("GF", "QQ", "ScalarField"),
    "polynomials": ("DegRevLex", "Monomial", "Polynomial", "parse_polynomial", "render"),
    "groebner": ("GroebnerBasis", "buchberger", "buchberger_extended", "normal_form",
                 "staircase"),
    "presented": ("PresentedRing",),
    "structure": ("AlgebraElement", "StructureAlgebra", "evaluate_poly"),
    "dalgebra": ("DCoefficientAlgebra", "build_d_algebra", "difference_algebra", "dual_numbers",
                 "dual_numbers_times_field", "product_of_fields", "truncated_jets"),
    "dstructures": ("DStructure", "truncated_operator_polynomials"),
    "tower": ("OperatorTower", "PresentedBAlgebra"),
    "descent_matrix": ("DescentMatrix", "associated_matrix", "invertibility_equivalences"),
    "matrices": ("RingMatrix",),
    "weil": ("WeilDescentResult", "tau_forward", "tau_inverse", "weil_descend"),
    "weil_d": ("DDescentResult", "descend_d_structure", "rederive_images", "tau_d_forward",
               "tau_d_inverse", "verify_d_hom"),
    "compose": ("commutes", "compose_descent_check", "compose_structures", "compose_towers",
                "gamma_swap", "tensor_coefficients"),
    "homs": ("adjoint_evidence", "adjunction_audit", "enumerate_descended_homs",
             "enumerate_homs", "enumerate_upstairs_homs"),
    "problem": ("ProblemDescription", "load_problem", "problem_from_file"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
