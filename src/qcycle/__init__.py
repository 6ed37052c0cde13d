"""Exact-arithmetic q-cycle coalgebra structures on the dual truncated
polynomial coalgebra: construction, braid-equation verification, operator
identities, and classification families."""

from .series import Series1, Series2, binomial_series, compose, compositional_inverse, divide_exact
from .tensor import (
    CoeffTensor,
    QCycleStructure,
    extend_from_level1,
    is_coalgebra_morphism,
    reconstruct_f_from_g,
    rescale,
    structural_lemma_suite,
)
from .standard import (
    StandardCycleBundle,
    StandardCycleParams,
    build_standard_cycle,
    invariant_suite,
    reconstruct_from_row,
    table_properties,
)
from .solution import (
    BraidReport,
    LinearMap2,
    build_solution,
    check_braid_full,
    check_braid_on_map,
    check_braid_reduced,
    gd_map,
    gp_map,
    is_coalgebra_endomorphism,
    structure_sanity,
)
from .operators import OperatorContext, build_context, identity_suite
from .families import (
    ClassificationRow,
    NonRootFamilyInput,
    build_nonroot_family,
    classify,
    first_column_vanishing_check,
    fixtures_n3,
    nonunit_vanishing_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
