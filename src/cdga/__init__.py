"""Exact-arithmetic commutative differential graded algebra toolkit.

Everything computes over the rationals with :class:`fractions.Fraction`;
no floats appear anywhere.  The main entry points:

- :mod:`cdga.linalg` — exact sparse matrices with one product kernel, and
  one integer elimination routine (rows over one denominator, primitive
  echelon rows, content removed; Fractions only at input and output)
  behind rank, det, rref, nullspace/solve and the incremental eliminator.
- :mod:`cdga.graded` — graded sign bookkeeping, label spaces, and the one
  check of the graded Lie identities on a bracket table.
- :mod:`cdga.poly` — free graded-commutative polynomials.
- :mod:`cdga.complexes` — cochain complexes, cones, cylinders, Betti
  numbers from one rank per differential, cohomology spaces with canonical
  representatives, weak equivalences with dual-route verification.
- :mod:`cdga.algebra` — finitely presented free CDGAs, derivations, morphisms.
- :mod:`cdga.free` — free functor dimension counts from one generating
  series, free graded Lie algebras, associativity-checked algebra and
  module presentations, bar constructions.
- :mod:`cdga.cartan` — contraction/flow operators on Lie cochains and the
  Weil construction, classifying maps, flow integration.
- :mod:`cdga.minimal` — minimal Sullivan models and rational homotopy ranks.
- :mod:`cdga.hodge` — inner products, adjoints, Laplacians, harmonic
  decompositions, and the number operator audit.
- :mod:`cdga.documents` — JSON document formats with schema validation.
- :mod:`cdga.cli` — the ``cdga`` command.
"""

from .graded import GradedError, GradedSpace, koszul_sign
from .linalg import Mat, SparseEliminator, block_matrix
from .poly import Generators, Polynomial, basis_keys
from .exprparse import ParseError, parse_polynomial
from .complexes import (
    ChainMap,
    CheckReport,
    Complex,
    ComplexError,
    GradedMap,
    HomologySpace,
    InternalCheckError,
    WeakEquivalenceReport,
    augmented,
    betti_numbers,
    check,
    check_homotopy,
    cone,
    cone_contraction,
    cone_prime,
    contracting_homotopy,
    direct_sum,
    dual,
    free_to_cone_iso,
    induced_on_homology,
    is_contractible,
    is_weak_equivalence,
    mapping_cone,
    mapping_cylinder,
    module_cone_prime,
    shift,
    strip_differential,
    structurally_equal,
    tensor_complex,
)
from .algebra import CDGAMorphism, Derivation, FreeCDGA
from .free import (
    AlgebraPresentation,
    FreeGradedLie,
    ModulePresentation,
    bar_construction,
    bar_slice,
    enveloping_dims,
    free_gc_dims,
    free_gc_dims_from_counts,
    free_graded_lie,
    tensor_algebra_dims,
)
from .cartan import (
    CartanOps,
    LieData,
    basic_subcomplex,
    chevalley_eilenberg,
    classifying_map,
    integrate_homotopy,
    length_operator,
    weil_algebra,
    weil_contraction_failures,
    weil_contraction_witness,
    weil_to_ce_projection,
)
from .minimal import MinimalModel, certify, minimal_model, quadratic_part
from .hodge import (
    FockInnerProduct,
    GradedChainData,
    InnerProduct,
    adjoint,
    doubled_algebra,
    harmonic_projection,
    harmonic_space,
    hodge_decomposition,
    laplacian,
    number_operator_check,
)
from .documents import (
    DocumentError,
    canonical_json,
    load_cdga,
    load_complex,
    load_glie,
    load_gram,
    load_json,
    load_lie,
    resolve_input,
    validate_document,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraPresentation",
    "CDGAMorphism",
    "CartanOps",
    "ChainMap",
    "CheckReport",
    "Complex",
    "ComplexError",
    "Derivation",
    "DocumentError",
    "FockInnerProduct",
    "FreeCDGA",
    "FreeGradedLie",
    "Generators",
    "GradedChainData",
    "GradedError",
    "GradedMap",
    "GradedSpace",
    "HomologySpace",
    "InnerProduct",
    "InternalCheckError",
    "LieData",
    "Mat",
    "MinimalModel",
    "ModulePresentation",
    "ParseError",
    "Polynomial",
    "SparseEliminator",
    "WeakEquivalenceReport",
    "adjoint",
    "augmented",
    "bar_construction",
    "bar_slice",
    "basic_subcomplex",
    "basis_keys",
    "betti_numbers",
    "block_matrix",
    "canonical_json",
    "certify",
    "check",
    "check_homotopy",
    "chevalley_eilenberg",
    "classifying_map",
    "cone",
    "cone_contraction",
    "cone_prime",
    "contracting_homotopy",
    "direct_sum",
    "doubled_algebra",
    "dual",
    "enveloping_dims",
    "free_gc_dims",
    "free_gc_dims_from_counts",
    "free_graded_lie",
    "free_to_cone_iso",
    "harmonic_projection",
    "harmonic_space",
    "hodge_decomposition",
    "induced_on_homology",
    "integrate_homotopy",
    "is_contractible",
    "is_weak_equivalence",
    "koszul_sign",
    "laplacian",
    "length_operator",
    "load_cdga",
    "load_complex",
    "load_glie",
    "load_gram",
    "load_json",
    "load_lie",
    "mapping_cone",
    "mapping_cylinder",
    "minimal_model",
    "module_cone_prime",
    "number_operator_check",
    "parse_polynomial",
    "quadratic_part",
    "resolve_input",
    "shift",
    "strip_differential",
    "structurally_equal",
    "tensor_algebra_dims",
    "tensor_complex",
    "validate_document",
    "weil_algebra",
    "weil_contraction_failures",
    "weil_contraction_witness",
    "weil_to_ce_projection",
]
