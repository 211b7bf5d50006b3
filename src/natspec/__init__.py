"""Exact double-algebra computations on graphs.

Double polynomials (expressions in one matrix variable under both the
matrix and Hadamard products), their evaluation on adjacency matrices,
generated double subalgebras, universal Hadamard-idempotent bases,
natural graph spectra with a family-determining merged spectrum, graph
reconstruction from the algebra, and per-instance full-dimension
certificates for random graphs.
"""

__version__ = "0.1.0"

from .exact import FieldError, GFp, Matrix, char_poly, trace_powers
from .dpoly import DPoly, eval_dpoly, involution, parse, print_dpoly, proj_poly
from .graphs import Graph, graph6_emit, graph6_parse
from .closure import generated_double_algebra, is_full
from .idempotents import (
    IdempotentBasis,
    involution_close,
    primitive_circ_idempotents,
    universal_basis,
    universal_basis_full,
)
from .spectra import (
    MergePlan,
    Spectrum,
    build_ds_dpoly,
    demerge,
    ds_compare,
    make_merge_plan,
    natural_spectrum,
)
from .certify import bes_certificate, reconstruct

__all__ = [
    "FieldError",
    "GFp",
    "Matrix",
    "char_poly",
    "trace_powers",
    "DPoly",
    "eval_dpoly",
    "involution",
    "parse",
    "print_dpoly",
    "proj_poly",
    "Graph",
    "graph6_emit",
    "graph6_parse",
    "generated_double_algebra",
    "is_full",
    "IdempotentBasis",
    "involution_close",
    "primitive_circ_idempotents",
    "universal_basis",
    "universal_basis_full",
    "MergePlan",
    "Spectrum",
    "build_ds_dpoly",
    "demerge",
    "ds_compare",
    "make_merge_plan",
    "natural_spectrum",
    "bes_certificate",
    "reconstruct",
    "__version__",
]
