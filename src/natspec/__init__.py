"""Exact double-algebra computations on graphs.

Double polynomials (expressions in one matrix variable under both the
matrix and Hadamard products), their evaluation on adjacency matrices,
generated double subalgebras, universal Hadamard-idempotent bases,
natural graph spectra with a family-determining merged spectrum, graph
reconstruction from the algebra, and per-instance full-dimension
certificates for random graphs.

The public names below are loaded from their modules on first access
(PEP 562), so importing the package, or one of its modules, loads only
what is used.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "Matrix": "exact",
    "char_poly": "exact",
    "trace_powers": "exact",
    "DPoly": "dpoly",
    "eval_dpoly": "dpoly",
    "involution": "dpoly",
    "parse": "dpoly",
    "print_dpoly": "dpoly",
    "proj_poly": "dpoly",
    "Graph": "graphs",
    "graph6_emit": "graphs",
    "graph6_parse": "graphs",
    "generated_double_algebra": "closure",
    "is_full": "closure",
    "IdempotentBasis": "idempotents",
    "involution_close": "idempotents",
    "primitive_circ_idempotents": "idempotents",
    "universal_basis": "idempotents",
    "universal_basis_full": "idempotents",
    "MergePlan": "spectra",
    "Spectrum": "spectra",
    "build_ds_dpoly": "spectra",
    "demerge": "spectra",
    "ds_compare": "spectra",
    "make_merge_plan": "spectra",
    "natural_spectrum": "spectra",
    "bes_certificate": "certify",
    "reconstruct": "certify",
}

__all__ = list(_EXPORTS) + ["__version__"]


def __getattr__(name):
    # the layer modules themselves stay reachable as natspec.<module>
    if name in _EXPORTS.values():
        return importlib.import_module("." + name, __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
