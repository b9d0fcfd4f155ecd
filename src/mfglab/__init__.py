"""Numerical laboratory for stationary mean-field games with congestion.

Solves the coupled value/density system on the periodic unit torus by
Newton-corrected homotopy continuation from an explicit starting
solution, and certifies computed states against the a priori structure
of the continuous problem (mass, energy identity, entropy, inverse
moments, monotonicity of the linearized operator).

Importing the package loads numpy only.  The solver names
(`SolvePath`, `continuation_run`, `newton_solve`) are resolved from
:mod:`mfglab.solver` on first access, and that module loads scipy;
`assemble_jacobian` loads scipy when first called.
"""

from .grid import ScalarField, TorusGrid, read_field_csv, write_field_csv
from .hamiltonian import check_parameter_admissibility, coefficient_field
from .system import MFGModels, MFGState, assemble_jacobian, bilinear_form, residual
from .diagnostics import DiagnosticsReport, certify, estimate_suite

__all__ = [
    "TorusGrid", "ScalarField", "read_field_csv", "write_field_csv",
    "check_parameter_admissibility", "coefficient_field", "MFGModels",
    "MFGState", "residual", "assemble_jacobian", "bilinear_form",
    "SolvePath", "newton_solve", "continuation_run",
    "DiagnosticsReport", "estimate_suite", "certify",
]

__version__ = "0.1.0"


def __getattr__(name):
    """The solver names, imported on first access (PEP 562)."""
    if name in ("SolvePath", "continuation_run", "newton_solve"):
        from . import solver
        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
