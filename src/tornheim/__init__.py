"""Exact evaluation of Tornheim-type double series and G2 lattice zeta
values at odd weight, with mandatory high-precision numeric verification.
"""

__version__ = "0.1.0"

from .arith import Rational, bernoulli_number, bernoulli_poly
from .constants import (SymbolicValue, reduce_angle, to_dirichlet_basis,
                        to_json, to_latex, to_text)
from .g2 import G2ClosedForm, G2Request, VerificationError, evaluate_g2
from .numeric import (NumericCheckRecord, Precision, PrecisionError,
                      check_values, eval_constant, eval_symbolic, lattice_sum,
                      verify)
from .parity import EvalRequest, closed_form

__all__ = [
    "Rational", "bernoulli_number", "bernoulli_poly",
    "SymbolicValue", "reduce_angle", "to_dirichlet_basis",
    "to_latex", "to_text", "to_json",
    "EvalRequest", "closed_form",
    "G2Request", "G2ClosedForm", "evaluate_g2", "VerificationError",
    "Precision", "PrecisionError", "NumericCheckRecord", "check_values",
    "eval_constant", "eval_symbolic", "lattice_sum", "verify",
]
