"""Centralized numeric tolerance budget.

Every module draws its thresholds from the single record below so that a
tolerance change propagates consistently (algebraic identities vs solver
residuals are the two distinct budgets; the rest are derived conventions).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    algebraic: float = 1e-12        # exact identities: Hermiticity, unitarity
    solver_residual: float = 1e-10  # flux, eigensolver reconstruction; per unit operand norm for solves
    normalization: float = 1e-10    # |norm^2 - 1| for states treated as normalized
    zero_identity: float = 1e-15    # channel operators at zero coupling vs identity
    null_floor: float = 1e-28       # squared norms at or below this are exact arithmetic nulls


DEFAULT = Tolerances()
