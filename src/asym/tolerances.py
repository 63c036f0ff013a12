"""Every tolerance of the package: the three that a caller may set, as one
validated `Tolerances`, and the fixed cuts of the input gates and self-checks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    tol_one: float = 1e-10  # |chi(g)| >= 1 - tol_one: g is in the symmetry subgroup
    tol_zero: float = 1e-10  # |chi(g)| <= tol_zero: g is in the zero set
    tol_psd: float = 1e-9  # min Gram eigenvalue >= -tol_psd * |G|: positive definite

    def __post_init__(self):
        for field in fields(self):
            x = getattr(self, field.name)
            # NaN and +-inf fail the range test; so do 0 and 1, whose cuts are empty
            if not (isinstance(x, numbers.Real) and 0 < x < 1):
                raise DomainError(f"{field.name} must be a finite number in (0, 1), got {x!r}")


DEFAULT = Tolerances()

TOL_UNITARY = 1e-10  # max |U U^+ - I|; per unit of dimension in the projective law
TOL_PHASE = 1e-6  # | |omega| - 1 | of a projective phase U(g)U(h)U(gh)^+ = omega I
TOL_NORM = 1e-10  # | ||psi|| - 1 | of a pure state
TOL_HERM = 1e-8  # max |A - A^+| of generators, density and (per max |f|) Gram matrices
TOL_DENSITY = 1e-8  # |tr rho - 1| and the most negative eigenvalue of a density matrix
TOL_PROB = 1e-9  # the most negative probability of a charge distribution
TOL_SECTOR = 1e-8  # charge sectors: commutators, U^t = z I, |z| = 1 and weights summing to 1
TOL_SUPP = 1e-12  # p_k + p_l at or below it drops a term of the SLD QFIM
TOL_PENCIL = 1e-10  # PSD cut of F_psi - r F_phi, relative to the larger scale
TOL_PURE = 1e-10  # a density matrix with an eigenvalue above 1 - TOL_PURE is pure
TOL_SELF = 1e-8  # self-checks: qfim against 4 Cov_sym, shift_canonicalize's coefficients
TOL_CURVE = 1e-15  # absolute slack of the convergence self-check distance <= bound
TOL_DIRECTION = 1e-12  # least F_phi weight of a pencil direction, relative to max(|F_phi|, 1)
TOL_CLIP_T = 1e-15  # converse_certificate clips T to [0, 1 - TOL_CLIP_T], inside g's domain
TOL_FLOOR = 1e-12  # M = floor(r N + TOL_FLOOR) in the copy-number scan: r N a hair below k gives k
