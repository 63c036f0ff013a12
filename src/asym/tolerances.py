"""Every tolerance of the package, as fixed module constants: the three
decision cuts (the symmetry set, the zero set and the Gram rule) and the cuts
of the input gates and self-checks.
"""

TOL_ONE = 1e-10  # |chi(g)| >= 1 - TOL_ONE: g is in the symmetry subgroup
TOL_ZERO = 1e-10  # |chi(g)| <= TOL_ZERO: g is in the zero set
TOL_PSD = 1e-9  # min Gram eigenvalue >= -TOL_PSD * |G|: positive definite
TOL_UNITARY = 1e-10  # max |U U^+ - I|; per unit of dimension in the projective law
TOL_PHASE = 1e-6  # | |omega| - 1 | of a projective phase U(g)U(h)U(gh)^+ = omega I
TOL_NORM = 1e-10  # | ||psi|| - 1 | of a pure state
TOL_HERM = 1e-8  # max |A - A^+| of generators, density and (per max |f|) Gram matrices
TOL_DENSITY = 1e-8  # |tr rho - 1| and the most negative eigenvalue of a density matrix
TOL_PROB = 1e-9  # the most negative probability of a charge distribution
TOL_CHARGE = 1e-15  # p_k above it puts charge k in the support (shift_canonicalize)
TOL_SECTOR = 1e-8  # commuting rep matrices; charge sectors: U^t = z I, |z| = 1, weights sum to 1
TOL_SUPP = 1e-12  # p_k + p_l at or below it drops a term of the SLD QFIM
TOL_PENCIL = 1e-10  # PSD cut of F_psi - r F_phi, relative to the larger scale
TOL_PURE = 1e-10  # a density matrix with an eigenvalue above 1 - TOL_PURE is pure
TOL_SELF = 1e-8  # self-checks: qfim against 4 Cov_sym, shift_canonicalize's coefficients
TOL_CURVE = 1e-15  # absolute slack of the convergence self-check distance <= bound
TOL_DIRECTION = 1e-12  # least F_phi weight of a pencil direction, relative to max(|F_phi|, 1)
TOL_CLIP_T = 1e-15  # converse_certificate clips T to [0, 1 - TOL_CLIP_T], inside g's domain
TOL_FLOOR = 1e-12  # M = floor(r N + TOL_FLOOR) in the copy-number scan: r N a hair below k gives k
