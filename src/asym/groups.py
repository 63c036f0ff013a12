"""Finite groups as multiplication tables, and validated projective unitary reps.

Groups are always materialized as full n x n tables (desk scale, n <= 256);
the feasibility machinery downstream is O(n^2) anyway. All types are
immutable after construction and all operations are pure. A group caches
its irreps on first use: an abelian group reads its characters off its
cached cyclic decomposition, any other group gets them by Dixon's method.

Validation cost: `build_group` decides associativity by Light's test, 2 n^2
table lookups per element of a greedy generating set S: O(n^2 log n) for a
group (|S| <= log2 n), and never more than the 2 n^3 of a full scan. Only
a table it rejects pays that O(n^3) scan, which names the first witness.
`validate_projective_rep` checks unitarity in O(n d^3) flops for n elements
of dimension d, and the projective law by the same lemma at the rows e and
S, O(|S| n d^3), with a proved error bound along the words in S. Only a rep
that the bound cannot vouch for pays the O(n^2 d^3) scan of every pair,
which decides and names the first failing pair. All of these run as
batched BLAS matmuls over blocks of at most `_CHUNK_BYTES` (256 KB) of
intermediate results, so their working memory is O(chunk) beyond the
input, whatever n and d are. Non-finite amplitudes and matrix entries are
rejected like any other invalid value.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxiomViolation,
    DimensionMismatch,
    DomainError,
    NotAbelian,
    NotAState,
    NotProjective,
    NotUnitary,
    SelfCheckFailed,
    UnknownGroupName,
)
from .tolerances import TOL_NORM, TOL_PHASE, TOL_SECTOR, TOL_UNITARY

MAX_ORDER = 256

# Bytes of one block of the batched validation checks: small enough that a
# block and its temporaries stay in a per-core L2 cache.
_CHUNK_BYTES = 256 * 2**10


def _block_rows(row_bytes: int) -> int:
    """Rows of row_bytes each that fit in one validation block (at least 1)."""
    return max(1, _CHUNK_BYTES // row_bytes)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    mult: np.ndarray  # (n, n) element indices
    identity: int
    inv: np.ndarray  # (n,) element indices
    name: str | None = None

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mult, self.mult.T))

    def same_as(self, other: "FiniteGroup") -> bool:
        return self is other or (
            self.order == other.order and np.array_equal(self.mult, other.mult)
        )

    @functools.cached_property
    def cyclic_decomposition(self) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
        """Cyclic basis and label map of an abelian group, computed on first use and kept."""
        return decompose_abelian(self)

    @functools.cached_property
    def irreps(self) -> "IrrepBasis":
        """Every irrep of the group, computed on first use and kept."""
        return regular_irreps(self)


@dataclass(frozen=True, eq=False)
class IrrepBasis:
    """The irreducible unitary representations of a finite group, in one matrix.

    Row k of `matrix` holds rho(k), flattened row-major, for every irrep rho,
    one after another and grouped by dimension; `dims` lists (d, count) for
    each dimension in increasing order, so sum(count * d^2) = n and `matrix`
    is n x n.
    """

    matrix: np.ndarray  # (n, n) complex
    dims: tuple[tuple[int, int], ...]

    def fourier_blocks(self, values: np.ndarray) -> list[np.ndarray]:
        """Fourier blocks sum_k f(k) rho(k) of f = values (n,), or of each row of
        values (K, n): one (count, d, d), or (K, count, d, d), array per dimension.
        """
        flat = values @ self.matrix
        lead = flat.shape[:-1]
        blocks, start = [], 0
        for d, count in self.dims:
            blocks.append(flat[..., start : start + count * d * d].reshape(*lead, count, d, d))
            start += count * d * d
        return blocks


@dataclass(frozen=True, eq=False)
class PureState:
    dim: int
    amplitudes: np.ndarray  # (dim,) complex

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.dim,):
            raise NotAState(f"expected {self.dim} amplitudes, got shape {amp.shape}")
        if not np.isfinite(amp).all():
            raise NotAState("state has a non-finite amplitude")
        nrm = np.linalg.norm(amp)
        if not abs(nrm - 1.0) <= TOL_NORM:
            raise NotAState(f"state norm {nrm!r} deviates from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    group: FiniteGroup
    dim: int
    matrices: np.ndarray  # (n, d, d) complex

    @functools.cached_property
    def commutative(self) -> bool:
        """Whether the U(g) commute: the group is abelian and omega(g, h) =
        omega(h, g). Tested on a generating set, since every U(g) is a phase
        times a word in the generators' matrices; two matrices commute when
        max |AB - BA| <= TOL_SECTOR. Computed on first read and kept."""
        group = self.group
        if not group.is_abelian():
            return False
        gens = self.matrices[_right_generators(group.mult, group.identity)]
        return all(
            np.abs(A @ B - B @ A).max() <= TOL_SECTOR for A, B in itertools.combinations(gens, 2)
        )

    @functools.cached_property
    def inverse_phase(self) -> np.ndarray:
        """omega(g, g^-1) for every g, read off U(g)U(g^-1) = omega I as
        tr U(g)U(g^-1) / d and scaled onto the unit circle: read-only, O(n d^2)
        in blocks of `_CHUNK_BYTES`, computed on first read and kept. On a
        linear rep it is 1 up to rounding (exactly 1 for permutation matrices)."""
        mats, inv, d = self.matrices, self.group.inv, self.dim
        omega = np.empty(self.group.order, dtype=complex)
        rows = _block_rows(d * d * mats.itemsize)
        for g0 in range(0, len(mats), rows):
            gs = slice(g0, g0 + rows)
            omega[gs] = np.einsum("gij,gji->g", mats[gs], mats[inv[gs]]) / d
        omega /= np.abs(omega)
        omega.setflags(write=False)
        return omega


def build_group(mult_table, name: str | None = None) -> FiniteGroup:
    """Validate a multiplication table and derive identity and inverses.

    Associativity is decided by Light's test (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1.2): the elements a with
    (x a) y = x (a y) for all x, y are closed under the product, so the
    table is associative once every element of a generating set S passes,
    at 2 n^2 lookups per element. S is greedy: each next generator is the
    first element not yet reached from e by right multiplication, so a group
    needs |S| <= log2 n (each generator at least doubles the subgroup) and
    the test costs O(n^2 log n); a table that needs every element as a
    generator costs at most the 2 n^3 lookups of a full scan. Inverses are
    one pass over the table's e entries.

    Raises AxiomViolation naming the failed axiom together with a witness;
    the associativity witness is the row-major first failing triple.
    """
    mult = np.asarray(mult_table, dtype=np.intp)
    if mult.ndim != 2 or mult.shape[0] != mult.shape[1] or mult.shape[0] == 0:
        raise AxiomViolation("closure", witness=f"table shape {mult.shape}")
    n = mult.shape[0]
    if n > MAX_ORDER:
        raise AxiomViolation("closure", witness=f"order {n} exceeds cap {MAX_ORDER}")
    if mult.min() < 0 or mult.max() >= n:
        bad = np.argwhere((mult < 0) | (mult >= n))[0]
        raise AxiomViolation("closure", witness=tuple(int(x) for x in bad))

    rng = np.arange(n)
    id_rows = np.where((mult == rng[None, :]).all(axis=1) & (mult.T == rng[None, :]).all(axis=1))[0]
    if id_rows.size == 0:
        raise AxiomViolation("identity")
    e = int(id_rows[0])

    # (x s) y against x (s y) for all x, y: rows of mult against its columns
    for s in _right_generators(mult, e):
        if not np.array_equal(mult[mult[:, s]], mult.take(mult[s], axis=1)):
            raise AxiomViolation("associativity", witness=_associativity_witness(mult))

    # a two-sided inverse is the one e in row a, at b with mult[b, a] = e too
    hits = mult == e
    inv = np.argmax(hits, axis=1)
    ok = (hits.sum(axis=1) == 1) & (mult[inv, rng] == e)
    if not ok.all():
        raise AxiomViolation("inverses", witness=int(np.argmin(ok)))
    if not np.array_equal(inv[inv], rng):
        raise AxiomViolation("inverses", witness="inv is not an involution")

    return FiniteGroup(order=n, mult=mult, identity=e, inv=inv, name=name)


def _right_generators(mult: np.ndarray, e: int) -> list[int]:
    """A set S such that every element is a left-bracketed product of S.

    Greedy from {e}: the first element not yet reached joins S, then the
    reached set is closed under right multiplication by S. Each reached
    element is multiplied once by each generator, O(n |S|) lookups.
    """
    n = len(mult)
    reached = [False] * n
    reached[e] = True
    seen, gens, cols = [e], [], []
    for s in range(n):
        if reached[s]:
            continue
        gens.append(s)
        cols.append(mult[:, s].tolist())
        todo = [cols[-1][x] for x in seen]  # old elements times the new generator
        while todo:
            x = todo.pop()
            if not reached[x]:
                reached[x] = True
                seen.append(x)
                todo.extend(col[x] for col in cols)
    return gens


def _associativity_witness(mult: np.ndarray) -> tuple[int, int, int]:
    """The row-major first (a, b, c) with (a b) c != a (b c), by an O(n^3)
    scan of mult[mult[a, b], c] against mult[a, mult[b, c]] over blocks of a.
    """
    n = len(mult)
    rows = _block_rows(n * n * mult.itemsize)
    for a0 in range(0, n, rows):
        block = mult[a0 : a0 + rows]
        bad = mult[block] != block[:, mult]
        if bad.any():
            a, b, c = np.argwhere(bad)[0]
            return int(a) + a0, int(b), int(c)
    raise SelfCheckFailed("Light's test rejected a table with no associativity witness")


def _product_table(shape: tuple[int, ...]) -> np.ndarray:
    """Z_{m_1} x ... x Z_{m_k}, elements the label tuples in row-major order."""
    labels = np.indices(shape).reshape(len(shape), -1)  # (k, n)
    sums = (labels[:, :, None] + labels[:, None, :]) % np.reshape(shape, (-1, 1, 1))
    return np.ravel_multi_index(tuple(sums), shape)


def permutation_matrices() -> np.ndarray:
    """The 3x3 permutation matrices of S_3, P e_j = e_p(j), in sorted order of
    the permutations p (identity first)."""
    perms = sorted(itertools.permutations(range(3)))
    return np.array([np.eye(3, dtype=complex)[:, p] for p in perms])


def dihedral_matrices() -> np.ndarray:
    """The faithful 2-dim rep of D_4, r^i s^j at index i + 4j: r the rotation by
    pi/2 and s the reflection in the x axis, so that s r = r^{-1} s."""
    R = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    S = np.diag([1.0, -1.0]).astype(complex)
    return np.array([np.linalg.matrix_power(R, i) @ np.linalg.matrix_power(S, j)
                     for j in range(2) for i in range(4)])


def quaternion_matrices() -> np.ndarray:
    """The faithful 2-dim rep of Q_8 in element order (1,-1,i,-i,j,-j,k,-k)."""
    I2 = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    return np.array([I2, -I2, qi, -qi, qj, -qj, qk, -qk])


def _table_of(mats: np.ndarray) -> np.ndarray:
    """The product table of a faithful matrix group: mult[a, b] is the one c
    with mats[a] @ mats[b] close to mats[c]."""
    prods = np.einsum("aij,bjk->abik", mats, mats)
    hits = np.isclose(prods[:, :, None], mats).all(axis=(-2, -1))  # (a, b, c)
    counts = hits.sum(axis=-1)
    if (counts != 1).any():
        a, b = np.argwhere(counts != 1)[0]
        matched = np.flatnonzero(hits[a, b]).tolist()
        raise SelfCheckFailed(f"product of elements {a}, {b} matched {matched}")
    return hits.argmax(axis=-1)


_CYCLIC_RE = re.compile(r"^Z_(\d+)$")


def named_group(name: str) -> FiniteGroup:
    """Standard multiplication tables: Z_n, Z_n1x...xZ_nk, S_3, D_4, Q_8.

    Product names accept either 'x' or the multiplication-sign separator.
    """
    clean = name.replace("×", "x").strip()
    if clean == "S_3":
        return build_group(_table_of(permutation_matrices()), name=name)
    if clean == "D_4":
        return build_group(_table_of(dihedral_matrices()), name=name)
    if clean == "Q_8":
        return build_group(_table_of(quaternion_matrices()), name=name)
    parts = clean.split("x")
    moduli = []
    for part in parts:
        m = _CYCLIC_RE.match(part.strip())
        if not m:
            raise UnknownGroupName(f"cannot parse group name {name!r}")
        k = int(m.group(1))
        if k < 1:
            raise UnknownGroupName(f"modulus must be >= 1 in {name!r}")
        moduli.append(k)
    return build_group(_product_table(tuple(moduli)), name=name)


def _adjoint(mats: np.ndarray) -> np.ndarray:
    return mats.conj().swapaxes(-1, -2)


def _law_deviation(prod: np.ndarray) -> float:
    """Max-abs distance of prod = U(g)U(h)U(gh)^+ from the phase of its (0, 0)
    entry times I; from the entry itself times I when it is off the unit circle.
    """
    z = prod[0, 0]
    if abs(abs(z) - 1.0) <= TOL_PHASE:
        z = z / abs(z)
    return float(np.abs(prod - z * np.eye(len(prod))).max())


def validate_projective_rep(group: FiniteGroup, matrices) -> ProjectiveRep:
    """Check unitarity and the projective group law U(g)U(h) = omega(g, h) U(gh).

    A failure names the first non-unitary element, else the row-major first
    (g, h) whose U(g)U(h)U(gh)^+ has a (0, 0) entry off the unit circle by
    more than TOL_PHASE or lies farther than TOL_UNITARY * max(1, d) in
    max-abs from its phase times I. Non-finite matrices are not unitary.

    The law is checked at a generating set (Light's lemma, as in
    `build_group`): the g with U(g)U(h) ~ U(gh) for every h are closed under
    products, so only the rows r in {e} + S, S from `_right_generators`, are
    measured, at O(|S| n d^3) flops: delta = max ||U(r)U(h) - phi U(rh)||_F,
    phi the normalised (0, 0) phase of U(r)U(h)U(rh)^+. The bound: let u be
    the largest ||U U^+ - I||_F, nu = sqrt(1 + u) >= ||U||_2 and L the depth
    of the breadth-first search g -> s g over S from e. If g = s g' with g'
    at depth k - 1 and ||U(g')U(h) - w U(g'h)||_2 <= eps_{k-1}, then
    U(g)U(h) = conj phi(s, g') U(s)U(g')U(h) + E1 U(h), ||E1|| <= delta,
    and expanding U(g')U(h) and U(s)U(g'h) gives
    eps_k <= nu eps_{k-1} + (1 + nu) delta, eps_0 = delta, so
    eps_L <= delta (1 + (1 + nu) L) nu^L, and every pair has
    ||U(g)U(h)U(gh)^+ - omega I||_2 <= eta = nu eps_L + u. An entry of a
    matrix is at most its 2-norm, so the (0, 0) entry z is within eta of
    omega, hence within eta of the unit circle and z/|z| within 2 eta of
    omega: both cuts hold at every pair once eta <= TOL_PHASE and
    3 eta <= TOL_UNITARY * max(1, d), less an allowance for the rounding
    of these products and of the scan's. When the bound cannot vouch for
    every pair, or a measured row breaks it, the blocked scan of all n^2
    pairs decides instead (O(n^2 d^3)) and names the first failing pair.
    Every check runs over blocks of at most `_CHUNK_BYTES` of products, so
    memory beyond the input stays O(chunk).
    """
    mats = np.asarray(matrices, dtype=complex)
    n = group.order
    if mats.ndim != 3 or mats.shape[0] != n or mats.shape[1] != mats.shape[2] or not mats.shape[1]:
        raise DimensionMismatch(f"expected {n} square matrices, got shape {mats.shape}")
    d = mats.shape[1]
    eye = np.eye(d)

    u = 0.0  # the largest ||U U^+ - I||_F
    rows = _block_rows(d * d * mats.itemsize)
    for g0 in range(0, n, rows):
        block = mats[g0 : g0 + rows]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = block @ _adjoint(block) - eye
            dev = np.abs(diff).max(axis=(1, 2))
            u = max(u, float(np.linalg.norm(diff, axis=(1, 2)).max()))
        bad = ~(dev <= TOL_UNITARY) | ~np.isfinite(block).all(axis=(1, 2))
        if bad.any():
            g = int(np.argmax(bad))
            raise NotUnitary(g0 + g, float(dev[g]))

    if not _law_holds_at_generators(group, mats, u):
        _law_scan(group, mats)
    return ProjectiveRep(group=group, dim=d, matrices=mats)


def _law_holds_at_generators(group: FiniteGroup, mats: np.ndarray, u: float) -> bool:
    """Whether the bound of `validate_projective_rep` proves the projective law
    at every pair of unitaries mats, from the rows e and S alone; u is the
    largest ||U U^+ - I||_F. False as soon as a measured row breaks it.
    """
    n, d = mats.shape[:2]
    mult, e = group.mult, group.identity
    gens = _right_generators(mult, e)
    depth = _left_word_depth(mult, e, gens)
    # rounding: a d x d product of unitaries is off by at most d^2 eps / 2 in
    # Frobenius norm (Higham, Accuracy and Stability, 3.5), so this covers the
    # measured delta and u and every entry the scan would compute
    slack = (d * d + 8 * d) * np.finfo(float).eps
    nu = np.sqrt(1.0 + u + slack)
    eta = min(TOL_PHASE, TOL_UNITARY * max(1.0, d) / 3) - slack
    # eta = nu delta (1 + (1 + nu) L) nu^L + u, solved for the largest delta,
    # with u and delta each up to slack above their measured values
    max_delta = (eta - u - slack) / ((1 + (1 + nu) * depth) * nu ** (depth + 1)) - slack
    if not max_delta > 0:
        return False

    cols = _block_rows(d * d * mats.itemsize)
    for r in [e, *gens]:
        for h0 in range(0, n, cols):
            prod = mats[r] @ mats[h0 : h0 + cols]  # U(r)U(h)
            target = mats[mult[r, h0 : h0 + cols]]  # U(rh)
            z = (prod[:, 0] * target[:, 0].conj()).sum(axis=1)  # (U(r)U(h)U(rh)^+)[0, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                target *= (z / np.abs(z))[:, None, None]
            prod -= target
            delta = np.linalg.norm(prod, axis=(1, 2)).max()
            if not delta <= max_delta:  # a NaN phase (z = 0) fails too
                return False
    return True


def _left_word_depth(mult: np.ndarray, e: int, gens: list[int]) -> float:
    """Depth of the breadth-first search g -> s g over gens from e; inf when
    it does not reach every element."""
    n = len(mult)
    rows = [mult[s].tolist() for s in gens]
    level = [-1] * n
    level[e] = 0
    queue = [e]
    for g in queue:  # grows while it is read
        for row in rows:
            x = row[g]
            if level[x] < 0:
                level[x] = level[g] + 1
                queue.append(x)
    return level[queue[-1]] if len(queue) == n else np.inf


def _law_scan(group: FiniteGroup, mats: np.ndarray) -> None:
    """NotProjective at the row-major first pair of unitaries mats that breaks
    the law: every U(g)U(h)U(gh)^+ in blocks of g x h, none of them kept.
    """
    n, d = mats.shape[:2]
    # A pair's share of a block: its d x d product and the 64 bytes of
    # scalars kept per pair (the table index, z, its modulus and phase, the
    # deviation, the masks), which outweigh the product at d = 1.
    pair_bytes = d * d * mats.itemsize + 64
    # Blocks of g x all h; when one row of pairs exceeds the chunk, rows
    # is 1 and the h axis is tiled instead, so the scan stays row-major.
    cols = min(n, _block_rows(pair_bytes))
    rows = _block_rows(cols * pair_bytes)
    for g0 in range(0, n, rows):
        for h0 in range(0, n, cols):
            gs, hs = slice(g0, g0 + rows), slice(h0, h0 + cols)
            prod = (mats[gs, None] @ mats[None, hs]) @ _adjoint(mats[group.mult[gs, hs]])
            z = prod[:, :, 0, 0].copy()
            # hypot rounds like abs() of one scalar; the complex abs loop may not
            modulus = np.hypot(z.real, z.imag)
            with np.errstate(divide="ignore", invalid="ignore"):
                phase = z / modulus
                # prod -= phase * I, on the diagonal of the contiguous block
                prod.reshape(*z.shape, d * d)[:, :, :: d + 1] -= phase[:, :, None]
                dev = np.abs(prod).max(axis=(2, 3))
            bad = ~(np.abs(modulus - 1.0) <= TOL_PHASE) | ~(dev <= TOL_UNITARY * max(1.0, d))
            if bad.any():
                i, j = np.argwhere(bad)[0]
                g, h = g0 + int(i), h0 + int(j)
                prod = mats[g] @ mats[h] @ _adjoint(mats[group.mult[g, h]])
                raise NotProjective(g, h, _law_deviation(prod))


def is_subgroup(group: FiniteGroup, elements) -> bool:
    """Whether the elements S form a subgroup, i.e. are their own closure.

    One table test: e is in S and every product of two elements of S is in S.
    A finite set closed under the product holds the inverse of each element
    (a power of it), so nothing else is needed; the empty set is not a subgroup.
    """
    S = np.fromiter(elements, dtype=np.intp)
    n = group.order
    if S.size and not (0 <= S.min() and S.max() < n):
        bad = S[(S < 0) | (S >= n)][0]
        raise DomainError(f"element index {bad} out of range [0, {n})")
    member = np.zeros(n, dtype=bool)
    member[S] = True
    return bool(member[group.identity] and member[group.mult[S[:, None], S]].all())


def decompose_abelian(group: FiniteGroup) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """Greedy cyclic decomposition of an abelian table and its label map.

    Returns the basis ((g_1, t_1), ...), orders non-increasing, and the
    row-major label -> element map elems[a] = prod_j g_j^{a_j}, a bijection
    onto G. Each step takes the first element of largest order t modulo the
    subgroup H found so far, lifts it within its coset to an element c with
    c^t = e, and extends the map from H to H<c> = {h c^s}; H and <c> meet
    only in e, so the map stays a bijection. NotAbelian if not abelian.
    """
    if not group.is_abelian():
        raise NotAbelian("multiplication table is not symmetric")
    n, mult, e = group.order, group.mult, group.identity
    g = np.arange(n)
    powers = [np.full(n, e)]  # powers[k][g] = g^k for k = 0..n
    for _ in range(n):
        powers.append(mult[powers[-1], g])
    powers = np.array(powers)
    basis: list[tuple[int, int]] = []
    elems = np.array([e], dtype=np.intp)
    while elems.size < n:
        in_h = np.isin(g, elems)
        # order of every element modulo H: the smallest t >= 1 with g^t in H
        order = np.argmax(in_h[powers[1:]], axis=0) + 1
        order[in_h] = 0
        best = int(np.argmax(order))
        t = int(order[best])
        # lift: the first h in H with (best h)^t = best^t h^t = e
        hs = np.flatnonzero(in_h)
        lifts = mult[best, hs[mult[powers[t, best], powers[t, hs]] == e]]
        if not lifts.size:  # cannot happen for abelian tables; guard anyway
            raise NotAbelian("failed to lift a basis generator")
        c = int(lifts[0])
        elems = mult[elems[:, None], powers[:t, c]].ravel()
        basis.append((c, t))
    if np.unique(elems).size != n:
        raise NotAbelian("basis decomposition failed the bijection check")
    elems.flags.writeable = False  # shared by every reader of the cache
    return tuple(basis), elems


# Fixed seeds of the random commutant elements tried by `regular_irreps`.
_IRREP_SEEDS = 3


def _pivot_rows(W: np.ndarray) -> np.ndarray:
    """d well-conditioned rows of each (n, d) slice of W, shape (c, n, d).

    Greedy column-pivoted Gram-Schmidt on the rows: take the row of largest
    norm, project it out of every row, repeat d times.
    """
    c, _, d = W.shape
    R = W.copy()
    rows = np.empty((c, d), dtype=np.intp)
    for j in range(d):
        s = np.argmax((R.real**2 + R.imag**2).sum(axis=2), axis=1)
        rows[:, j] = s
        v = R[np.arange(c), s]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        R -= (R @ v.conj()[:, :, None]) * v[:, None, :]
    return rows


def _cluster_reps(group: FiniteGroup, W: np.ndarray) -> np.ndarray:
    """rho(k) on each invariant subspace W[i] (n x d): shape (c, n, d, d).

    Right translation maps W[g] to W[g k] = W[g] rho(k); on d well-conditioned
    rows S that is rho(k) = W[S]^-1 W[S k], O(n d^3) per subspace.
    """
    c, n, d = W.shape
    rows = _pivot_rows(W)
    idx = np.arange(c)[:, None]
    A = W[idx, rows]  # (c, d, d)
    X = W[idx[:, :, None], group.mult[rows]]  # (c, d, n, d)
    rho = np.linalg.solve(A, X.reshape(c, d, n * d)).reshape(c, d, n, d)
    return rho.transpose(0, 2, 1, 3)


def regular_irreps(group: FiniteGroup) -> IrrepBasis:
    """The irreps of G: its characters if abelian, else by Dixon's method.

    An abelian table's irreps are read off its cached cyclic decomposition:
    irrep k sends the element of label a to exp(2 pi i sum_j a_j k_j / t_j).
    Otherwise one eigendecomposition of the regular representation gives
    them. A random Hermitian H[g, h] = c(g h^-1), c(k^-1) = conj c(k), commutes
    with every right translation, so each of its eigenspaces is invariant under
    them and, for generic c, carries one irrep; an irrep of dimension d gives
    d eigenvalues of multiplicity d (Dixon, Math. Comp. 24, 1970). One
    eigenspace per character is kept. The result must pass sum d^2 = n,
    sum_k |chi(k)|^2 = n for each irrep and d eigenspaces per irrep of
    dimension d, else the next fixed seed is tried; SelfCheckFailed when
    none passes. Cost: one n x n `eigh`, plus O(n d^3) per eigenspace.
    """
    n = group.order
    if group.is_abelian():
        basis, elems = group.cyclic_decomposition
        t = np.array([t for _, t in basis] or [1])
        labels = np.indices(t).reshape(len(t), n).T  # row a: the label of elems[a]
        lcm = int(np.lcm.reduce(t))
        charge = (labels * (lcm // t)) @ labels.T % lcm / lcm  # sum_j a_j k_j / t_j mod 1
        # row g of the matrix is the row of the label a with elems[a] = g
        return IrrepBasis(matrix=np.exp(2j * np.pi * charge)[np.argsort(elems)], dims=((1, n),))
    for seed in range(_IRREP_SEEDS):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = (z + z[group.inv].conj()) / 2.0
        evals, evecs = np.linalg.eigh(c[group.mult[:, group.inv]])
        # far above the rounding spread of a multiple eigenvalue, far below
        # the gaps of a generic c; a merged cluster fails the checks below
        tol = 1e-8 * max(1.0, float(np.abs(evals).max()))
        starts = np.concatenate(([0], np.flatnonzero(np.diff(evals) > tol) + 1))
        sizes = np.diff(np.append(starts, n))
        dims, cols, ok = [], [], True
        for d in np.unique(sizes):
            d = int(d)
            first = starts[sizes == d]
            W = evecs[:, first[:, None] + np.arange(d)].transpose(1, 0, 2)
            rho = _cluster_reps(group, W)
            chi = np.trace(rho, axis1=2, axis2=3)  # (c, n)
            if d > 1:
                # equivalent eigenspaces share a character; distinct irreps have
                # orthogonal ones (a 1-dim irrep occurs once in the regular rep)
                same = np.abs(chi @ chi.conj().T) > 0.5 * n
                keep = np.argmax(same, axis=1) == np.arange(len(chi))
                ok = ok and bool(np.all(same[keep].sum(axis=1) == d))
                rho, chi = rho[keep], chi[keep]
            norms = (chi.real**2 + chi.imag**2).sum(axis=1)
            ok = ok and bool(np.all(np.abs(norms - n) <= 1e-6 * n))
            dims.append((d, len(rho)))
            cols.append(rho.transpose(1, 0, 2, 3).reshape(n, -1))
        if ok and sum(d * d * m for d, m in dims) == n:
            return IrrepBasis(matrix=np.concatenate(cols, axis=1), dims=tuple(dims))
    raise SelfCheckFailed(f"no irrep decomposition of the group of order {n} passed its checks")
