"""Finite groups as multiplication tables, and validated projective unitary reps.

Groups are always materialized as full n x n tables (desk scale, n <= 256);
the feasibility machinery downstream is O(n^2) anyway. All types are
immutable after construction and all operations are pure. A group caches
its irreps on first use: an abelian group reads its characters off its
cached cyclic decomposition, any other group gets them by Dixon's method.
They are kept as one real n x n matrix (`IrrepBasis.real`) that takes the
n real coordinates of a Hermitian function, f(g^-1) = conj f(g), to those
of its Fourier blocks. One codec (`PairSplit`) gives both: f's from the
split of G into the orbits {g, g^-1}, cached, a block's from the split of
its d^2 entries under the transpose (`block_pairs`). Past the input gates a
Hermitian function, the interpolator f among them, is never formed as
values. A commuting rep keeps the phase-gauged squarings of its cyclic basis
generators, from which `abelian.charge_distribution` builds each state's
charge sectors. `label_group`, the product of cyclic groups on a charge-label
grid, is kept per shape, with the grid recorded as its cyclic decomposition.

Validation cost: `build_group` decides associativity by Light's test, 2 n^2
table lookups per element of a greedy generating set S: O(n^2 log n) for a
group (|S| <= log2 n), and never more than the 2 n^3 of a full scan. Only
a table it rejects pays that O(n^3) scan, which names the first witness.
`validate_projective_rep` checks unitarity in O(n d^3) flops for n elements
of dimension d, and the projective law by the same lemma at the rows e and
S, O(|S| n d^3), with a proved error bound along the words in S. Only a rep
that the bound cannot vouch for pays the O(n^2 d^3) scan of every pair,
which decides and names the first failing pair. The bound divides the row
deviation it allows by about 2 L, L the word depth of S (n - 1 for the one
generator of a cyclic group), so a rep exact to rounding passes up to
MAX_ORDER while one unitary only to about 1e-11 pays the scan on a large
cyclic group: Z_256 at d = 32 with every entry perturbed by 1e-12 (max
|UU^+ - I| 5e-12) takes 1.9 s against 22 ms exact, and 11.3 s against
64 ms at d = 64 (one BLAS thread of a two-core virtual machine). The same
products decide whether the rep is linear (omega = 1), as the Gram view
requires. All of these run as batched BLAS matmuls over blocks of at most
`_CHUNK_BYTES` (256 KB) of intermediate results, so their working memory is
O(chunk) beyond the input, whatever n and d are. Non-finite amplitudes and
matrix entries are rejected like any other invalid value.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    NotSimultaneouslyDiagonalizable,
    NotUnitary,
    SelfCheckFailed,
    ShapeMismatch,
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
    mult: np.ndarray  # (n, n) element indices, read-only
    identity: int
    inv: np.ndarray  # (n,) element indices, read-only
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
    def pairs(self) -> "PairSplit":
        """The split of G under g -> g^-1, computed on first use and kept."""
        return pair_split(self.inv)

    @functools.cached_property
    def identity_slot(self) -> int:
        """The index of e in `pairs.own`, so in `pairs.heads` and in the
        coordinates of a Hermitian function: found on first use and kept."""
        return int(np.searchsorted(self.pairs.own, self.identity))

    @functools.cached_property
    def gershgorin_weight(self) -> np.ndarray:
        """How often |f| on each of `pairs.heads` enters a row of the Gram
        matrix M[g, h] = f(g^-1 h) off its diagonal: 0 at e, 1 on the other
        involutions, 2 on each g < g^-1 (|f(g^-1)| = |f(g)|). (n0 + p,)
        floats, read-only, built on first use and kept."""
        weight = np.ones(self.pairs.heads.size)
        weight[self.pairs.own.size :] = 2.0
        weight[self.identity_slot] = 0.0
        return _frozen(weight)

    @functools.cached_property
    def irreps(self) -> "IrrepBasis":
        """Every irrep of the group, computed on first use and kept."""
        return regular_irreps(self)


@dataclass(frozen=True, eq=False)
class PairSplit:
    """The orbits {g, g^-1} of an inverse map, and the real coordinates they give.

    A Hermitian function, f(g^-1) = conj f(g), is fixed by its values on one
    element of each orbit, the representatives: f(g), real, on each g with
    g^-1 = g (`own`: e and the involutions), and Re f(g), Im f(g) on each
    g < g^-1 (`first`). These n numbers are its coordinates, in the order
    own, Re first, Im first; `block_pairs` gives those of a Hermitian block.
    """

    own: np.ndarray  # (n0,) the g with g^-1 = g, increasing
    first: np.ndarray  # (p,) the g with g < g^-1, increasing
    partner: np.ndarray  # (p,) g^-1 for each g of first

    @functools.cached_property
    def heads(self) -> np.ndarray:
        """The representatives, own then first: (n0 + p,) element indices."""
        return _frozen(np.concatenate([self.own, self.first]))

    def coords(self, values: np.ndarray) -> np.ndarray:
        """The (..., n) real coordinates of the Hermitian part (f + f*)/2 of
        values (..., n), f*(g) = conj f(g^-1): of f itself where f is Hermitian."""
        a, b = values[..., self.first], values[..., self.partner]
        return np.concatenate(
            [values[..., self.own].real, (a.real + b.real) / 2.0, (a.imag - b.imag) / 2.0], axis=-1
        )

    def expand(self, coords: np.ndarray) -> np.ndarray:
        """`coords` inverted: f (..., n), Hermitian bit for bit, real on `own`
        and with no -0.0 anywhere, in one gather from [coords, -Im first, 0]."""
        c = coords + 0.0  # -0.0 -> +0.0
        tail = (0.0 - c[..., c.shape[-1] - self.first.size :], np.zeros((*c.shape[:-1], 1)))
        return np.take(np.concatenate([c, *tail], axis=-1), self._slots, axis=-1).view(complex)

    @functools.cached_property
    def _slots(self) -> np.ndarray:
        """Where `expand` reads Re f(g), Im f(g) for each g: (2n,) indices."""
        n0, p = self.own.size, self.first.size
        re, im = np.empty((2, n0 + 2 * p), dtype=np.intp)
        re[self.own], im[self.own] = np.arange(n0), n0 + 3 * p  # the 0
        re[self.first] = re[self.partner] = n0 + np.arange(p)
        im[self.first], im[self.partner] = n0 + p + np.arange(p), n0 + 2 * p + np.arange(p)
        return _frozen(np.stack([re, im], axis=-1).ravel())


def pair_split(inv: np.ndarray) -> PairSplit:
    """The split of the indices 0..n-1 under the involution inv (n,)."""
    g = np.arange(inv.size)
    first = np.flatnonzero(g < inv)
    return PairSplit(own=_frozen(np.flatnonzero(g == inv)), first=_frozen(first),
                     partner=_frozen(inv[first]))


@functools.cache
def block_pairs(d: int) -> PairSplit:
    """The split of the d^2 entries of a d x d block, row-major, under the
    transpose: a Hermitian block's coordinates are its diagonal (`own`), then
    the real and the imaginary parts of its upper triangle (`first`), row-major."""
    return pair_split(np.arange(d * d).reshape(d, d).T.ravel())


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: it is shared by every reader of a cache."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class IrrepBasis:
    """The irreducible unitary representations of a finite group, in one real matrix.

    For a Hermitian f, each Fourier block f^(rho) = sum_k f(k) rho(k) is
    Hermitian (rho(k^-1) = rho(k)^+), so it has d^2 real coordinates
    (`block_pairs`), linear in the n real coordinates of f (`PairSplit`).
    Row j of `real` holds the block coordinates of the Hermitian function with
    coordinate j = 1 and the others 0, for every irrep rho, one after another
    and grouped by dimension: f's block coordinates are coords(f) @ `real`.
    `dims` lists (d, count) per dimension, increasing; sum(count d^2) = n.
    """

    real: np.ndarray  # (n, n) float, read-only; rows: the coordinates of the group's `pairs`
    dims: tuple[tuple[int, int], ...]

    def block_coords(self, coords: np.ndarray) -> list[np.ndarray]:
        """Block coordinates of the Hermitian functions with coordinates coords
        (..., n): one (..., count, d^2) array per dimension, from one real matmul."""
        return _cut(coords @ self.real, self.dims)


def _cut(flat: np.ndarray, dims) -> list[np.ndarray]:
    """flat (..., n), the blocks in the order of `IrrepBasis.dims`, cut by
    plain slices into one (..., count, d^2) view per dimension."""
    lead, blocks, start = flat.shape[:-1], [], 0
    for d, count in dims:
        blocks.append(flat[..., start : start + count * d * d].reshape(*lead, count, d * d))
        start += count * d * d
    return blocks


def _real_basis(matrix: np.ndarray, dims, pairs: PairSplit) -> np.ndarray:
    """`IrrepBasis.real` from the complex basis: row k of matrix (n, n) holds
    rho(k) flattened, for every irrep of dims. The unit Hermitian functions
    are delta_g on own, delta_g + delta_g^-1 and i (delta_g - delta_g^-1) on
    first, so their blocks are sums of two rows of matrix: O(n^2)."""
    a, b = matrix[pairs.first], matrix[pairs.partner]
    flat = np.concatenate([matrix[pairs.own], a + b, 1j * (a - b)])
    return np.concatenate([block_pairs(d).coords(B).reshape(len(matrix), -1)
                           for (d, _), B in zip(dims, _cut(flat, dims))], axis=1)


@dataclass(frozen=True, eq=False)
class PureState:
    dim: int
    amplitudes: np.ndarray  # (dim,) complex

    def __post_init__(self):
        object.__setattr__(self, "dim", as_index(self.dim, "dim"))
        amp = np.array(self.amplitudes, dtype=complex)  # a copy: made read-only below
        if amp.shape != (self.dim,):
            raise NotAState(f"expected {self.dim} amplitudes, got shape {amp.shape}")
        if not np.isfinite(amp).all():
            raise NotAState("state has a non-finite amplitude")
        nrm = np.linalg.norm(amp)
        if not abs(nrm - 1.0) <= TOL_NORM:
            raise NotAState(f"state norm {float(nrm)} deviates from 1 beyond tolerance")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    group: FiniteGroup
    dim: int
    matrices: np.ndarray  # (n, d, d) complex, read-only
    linear: bool = False  # omega = 1: U(g)U(h) = U(gh) (set by `validate_projective_rep`)

    def __post_init__(self):
        # a read-only copy, so that `commutative` and `linear` cannot go stale
        # and the caller's array is never frozen in place
        object.__setattr__(self, "matrices", np.array(self.matrices, dtype=complex))
        self.matrices.setflags(write=False)

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
    def gauge_squarings(self) -> tuple[np.ndarray, ...]:
        """Per basis generator (g, t) of the group's cyclic decomposition, the
        transposed squarings (V^(2^j))^T, j < bit_length(t), of its gauge
        V = U(g) exp(-i arg(z) / t), where U(g)^t = z I, so that V^t = I: one
        read-only (bit_length(t), d, d) array. They come from the squarings
        U^(2^j) that also give U^t, bit_length(t) - 1 matrix squarings and
        popcount(t) - 1 products per generator, and are computed on first read
        and kept. NotAbelian for a non-abelian group; NotSimultaneouslyDiagonalizable
        when the matrices do not commute (checked first) or some U^t is not
        a unit phase times I, and then nothing is kept."""
        basis = self.group.cyclic_decomposition[0]
        if not self.commutative:
            raise NotSimultaneouslyDiagonalizable(
                "generator matrices do not commute (projective obstruction)"
            )
        return tuple(_gauge_squarings(self.matrices[g], t, g) for g, t in basis)


def _gauge_squarings(U: np.ndarray, t: int, g: int) -> np.ndarray:
    """(V^(2^j))^T, j < bit_length(t), for V = U exp(-i arg(z) / t) and U^t = z I."""
    squares = [U]
    for _ in range(t.bit_length() - 1):
        squares.append(squares[-1] @ squares[-1])
    P = functools.reduce(np.matmul, [S for j, S in enumerate(squares) if t >> j & 1])
    z = P[0, 0]
    if abs(abs(z) - 1.0) > TOL_SECTOR or np.abs(P - z * np.eye(len(U))).max() > TOL_SECTOR:
        raise NotSimultaneouslyDiagonalizable(
            f"U^{t} for generator {g} is not a phase multiple of the identity"
        )
    phases = np.exp(-1j * np.angle(z) * (2.0 ** np.arange(len(squares)) / t))
    gauged = np.array(squares) * phases[:, None, None]
    return _frozen(np.ascontiguousarray(gauged.swapaxes(1, 2)))


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise AxiomViolation("closure", witness=f"order {n} exceeds cap {MAX_ORDER}")


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
    one pass over the table's e entries. The group keeps read-only copies of
    the table and the inverse map, so that no write to the caller's array can
    change a group or the facts it caches from them.

    Raises AxiomViolation naming the failed axiom together with a witness;
    the associativity witness is the row-major first failing triple. An
    entry that is not an integer (NaN, inf, 1.7, a string, a bool) fails
    closure and is named.
    """
    mult = np.asarray(mult_table)
    if mult.ndim != 2 or mult.shape[0] != mult.shape[1] or mult.shape[0] == 0:
        raise AxiomViolation("closure", witness=f"table shape {mult.shape}")
    n = mult.shape[0]
    _check_order(n)
    if mult.dtype.kind not in "iu":  # an integer array pays no pass for this
        flat = mult.ravel().tolist()  # Python scalars
        bad = next((k for k, v in enumerate(flat)
                    if not (type(v) is int or type(v) is float and v.is_integer())), None)
        if bad is not None:
            witness = f"entry {divmod(bad, n)} = {flat[bad]!r} is not an integer"
            raise AxiomViolation("closure", witness=witness)
    if mult.min() < 0 or mult.max() >= n:
        bad = np.argwhere((mult < 0) | (mult >= n))[0]
        raise AxiomViolation("closure", witness=tuple(int(x) for x in bad))
    mult = _frozen(mult.astype(np.intp))  # the group's own copy: its caches read it

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

    return FiniteGroup(order=n, mult=mult, identity=e, inv=_frozen(inv), name=name)


def as_index(x, name: str, lo=-math.inf, hi=math.inf, ends: str = "[)") -> int:
    """x as an int; DomainError unless x is an integer (not 5.0, 2.7, True or
    "1") in its domain, checked by `as_real`."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
        raise DomainError(f"{name} must be an integer, got {x!r}")
    return int(as_real(x, name, lo, hi, ends))


def as_real(x, name: str, lo, hi, ends: str = "[)"):
    """x; DomainError unless x is a real number (not True or "1") in its domain,
    lo to hi with ends "[)", "()", "[]" or "(]" (nan is in none), with the one
    message "<name> must be in [lo, hi), got <x>"."""
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    if not ((lo <= x if ends[0] == "[" else lo < x) and (x <= hi if ends[1] == "]" else x < hi)):
        raise DomainError(f"{name} must be in {ends[0]}{lo}, {hi}{ends[1]}, got {x}")
    return x


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


@functools.lru_cache(maxsize=8)
def label_group(shape: tuple[int, ...]) -> FiniteGroup:
    """Z_{n_1} x ... x Z_{n_k} on the row-major label grid of shape, kept for
    the last few shapes, as every caller shares it: the group a charge
    distribution's chi lives on.

    The grid is its cyclic decomposition, recorded with the group so that
    `decompose_abelian` never runs on it: the basis is the unit label of
    each axis with n_j > 1, of order n_j, and the label map is the identity.
    So irrep k of `regular_irreps` is the character of grid label k,
    exp(2 pi i a.k / n) at label a. ShapeMismatch above MAX_ORDER labels,
    before any table is allocated."""
    n = math.prod(shape)
    if n > MAX_ORDER:
        raise ShapeMismatch(f"{n} labels in shape {shape} exceed cap {MAX_ORDER}")
    group = build_group(_product_table(shape))
    strides = np.cumprod((1, *shape[:0:-1]))[::-1]  # row-major index of each unit label
    basis = tuple((int(g), t) for g, t in zip(strides, shape) if t > 1)
    group.__dict__["cyclic_decomposition"] = (basis, _frozen(np.arange(n)))  # the cached value
    return group


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
    """The product table of a faithful matrix group whose entries are 0, +-1
    or +-i, so that every product is exact: mult[a, b] is the c with
    mats[a] @ mats[b] equal to mats[c], looked up by its entries (+ 0.0 turns
    a -0.0 into +0.0). A product that is no element gets index n, which
    `build_group` refuses; two equal matrices are a SelfCheckFailed."""
    n = len(mats)
    index = {(m + 0.0).tobytes(): c for c, m in enumerate(mats)}
    if len(index) < n:
        raise SelfCheckFailed(f"{n - len(index)} of the {n} matrices repeat another")
    prods = np.einsum("aij,bjk->abik", mats, mats) + 0.0
    return np.array([[index.get(p.tobytes(), n) for p in row] for row in prods])


_CYCLIC_RE = re.compile(r"^Z_(\d+)$")


def named_group(name: str) -> FiniteGroup:
    """Standard multiplication tables: Z_n, Z_n1x...xZ_nk, S_3, D_4, Q_8.

    Product names accept either 'x' or the multiplication-sign separator. A
    product order above MAX_ORDER is refused, as `build_group` refuses it,
    before its table is allocated.
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
    _check_order(math.prod(moduli))  # before the n^2 table of a name too large to build
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
    working memory beyond the input (and the rep's copy of it) stays O(chunk).
    `linear` is max |z - 1| <= TOL_UNITARY * max(1, d), the law's own cut,
    over the z these checks compute: on the rows e and S (omega = 1 there
    gives omega = 1 everywhere, by the same induction), or on every pair.
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

    omega_dev = _law_at_generators(group, mats, u)
    if omega_dev is None:
        omega_dev = _law_scan(group, mats)
    return ProjectiveRep(group, d, mats, linear=omega_dev <= TOL_UNITARY * max(1.0, d))


def _law_at_generators(group: FiniteGroup, mats: np.ndarray, u: float) -> float | None:
    """The largest |z - 1| on the rows e and S, z = (U(r)U(h)U(rh)^+)[0, 0],
    when the bound of `validate_projective_rep` proves the projective law at
    every pair of unitaries mats from those rows; u is the largest
    ||U U^+ - I||_F. None as soon as a measured row breaks the bound.
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
        return None

    cols = _block_rows(d * d * mats.itemsize)
    omega_dev = 0.0
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
                return None
            omega_dev = max(omega_dev, float(np.abs(z - 1.0).max()))
    return omega_dev


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


def _law_scan(group: FiniteGroup, mats: np.ndarray) -> float:
    """NotProjective at the row-major first pair of unitaries mats that breaks
    the law: every U(g)U(h)U(gh)^+ in blocks of g x h, none of them kept.
    Else the largest |z - 1|, z its (0, 0) entry."""
    n, d = mats.shape[:2]
    # A pair's share of a block: its d x d product and the 64 bytes of
    # scalars kept per pair (the table index, z, its modulus and phase, the
    # deviation, the masks), which outweigh the product at d = 1.
    pair_bytes = d * d * mats.itemsize + 64
    # Blocks of g x all h; when one row of pairs exceeds the chunk, rows
    # is 1 and the h axis is tiled instead, so the scan stays row-major.
    cols = min(n, _block_rows(pair_bytes))
    rows = _block_rows(cols * pair_bytes)
    omega_dev = 0.0
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
            omega_dev = max(omega_dev, float(np.abs(z - 1.0).max()))
    return omega_dev


def is_subgroup(group: FiniteGroup, elements) -> bool:
    """Whether the elements S form a subgroup, i.e. are their own closure.

    One table test: e is in S and every product of two elements of S is in S.
    A finite set closed under the product holds the inverse of each element
    (a power of it), so nothing else is needed; the empty set is not a subgroup.
    DomainError for an element that is not an integer index into the group.
    """
    n = group.order
    S = np.array([as_index(s, "element index", 0, n) for s in elements], dtype=np.intp)
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
    """The irreps of G, as the real basis of `IrrepBasis`: its characters if
    abelian, else by Dixon's method.

    An abelian table's irreps are read off its cached cyclic decomposition:
    irrep k sends the element of label a to exp(2 pi i sum_j a_j k_j / t_j),
    so the rows of the real basis are cosines and sines of these phases.
    Otherwise one eigendecomposition of the regular representation gives
    them. A random Hermitian H[g, h] = c(g h^-1), c(k^-1) = conj c(k), commutes
    with every right translation, so each of its eigenspaces is invariant under
    them and, for generic c, carries one irrep; an irrep of dimension d gives
    d eigenvalues of multiplicity d (Dixon, Math. Comp. 24, 1970). One
    eigenspace per character is kept. The result must pass sum d^2 = n,
    sum_k |chi(k)|^2 = n for each irrep and d eigenspaces per irrep of
    dimension d, else the next fixed seed is tried; SelfCheckFailed when
    none passes; the real basis is then read off rho(k) (`_real_basis`).
    Cost: one n x n `eigh`, plus O(n d^3) per eigenspace.
    """
    n = group.order
    if group.is_abelian():
        basis, elems = group.cyclic_decomposition
        t = np.array([t for _, t in basis] or [1])
        labels = np.indices(t).reshape(len(t), n).T  # row a: the label of elems[a]
        lcm = int(np.lcm.reduce(t))
        charge = (labels * (lcm // t)) @ labels.T % lcm / lcm  # sum_j a_j k_j / t_j mod 1
        # row g holds the phases of chi_k(g): the row of the label a with elems[a] = g
        phase = 2 * np.pi * charge[np.argsort(elems)]
        pairs = group.pairs
        own, first = phase[pairs.own], phase[pairs.first]
        # the blocks of delta_g, delta_g + delta_g^-1 and i (delta_g - delta_g^-1): chi_k(g)
        # (real on own), 2 Re chi_k(g) and -2 Im chi_k(g), as chi_k(g^-1) = conj chi_k(g)
        real = np.concatenate([np.cos(own), 2 * np.cos(first), -2 * np.sin(first)])
        return IrrepBasis(real=_frozen(real), dims=((1, n),))
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
            matrix = np.concatenate(cols, axis=1)
            real = _real_basis(matrix, dims, group.pairs)
            return IrrepBasis(real=_frozen(real), dims=tuple(dims))
    raise SelfCheckFailed(f"no irrep decomposition of the group of order {n} passed its checks")
