"""Exact linear algebra over Z_D for arbitrary modulus D >= 2 (composite allowed).

The workhorse is the Howell normal form: the unique canonical representative
of a row space over Z_D.  Unlike plain row echelon over a field, the Howell
form stays canonical for composite moduli, which makes row-span membership,
span order and kernel computations exact.  Conventions:

* entries are stored as least nonnegative residues and reduced eagerly;
* all spans are *row* spans; a kernel means ``{x : x @ M == 0 (mod D)}``.

Two primitives serve every caller.  ``_column_step`` is the one
elimination rule: it clears one column of a batch of row blocks with the
pivot of least gcd with n, scaled by the cached extended-gcd coefficient
``_pivot_scale`` (s * a == gcd(a, n) mod n; s need not be a unit), and
keeps the pivot row's annihilator multiple.  The ``l_con`` window scan
(``code._first_window``) is a loop of it over the columns, and so is the
Howell form, which has two implementations of the one rule: the batched
numpy step for inputs of more than ``_SMALL_NONZEROS`` nonzero entries,
and ``_small_column_steps`` on lists of Python ints up to it, where
numpy's fixed cost per call (about 20 calls a step) outweighs the
arithmetic.  Howell forms are unique, so both give the same bytes.
``_reduce_against`` is the one reducer against a Howell basis: it takes
one vector or a batch and returns coset minima, so span membership,
solving and the coset minimum are all a zero test or a read of its result.

A Howell basis has one format in every layer: a (k, c) int64 array of rows
in pivot order, a row's pivot its first nonzero entry (``_pivot_columns``).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ZModMatrix",
    "howell_form",
    "span_membership",
    "span_order",
    "kernel_basis",
    "solve_left",
    "coset_minimum",
]


def _check_range(modulus: int, width: int, what: str) -> None:
    """Raise ValueError unless (2 * width * modulus)**2 < 2**63.

    The largest int64 intermediates are the prefix-sum pairings of two rows
    over m modes, below (m D)^2 / 2 (``PfOperator.__mul__``,
    ``code._relation_phases``), the phase sums of r generators, below
    6 r D^2, and those of ``_column_step`` mod n, below 2 n^2.  So operators
    (width m), codes (width max(m, r)) and matrices (width 1) within the
    bound compute exactly, and such a code does also modulo 2D.
    """
    if (2 * width * int(modulus)) ** 2 >= 2**63:
        raise ValueError(f"modulus {modulus} is too large for {what}: exact int64 needs (2 * {width} * D)^2 < 2^63")


class ZModMatrix:
    """A rectangular matrix with entries in Z_D (least nonnegative residues)."""

    __slots__ = ("modulus", "array")

    def __init__(self, modulus: int, array) -> None:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        _check_range(modulus, 1, "a matrix")
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.size and (arr.min() < 0 or arr.max() >= modulus):
            raise ValueError(f"entries must lie in [0, {modulus})")
        self.modulus = int(modulus)
        self.array = arr

    @classmethod
    def from_rows(cls, modulus: int, rows: Iterable[Sequence[int]], cols: int | None = None) -> "ZModMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            if cols is None:
                raise ValueError("cols is required for an empty row list")
            return cls(modulus, np.zeros((0, cols), dtype=np.int64))
        arr = np.array(rows, dtype=np.int64) % modulus
        return cls(modulus, arr)

    @classmethod
    def zeros(cls, modulus: int, rows: int, cols: int) -> "ZModMatrix":
        return cls(modulus, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, modulus: int, n: int) -> "ZModMatrix":
        return cls(modulus, np.eye(n, dtype=np.int64))

    @property
    def num_rows(self) -> int:
        return self.array.shape[0]

    @property
    def num_cols(self) -> int:
        return self.array.shape[1]

    def transpose(self) -> "ZModMatrix":
        return ZModMatrix(self.modulus, self.array.T.copy())

    def to_lists(self) -> list[list[int]]:
        return [[int(e) for e in row] for row in self.array]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZModMatrix):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"ZModMatrix(mod {self.modulus}, {self.num_rows}x{self.num_cols})"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


@lru_cache(maxsize=4096)
def _pivot_scale(value: int, n: int) -> int:
    """Some s with s * value == gcd(value, n) (mod n); s need not be a unit."""
    return _xgcd(value, n)[1] % n


def _step_dtype(n: int) -> np.dtype:
    """The smallest integer type that holds :func:`_column_step`'s intermediates,
    whose size stays below 2 n^2 (the extended-gcd combination)."""
    return np.min_scalar_type(-2 * n * n)


def _column_step(block: np.ndarray, spanned: int, j: int, n: int) -> np.ndarray:
    """One Howell elimination step at column j, for a batch of row blocks at once.

    ``block[:, b]`` holds the rows of batch entry b, entries in [0, n), zero
    before column j on its first ``spanned`` (spanning) rows; the rest are
    carried rows.  Per entry, the pivot is the spanning row whose entry has
    the least gcd g with n.  Where g does not divide some spanning entry (as
    2 and 3 do not mod 6), the pivot is combined with that row by the
    extended gcd, which keeps the span and lowers g until it does.  Every
    row then loses the multiple of s * pivot, where s * pivot[j] == g
    (``_pivot_scale``), that leaves its entry's residue mod g (zero on a
    spanning row), and the pivot row becomes (n / g) * pivot, the multiples
    of it that vanish at column j.  So the spanning rows span the part of
    their old span that is zero through column j.  Updated entries are
    reduced mod n at once, so every intermediate stays below 2 n^2 (see
    :func:`_step_dtype`).

    Returns the scaled pivot rows s * pivot from column j on, whose first
    entry is g (0 where the spanning entries are all zero).  A spanning
    entry left nonzero at column j (an integer product that wrapped) raises
    OverflowError.
    """
    at = np.arange(block.shape[1])
    col = block[:, :, j]  # a view: it follows the row updates below
    gcds = np.gcd(col[:spanned], n)
    piv = gcds.argmin(axis=0)
    g = gcds[piv, at]
    off = gcds % g
    if np.count_nonzero(off):
        for b in np.flatnonzero(off.any(axis=0)):
            p = piv[b]
            for i in np.flatnonzero(off[:, b]):
                a, c = int(col[p, b]), int(col[i, b])
                if c % gcd(a, n):
                    h, s, t = _xgcd(a, c)
                    one, other = block[p, b, j:], block[i, b, j:]
                    block[p, b, j:], block[i, b, j:] = (s * one + t * other) % n, ((a // h) * other - (c // h) * one) % n
            g[b] = gcd(int(col[p, b]), n)
    pivot = block[piv, at, j:]
    scaled = pivot * np.array([_pivot_scale(v, n) for v in pivot[:, 0].tolist()], dtype=block.dtype)[:, None] % n
    times = col // g
    i, b = times.nonzero()
    block[i, b, j:] = (block[i, b, j:] - times[i, b, None] * scaled[b]) % n
    block[piv, at, j:] = (n // g)[:, None] * pivot % n
    if np.count_nonzero(col[:spanned]):
        raise OverflowError(f"elimination mod {n} left a nonzero entry at pivot column {j}; an integer product wrapped")
    return scaled


# Inputs with at most this many nonzero entries are eliminated on Python
# ints (_small_column_steps): a _column_step makes about 20 numpy calls
# whatever its size, while the lists cost about one operation per nonzero
# entry they touch, and fill-in grows with the nonzeros.  Timed on every
# distinct input of the params and verify benchmark workloads, the paper
# checks and the toric codes (2,1,a,a), a = 4, 6, 8 (list/batched time,
# medians; 2-vCPU Xeon, NumPy 2.4): 0.44-0.93 up to 556 nonzeros, 1.24-2.41
# from 803 on (the workloads' denser [M | I] of 22 x 70 to 96 x 142), and
# 0.93-1.06 on the sparse toric inputs of 990-2,284 nonzeros; any bound
# from 400 to 800 gives the two workloads their least total time.  Dense
# uniform matrices mod 2-6 cross near 550 nonzeros.
_SMALL_NONZEROS = 600


def _small_column_steps(spanning: list[list[int]], n: int, ncols: int) -> list[list[int]]:
    """:func:`_column_step`'s rule, column by column, on rows of Python ints.

    ``spanning`` holds the rows of one matrix, entries in [0, n); its rows
    are updated in place.  Returns the carried rows, the Howell basis in
    pivot order.  A unit pivot's row becomes zero, so it is dropped from
    the spanning rows; any other row that becomes zero stays, and costs a
    test per column, as it never pivots and no later step changes it.
    Python ints do not wrap, so the step's OverflowError here flags a
    broken step rule, not an overflow.
    """
    carried: list[list[int]] = []
    for j in range(ncols):
        nonzero = [row for row in spanning if row[j]]
        if not nonzero:
            continue
        gcds = [gcd(row[j], n) for row in nonzero]
        g = min(gcds)
        pivot = nonzero[gcds.index(g)]
        for row, d in zip(nonzero, gcds):
            if d % g:
                a, c = pivot[j], row[j]
                if c % gcd(a, n):
                    h, s, t = _xgcd(a, c)
                    one, other = pivot[j:], row[j:]
                    pivot[j:] = [(s * x + t * y) % n for x, y in zip(one, other)]
                    row[j:] = [((a // h) * y - (c // h) * x) % n for x, y in zip(one, other)]
        g = gcd(pivot[j], n)
        scale = _pivot_scale(pivot[j], n)
        scaled = [scale * x % n for x in pivot[j:]]
        terms = [(k, y) for k, y in enumerate(scaled, j) if y]
        for row in nonzero:
            if row is pivot:
                row[j:] = [(n // g) * x % n for x in row[j:]]
            elif times := row[j] // g:
                for k, y in terms:
                    row[k] = (row[k] - times * y) % n
        if any(row[j] for row in nonzero):
            raise OverflowError(f"elimination mod {n} left a nonzero entry at pivot column {j}; the step did not clear it")
        for row in carried:
            if times := row[j] // g:
                for k, y in terms:
                    row[k] = (row[k] - times * y) % n
        carried.append([0] * j + scaled)
        if g == 1:
            spanning = [row for row in spanning if row is not pivot]
    return carried


def _howell_basis(array: np.ndarray, n: int) -> np.ndarray:
    """Howell basis of the row span of ``array`` mod n: a C-contiguous
    (k, cols) int64 array of rows in pivot order, each row's pivot its
    first nonzero entry.

    A :func:`_column_step` per column (a batch of one), with the rows of
    ``array`` spanning and the basis rows found so far carried; an input
    with at most ``_SMALL_NONZEROS`` nonzero entries runs the same rule on
    Python ints (:func:`_small_column_steps`) instead, since there numpy's
    cost per call outweighs the arithmetic.  Both give the same bytes.  At
    each pivot the scaled pivot row, whose pivot is g = gcd(pivot, n),
    joins the carried rows, and every later step reduces the carried rows'
    entries at its column into [0, g) on the way.  The scale s need not be a
    unit: pivot - (a / g) s pivot is a multiple of (n / g) pivot, which the
    step leaves among the spanning rows.  A span of r rows has order at most
    n^r, and each basis row contributes a factor n / g >= 2 to it, so there
    are at most r log2(n) basis rows.
    """
    rows = np.asarray(array, dtype=np.int64) % n
    r, ncols = rows.shape
    if np.count_nonzero(rows) <= _SMALL_NONZEROS:
        carried = _small_column_steps(rows.tolist(), n, ncols)
        return np.array(carried, dtype=np.int64).reshape(len(carried), ncols)
    block = np.zeros((r + min(ncols, r * int(n).bit_length()), 1, ncols), dtype=np.int64)
    block[:r, 0] = rows
    k = 0
    for j in range(ncols):
        if np.count_nonzero(block[:r, 0, j]):
            block[r + k, 0, j:] = _column_step(block[: r + k], r, j, n)[0]
            k += 1
    return block[r : r + k, 0].copy()


def howell_form(m: ZModMatrix) -> ZModMatrix:
    """The unique Howell canonical form with the same row span as ``m``.

    The result is in echelon form with strictly increasing pivot columns,
    every pivot divides the modulus, entries above a pivot are reduced
    modulo it, and the span of the rows starting at any column equals the
    set of span elements supported from that column on.
    """
    return ZModMatrix(m.modulus, _howell_basis(m.array, m.modulus))


def _pivot_columns(basis: np.ndarray) -> np.ndarray:
    """The pivot column of each row of a Howell basis: the count of zeros
    before its first nonzero entry."""
    return np.logical_and.accumulate(basis == 0, axis=1).sum(axis=1)


def _reduce_against(basis: np.ndarray, vectors: np.ndarray, n: int) -> np.ndarray:
    """:func:`coset_minimum` of one vector, or of each row of ``vectors``, against a Howell basis.

    Each pivot in turn reduces its column into [0, pivot), skipped where
    every entry already lies there.  This is the only reducer: a vector
    lies in the span exactly when its result is zero.
    """
    w = np.asarray(vectors, dtype=np.int64) % n
    rows = w[None] if w.ndim == 1 else w  # a view, so w follows its updates
    for row, j in zip(basis, _pivot_columns(basis).tolist()):
        times = rows[:, j] // int(row[j])
        if np.count_nonzero(times):
            rows -= times[:, None] * row
            rows %= n
    return w


def span_membership(m: ZModMatrix, v: Sequence[int]) -> bool:
    """True iff v lies in the row span of m over Z_D."""
    vec = np.asarray(v, dtype=np.int64)
    if vec.ndim != 1 or vec.shape[0] != m.num_cols:
        raise ValueError(f"vector length {vec.shape} does not match {m.num_cols} columns")
    return not _reduce_against(_howell_basis(m.array, m.modulus), vec, m.modulus).any()


def span_order(m: ZModMatrix) -> int:
    """Number of distinct vectors in the row span of m over Z_D.

    From the Howell form this is the product over pivot rows of D / pivot:
    row i contributes one factor because its pivot generates a cyclic module
    of that order and the Howell property removes double counting.
    """
    return _basis_order(_howell_basis(m.array, m.modulus), m.modulus)


def _basis_order(basis: np.ndarray, n: int) -> int:
    """Span order of a Howell basis: the product of n / pivot over its rows."""
    return prod(n // pivot for pivot in basis[np.arange(len(basis)), _pivot_columns(basis)].tolist())


def _augmented_basis(m: ZModMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The Howell basis of [M | I], split by slicing: its first rows, those
    with a pivot among M's c columns, and the I-parts of the rest, whose
    M-part vanished.  Those I-parts witness x @ M == 0 and already form the
    Howell basis of the left kernel.
    """
    c = m.num_cols
    basis = _howell_basis(np.hstack([m.array, np.eye(m.num_rows, dtype=np.int64)]), m.modulus)
    front = int(np.searchsorted(_pivot_columns(basis), c))
    return basis[:front], basis[front:, c:]


def _solve_front(front: np.ndarray, vec: np.ndarray, r: int, n: int) -> np.ndarray | None:
    """:func:`solve_left` for an r-row M, from the M-pivot rows of ``_augmented_basis``."""
    c = vec.shape[0]
    w = _reduce_against(front, np.concatenate([vec, np.zeros(r, dtype=np.int64)]), n)
    if w[:c].any():
        return None
    return (-w[c:]) % n


def kernel_basis(m: ZModMatrix) -> ZModMatrix:
    """Howell basis K of the left kernel {x : x @ M == 0 (mod D)}, read off the Howell form of [M | I]."""
    return ZModMatrix(m.modulus, _augmented_basis(m)[1])


def solve_left(m: ZModMatrix, v: Sequence[int]) -> np.ndarray | None:
    """Some x with x @ M == v (mod D), or None when v is outside the span."""
    vec = np.asarray(v, dtype=np.int64) % m.modulus
    if vec.shape != (m.num_cols,):
        raise ValueError(f"vector length {vec.shape} does not match {m.num_cols} columns")
    front, _ = _augmented_basis(m)
    return _solve_front(front, vec, m.num_rows, m.modulus)


def coset_minimum(m: ZModMatrix, v: Sequence[int]) -> np.ndarray:
    """Lexicographically smallest element of ``v + rowspan(M)``.

    Greedy left-to-right: at each pivot column the residual freedom is
    exactly the ideal generated by the pivot, so reducing the entry into
    [0, pivot) is optimal and never disturbs finished columns.
    """
    n = m.modulus
    vec = np.asarray(v, dtype=np.int64) % n
    if vec.shape != (m.num_cols,):
        raise ValueError(f"vector length {vec.shape} does not match {m.num_cols} columns")
    return _reduce_against(_howell_basis(m.array, n), vec, n)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the prime bases 2 .. 41, exact for p < 3.3e24.

    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
    Math. Comp. 86, 2017.)  Above that bound it is a strong probable-prime
    test; no modulus pfstab can work with comes near it (the search has no
    candidate space for such a D).
    """
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` is no integer field)."""
    return isinstance(value, int) and not isinstance(value, bool)
