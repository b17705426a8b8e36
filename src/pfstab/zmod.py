"""Exact linear algebra over Z_D for arbitrary modulus D >= 2 (composite allowed).

The workhorse is the Howell normal form: the unique canonical representative
of a row space over Z_D.  Unlike plain row echelon over a field, the Howell
form stays canonical for composite moduli, which makes row-span membership,
span order and kernel computations exact.  Conventions:

* entries are stored as least nonnegative residues and reduced eagerly;
* all spans are *row* spans; a kernel means ``{x : x @ M == 0 (mod D)}``.

Two primitives serve every caller.  ``_pivot_scale(a, n)`` is a cached
extended-gcd coefficient s with s * a == gcd(a, n) (mod n): the Howell form
eliminates with it and scales each pivot row by it (s need not be a unit;
see ``_howell_basis``).  ``_reduce_against`` is the one reducer against a
Howell basis: it takes one vector or a batch and returns coset minima, so
span membership, solving and the coset minimum are all a zero test or a
read of its result.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
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
    6 r D^2, and Howell-form combinations mod n, below 2 n^2.  So operators
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


def _echelon_insert(basis: dict[int, np.ndarray], v: np.ndarray, n: int) -> None:
    """Fold v into an echelon basis keyed by pivot column (destructive)."""
    while True:
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return
        j = int(nz[0])
        if j not in basis:
            basis[j] = v
            return
        row = basis[j]
        a = int(row[j])
        b = int(v[j])
        g = gcd(a, n)
        if b % g == 0:
            v = (v - (_pivot_scale(a, n) * (b // g) % n) * row) % n
        else:
            g, s, t = _xgcd(a, b)
            combined = (s * row + t * v) % n
            v = ((a // g) * v - (b // g) * row) % n
            basis[j] = combined


def _howell_basis(array: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Howell basis {pivot column: row} of the row span of ``array`` mod n."""
    ncols = array.shape[1]
    basis: dict[int, np.ndarray] = {}
    for r in array:
        _echelon_insert(basis, r % n, n)
    # Howell property: fold in the annihilator multiple of every pivot row;
    # a unit pivot (u = n) has none.  Inserted rows only touch columns to
    # the right, so one sweep suffices.
    for j in range(ncols):
        if j not in basis:
            continue
        a = int(basis[j][j])
        u = n // gcd(a, n)
        if u != n:
            w = (u * basis[j]) % n
            if w.any():
                _echelon_insert(basis, w, n)
    # Canonical pivots: scale so each pivot equals g = gcd(pivot, n).  The
    # scale s need not be a unit: row - (a / g) s row is a multiple of
    # (n / g) row, which the sweep above put in the span of the later rows.
    for j in basis:
        a = int(basis[j][j])
        if a != gcd(a, n):
            basis[j] = (basis[j] * _pivot_scale(a, n)) % n
    # Reduce entries above each pivot into [0, pivot).
    cols = sorted(basis)
    for idx, j in enumerate(cols):
        piv = int(basis[j][j])
        for j2 in cols[:idx]:
            q = int(basis[j2][j]) // piv
            if q:
                basis[j2] = (basis[j2] - q * basis[j]) % n
    return basis


def howell_form(m: ZModMatrix) -> ZModMatrix:
    """The unique Howell canonical form with the same row span as ``m``.

    The result is in echelon form with strictly increasing pivot columns,
    every pivot divides the modulus, entries above a pivot are reduced
    modulo it, and the span of the rows starting at any column equals the
    set of span elements supported from that column on.
    """
    basis = _howell_basis(m.array, m.modulus)
    if not basis:
        return ZModMatrix(m.modulus, np.zeros((0, m.num_cols), dtype=np.int64))
    rows = np.stack([basis[j] for j in sorted(basis)])
    return ZModMatrix(m.modulus, rows)


def _reduce_against(basis: dict[int, np.ndarray], vectors: np.ndarray, n: int) -> np.ndarray:
    """:func:`coset_minimum` of one vector, or of each row of ``vectors``, against a Howell basis.

    Each pivot in turn reduces its column into [0, pivot), skipped where
    every entry already lies there.  This is the only reducer: a vector
    lies in the span exactly when its result is zero.
    """
    w = np.asarray(vectors, dtype=np.int64) % n
    rows = w.reshape(-1, w.shape[-1])
    for j in sorted(basis):
        row = basis[j]
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


def _basis_order(basis: dict[int, np.ndarray], n: int) -> int:
    """Span order of a Howell basis: the product of n / pivot over its rows."""
    order = 1
    for j, row in basis.items():
        order *= n // int(row[j])
    return order


def _augmented_basis(m: ZModMatrix) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The Howell basis of [M | I], split: the rows with a pivot in M's c columns,
    and the rows whose M-part vanished as {pivot - c: I-part}.  The I-parts
    witness x @ M == 0 and already form the Howell basis of the left kernel.
    """
    c = m.num_cols
    basis = _howell_basis(np.hstack([m.array, np.eye(m.num_rows, dtype=np.int64)]), m.modulus)
    return {j: row for j, row in basis.items() if j < c}, {j - c: row[c:] for j, row in basis.items() if j >= c}


def _solve_front(front: dict[int, np.ndarray], vec: np.ndarray, r: int, n: int) -> np.ndarray | None:
    """:func:`solve_left` for an r-row M, from the M-pivot rows of ``_augmented_basis``."""
    c = vec.shape[0]
    w = _reduce_against(front, np.concatenate([vec, np.zeros(r, dtype=np.int64)]), n)
    if w[:c].any():
        return None
    return (-w[c:]) % n


def kernel_basis(m: ZModMatrix) -> ZModMatrix:
    """Howell basis K of the left kernel {x : x @ M == 0 (mod D)}, read off the Howell form of [M | I]."""
    _, kernel = _augmented_basis(m)
    if not kernel:
        return ZModMatrix(m.modulus, np.zeros((0, m.num_rows), dtype=np.int64))
    return ZModMatrix(m.modulus, np.stack([kernel[j] for j in sorted(kernel)]))


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
