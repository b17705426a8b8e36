"""Parafermion stabilizer codes: validation, parameters, logicals, syndromes.

A code is a list of generators in PF(D, 2n).  Validity means the generators
pairwise commute, each preserves parity (charge zero), and the generated
group contains no nontrivial phase multiple of the identity.  The last
condition reduces to two finite checks: every generator to the D-th power
must be the exact identity, and every multiplicative relation between the
exponent rows (an element of the left kernel of the row matrix) must lift
to a phase-free product.

All three conditions are closed forms in the generators w^{mu_i} g^{alpha_i}.
With S the r x m matrix of rows alpha_i, L the pairing matrix of
:func:`~pfstab.algebra.lambda_matrix` and P_ij = alpha_i . prefix(alpha_j)
(prefix: exclusive prefix sums over the modes):

- the code is abelian iff S L S^T == 0 (mod D);
- parity holds iff S 1 == 0 (mod D);
- the product g_1^{k_1} ... g_r^{k_r}, in generator order, has the phase
  exponent k . mu - sum_i k_i (k_i - 1) P_ii - 2 sum_{i<j} k_i k_j P_ij
  (mod 2D), and the phase check asks it to vanish for k = D e_i and for
  every kernel row k of S.

:func:`validate` evaluates these for all pairs and relations at once, and
:func:`canonical_phases` solves the same phase equations for mu.

A code is immutable, so its validity and the Howell basis of S are computed
once per code object, on first use, from one Howell form of [S | I]: the
rows with a pivot among S's columns, cut to those columns, are the Howell
basis of S, and the other rows give the kernel relations of the phase
check.  Every parameter (|S|, k, d, l_con, the logicals) is defined only
for a valid code, so each public function raises
:class:`InvalidCodeError` on an invalid one and otherwise reads the kept
basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .algebra import PfOperator, lambda_matrix
from .zmod import (
    ZModMatrix,
    _augmented_basis,
    _basis_order,
    _coset_minima,
    _howell_basis,  # noqa: F401  (the benchmark's span tracer patches this name here)
    _reduce_against,
    _solve_front,
    kernel_basis,
    span_order,
)

__all__ = [
    "PfCode",
    "ValidationFlags",
    "DistanceResult",
    "LconResult",
    "CodeReport",
    "InvalidCodeError",
    "PhaseAssignmentError",
    "validate",
    "group_order",
    "codespace_dim",
    "centralizer_basis",
    "logical_basis",
    "is_logical",
    "distance",
    "l_con",
    "syndrome",
    "canonical_phases",
    "stabilizer_matrix",
    "commutation_rows",
    "support_diameter",
    "analyze",
]

FULL_SEARCH_MODE_LIMIT = 20


class InvalidCodeError(ValueError):
    """The operation requires a code whose validation flags are all true."""


class PhaseAssignmentError(ValueError):
    """No phase assignment can make the generator set a valid stabilizer group."""


@dataclass(frozen=True)
class PfCode:
    """A stabilizer group in PF(D, 2n), given by its generating set.

    Immutable: its validity and stabilizer basis are computed on first use
    and kept.

    ``mode_layout`` optionally maps 1-indexed modes to integer lattice
    coordinates; when absent, modes sit on the 1-D chain i -> (i,).
    """

    modulus: int
    num_modes: int
    generators: tuple[PfOperator, ...]
    mode_layout: dict[int, tuple[int, ...]] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.modulus != self.modulus or g.num_modes != self.num_modes:
                raise ValueError("generator does not match the code's modulus or mode count")
        if self.num_modes < 2 or self.num_modes % 2:
            raise ValueError("num_modes must be even and >= 2")
        if self.mode_layout is not None:
            if set(self.mode_layout) != set(range(1, self.num_modes + 1)):
                raise ValueError("mode_layout must cover modes 1..num_modes")
            dims = {len(c) for c in self.mode_layout.values()}
            if len(dims) != 1:
                raise ValueError("mode_layout coordinates must share one dimension")

    @property
    def n(self) -> int:
        return self.num_modes // 2

    def with_generators(self, generators) -> "PfCode":
        return PfCode(self.modulus, self.num_modes, tuple(generators), self.mode_layout)

    @cached_property
    def _row_forms(self) -> tuple[dict[int, np.ndarray], np.ndarray]:
        """(Howell basis {pivot: row} of the rows S, Howell basis of their left
        kernel), read off one Howell form of [S | I]."""
        front, kernel = _augmented_basis(stabilizer_matrix(self))
        relations = np.array([kernel[j] for j in sorted(kernel)], dtype=np.int64)
        basis = {j: row[: self.num_modes] for j, row in front.items()}
        return basis, relations.reshape(len(kernel), len(self.generators))

    @cached_property
    def _flags(self) -> ValidationFlags:
        """The closed forms of the module docstring, for every generator pair,
        every D-th power and every kernel relation at once."""
        if not self.generators:
            return ValidationFlags(True, True, True)
        d = self.modulus
        rows = stabilizer_matrix(self).array
        abelian = not ((commutation_rows(self) @ rows.T) % d).any()
        parity_ok = not (rows.sum(axis=1) % d).any()
        mu = np.array([g.mu for g in self.generators], dtype=np.int64)
        phase_ok = not _relation_phases(rows, mu, _phase_relations(self), d).any()
        return ValidationFlags(abelian, parity_ok, phase_ok)


@dataclass(frozen=True)
class ValidationFlags:
    abelian: bool
    parity_ok: bool
    phase_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.abelian and self.parity_ok and self.phase_ok

    def to_dict(self) -> dict:
        return {"abelian": self.abelian, "parity_ok": self.parity_ok, "phase_ok": self.phase_ok}


@dataclass(frozen=True)
class DistanceResult:
    """Minimum logical weight; ``value`` is None when the search hit the cap."""

    value: int | None
    cap: int
    certificate: PfOperator | None

    @property
    def exact(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "cap": self.cap,
            "certificate": str(self.certificate) if self.certificate else None,
        }


@dataclass(frozen=True)
class LconResult:
    """Minimum layout diameter of a parity-preserving logical.

    ``cap`` is the diameter cap when it cut the window scan short of the
    layout's full diameter, else None.  A value of None then means
    l_con > cap; with no cap it means no parity-preserving logical exists.
    """

    value: int | None
    certificate: PfOperator | None
    cap: int | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "cap": self.cap,
            "certificate": str(self.certificate) if self.certificate else None,
        }


def stabilizer_matrix(code: PfCode) -> ZModMatrix:
    """Exponent rows of the generators as a matrix over Z_D."""
    if not code.generators:
        return ZModMatrix.zeros(code.modulus, 0, code.num_modes)
    return ZModMatrix(code.modulus, np.array([g.alpha for g in code.generators], dtype=np.int64))


def commutation_rows(code: PfCode) -> np.ndarray:
    """Rows S @ L mod D: the syndrome of x is (S @ L) @ x."""
    smat = stabilizer_matrix(code).array
    lam = lambda_matrix(code.modulus, code.num_modes).array
    return (smat @ lam) % code.modulus


def _relation_phases(smat: np.ndarray, mu: np.ndarray, powers: np.ndarray, modulus: int) -> np.ndarray:
    """Phase exponent in Z_2D of g_1^{k_1} ... g_r^{k_r} for each row k of ``powers``.

    The generators are w^{mu_i} g^{alpha_i} with ``smat`` rows alpha_i; the
    exponent is k . mu - sum_i k_i (k_i - 1) P_ii - 2 sum_{i<j} k_i k_j P_ij
    with P_ij = alpha_i . prefix(alpha_j) (see the module docstring).
    """
    two_d = 2 * modulus
    prefix = np.cumsum(smat, axis=1) - smat
    pairs = (smat @ prefix.T) % modulus
    later = (powers @ np.triu(pairs, 1).T) % modulus  # row k, entry i: sum_{j>i} P_ij k_j
    cross = (powers * later).sum(axis=1)
    own = ((powers * (powers - 1)) % two_d) @ np.diag(pairs)
    return (powers @ mu - own - 2 * cross) % two_d


def _phase_relations(code: PfCode) -> np.ndarray:
    """Exponent rows k whose products the phase check needs phase-free:
    D e_i for each generator, then a kernel basis of the rows."""
    r = len(code.generators)
    return np.vstack([code.modulus * np.eye(r, dtype=np.int64), code._row_forms[1]])


def validate(code: PfCode) -> ValidationFlags:
    """Check the three defining conditions; never raises.

    Evaluates the closed forms of the module docstring once per code object.
    """
    return code._flags


def _require_valid(code: PfCode) -> dict[int, np.ndarray]:
    """The Howell basis of the stabilizer rows of a valid code."""
    flags = validate(code)
    if not flags.all_ok:
        raise InvalidCodeError(f"code fails validation: {flags.to_dict()}")
    return code._row_forms[0]


def group_order(code: PfCode) -> int:
    """|S|: the number of distinct group elements (phases are pinned once valid)."""
    return _basis_order(_require_valid(code), code.modulus)


def codespace_dim(code: PfCode) -> int:
    """|C_S| = D^n / |S|, always an exact integer division for a valid code."""
    order = group_order(code)
    total = code.modulus**code.n
    if total % order:
        raise InvalidCodeError(f"D^n = {total} is not divisible by |S| = {order}")
    return total // order


def centralizer_basis(code: PfCode) -> ZModMatrix:
    """Howell basis of {x : S L x^T == 0 (mod D)}, the exponent space of the centralizer."""
    _require_valid(code)
    return kernel_basis(ZModMatrix(code.modulus, commutation_rows(code).T))


def syndrome(code: PfCode, error: PfOperator) -> tuple[int, ...]:
    """Commutation exponent of each generator with the error operator."""
    if error.modulus != code.modulus or error.num_modes != code.num_modes:
        raise ValueError("error operator does not match the code")
    rows = commutation_rows(code)
    return tuple(int(x) for x in (rows @ np.asarray(error.alpha, dtype=np.int64)) % code.modulus)


def is_logical(code: PfCode, op: PfOperator) -> bool:
    """True iff op centralizes the stabilizer but is not a stabilizer element."""
    basis = _require_valid(code)
    if op.modulus != code.modulus or op.num_modes != code.num_modes:
        raise ValueError("operator does not match the code")
    if any(syndrome(code, op)):
        return False
    reduced = _reduce_against(basis, np.asarray(op.alpha, dtype=np.int64), code.modulus)
    return reduced is None or bool(reduced.any())


def logical_basis(code: PfCode) -> list[PfOperator]:
    """Generating logical representatives of the centralizer modulo the stabilizer.

    Each Howell-basis row of the centralizer is reduced to the
    lexicographically smallest element of its stabilizer coset; zero cosets
    drop out.  The images generate the quotient.
    """
    basis = _require_valid(code)
    seen = set()
    out = []
    for rep in _coset_minima(basis, centralizer_basis(code).array, code.modulus):
        key = tuple(int(x) for x in rep)
        if any(rep) and key not in seen:
            seen.add(key)
            out.append(PfOperator(code.modulus, code.num_modes, 0, key))
    return out


# -- minimum-weight enumeration ------------------------------------------------
#
# One enumerator serves every minimum-weight scan: supports of weight w in
# colexicographic order, and on each support the assignments of letters
# (nonzero exponents, or qudit site operators) in lexicographic order.  In
# colex order the supports of weight L + j split into a tail of j positions
# t_1 < ... < t_j, in colex order, and a head: one of the first C(t_1, L)
# supports of weight L, in colex order.  So a table of every weight-L
# syndrome, plus the syndromes of the tails, yields every weight above L
# in scan order.  The scan keeps such a table for L = w - 1 (tails of one
# position) while it fits in _TABLE_BYTES, and uses longer tails above it.

# Consecutive tails share one block while it stays under this many rows,
# so small codes pay the per-block numpy work about once per weight.
_BLOCK_ROWS = 1 << 16
# Largest syndrome table kept for the next weight.
_TABLE_BYTES = 1 << 27


@lru_cache(maxsize=32)
def _colex_supports(universe: int, size: int) -> np.ndarray:
    """The C(universe, size) supports of that size in ``range(universe)``, in colex order."""
    if size == 0:
        out = np.zeros((1, 0), dtype=np.int64)
    else:
        prev = _colex_supports(universe, size - 1)
        counts = [comb(c, size - 1) for c in range(size - 1, universe)]
        head = np.concatenate([np.arange(n) for n in counts]) if counts else np.zeros(0, dtype=np.int64)
        out = np.column_stack([prev[head], np.repeat(np.arange(size - 1, universe), counts)])
    out.flags.writeable = False
    return out


def _lex_digits(index: np.ndarray, letters: int, size: int) -> np.ndarray:
    """Letter tuples at these ranks in the lexicographic order of ``letters**size`` tuples."""
    return (np.asarray(index)[:, None] // letters ** np.arange(size - 1, -1, -1)) % letters


def _place(positions: np.ndarray, letter_idx: np.ndarray, letters: np.ndarray, universe: int) -> np.ndarray:
    """Vectors with letter ``letter_idx[i, k]`` at position ``positions[i, k]``.

    Component t of a letter at position c goes to column t * universe + c.
    """
    out = np.zeros((positions.shape[0], letters.shape[1] * universe), dtype=np.int64)
    rows = np.arange(positions.shape[0])[:, None]
    for t in range(letters.shape[1]):
        out[rows, t * universe + positions] = letters[letter_idx, t]
    return out


def _first_logical(contrib: np.ndarray, letters: np.ndarray, basis: dict, modulus: int, max_weight: int):
    """First undetected error outside the stabilizer span, by weight, then colex/lex order.

    ``contrib[c, l]`` is the syndrome of letter l at position c and
    ``letters[l]`` its vector components; ``basis`` is the Howell basis of
    the stabilizer rows.  Returns (weight, vector), or None when every
    weight up to ``max_weight`` is clear.

    A block is a run of tails: each tail's heads (a prefix of the table)
    times the tail's letter tuples, in row-major order, which is the scan
    order.  With one-position tails the blocks, in order, are the table of
    the next weight.  Only zero-syndrome rows are reduced against the
    stabilizer span, a block's all at once.
    """
    positions, q, r = contrib.shape
    # Unsigned entries wide enough for a sum of two residues, and rows padded
    # to whole 8-byte words so that a row compares as a few integers.
    dtype = np.min_scalar_type(2 * modulus - 2)
    per_word = 8 // dtype.itemsize
    padded = np.zeros((positions, q, max(per_word, -(-r // per_word) * per_word)), dtype=dtype)
    padded[:, :, :r] = contrib % modulus
    contrib, cols = padded, padded.shape[2]
    level, table = 0, np.zeros((1, 1, cols), dtype=dtype)  # syndromes of weight `level`
    for w in range(1, min(max_weight, positions) + 1):
        j = w - level
        tails = _colex_supports(positions, j)
        tails = tails[tails[:, 0] >= level]
        head_counts = np.array([comb(int(t), level) for t in tails[:, 0]], dtype=np.int64)
        width = table.shape[1] * q**j  # rows per head
        grown = None
        if j == 1 and w < max_weight and comb(positions, w) * width * cols * dtype.itemsize <= _TABLE_BYTES:
            grown = np.empty((comb(positions, w), width, cols), dtype=dtype)
        done = 0  # supports of weight w scanned so far
        for lo, hi, first, stop in _blocks(head_counts, width):
            run = tails[lo:hi]
            counts = head_counts[lo:hi] if hi - lo > 1 else np.array([stop - first])
            syn = contrib[run[:, 0]]
            for i in range(1, j):
                syn = (syn[:, :, None, :] + contrib[run[:, i]][:, None, :, :]).reshape(hi - lo, -1, cols)
                np.minimum(syn, syn - modulus, out=syn)  # reduce mod D; unsigned wrap-around
            tail_of = np.repeat(np.arange(hi - lo), counts)
            head = first + np.arange(tail_of.size) - (np.cumsum(counts) - counts)[tail_of]
            prefix = table[first:stop] if hi - lo == 1 else table[head]
            # A head row plus the tail syndrome is zero iff the row equals its negation.
            negated = ((modulus - syn) % modulus).view(np.uint64)[tail_of]
            zero = np.flatnonzero((prefix.view(np.uint64)[:, :, None, :] == negated[:, None]).all(axis=3))
            if grown is not None:
                dest = grown[done : done + tail_of.size].reshape(tail_of.size, -1, q, cols)
                np.add(prefix[:, :, None, :], syn[tail_of][:, None], out=dest)
                np.minimum(dest, dest - modulus, out=dest)
            done += tail_of.size
            if not zero.size:
                continue
            row, assignment = np.divmod(zero, width)
            support = np.column_stack([_colex_supports(positions, level)[head[row]], run[tail_of[row]]])
            vectors = _place(support, _lex_digits(assignment, q, w), letters, positions)
            outside = _coset_minima(basis, vectors, modulus).any(axis=1)
            if outside.any():
                return w, vectors[int(np.argmax(outside))]
        if grown is not None:
            level, table = w, grown
    return None


def _blocks(head_counts: np.ndarray, width: int):
    """Split the scan of one weight into blocks of about ``_BLOCK_ROWS`` rows.

    Tail i has ``head_counts[i]`` heads of ``width`` rows each.  Yields
    (lo, hi, first, stop): tails lo .. hi-1 with all their heads, or, when
    hi = lo + 1, heads first .. stop-1 of tail lo.
    """
    per_block = max(1, _BLOCK_ROWS // width)
    lo, size = 0, 0
    for i, n in enumerate(head_counts.tolist()):
        if i > lo and size + n > per_block:
            yield lo, i, 0, size
            lo, size = i, 0
        if n > per_block:
            for first in range(0, n, per_block):
                yield i, i + 1, first, min(n, first + per_block)
            lo = i + 1
        else:
            size += n
    if lo < len(head_counts):
        yield lo, len(head_counts), 0, size


def _check_cap(name: str, cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ValueError(f"{name} must be at least 1, got {cap}")


def distance(code: PfCode, max_weight: int | None = None) -> DistanceResult:
    """Exact minimum logical weight by enumeration in increasing weight.

    Supports are scanned in colexicographic order and exponent assignments
    in lexicographic order, so the certificate is reproducible.  Each weight
    is scanned in batches: the syndromes of weight w grow by one column from
    a table of the weight-(w-1) syndromes, which holds
    C(m, w-1) * (D-1)^(w-1) * r bytes (r generators rounded up to a multiple
    of 8, D <= 128), and the zero-syndrome rows of a batch are tested
    against the stabilizer span together.  A table above 128 MiB is not
    kept; higher weights then grow from the last kept table by several
    columns.  Codes with more than 20 modes require an explicit
    ``max_weight``; a capped search that finds nothing reports value None
    (meaning d > cap), never a guess.  A cap below 1 raises ValueError.
    """
    _check_cap("max_weight", max_weight)
    basis = _require_valid(code)
    d, m = code.modulus, code.num_modes
    if max_weight is None:
        if m > FULL_SEARCH_MODE_LIMIT:
            raise ValueError(f"codes with more than {FULL_SEARCH_MODE_LIMIT} modes need an explicit max_weight")
        max_weight = m
    rows = commutation_rows(code)
    # The centralizer is the kernel of x -> rows @ x, so |C| = D^m / |rowspan(rows)|
    # (a matrix and its transpose have the same Smith form).
    if d**m == span_order(ZModMatrix(d, rows)) * _basis_order(basis, d):
        raise InvalidCodeError("code has no logical operators (k = 0)")
    multiples = np.arange(1, d, dtype=np.int64)
    contrib = (multiples[None, :, None] * rows.T[:, None, :]) % d
    found = _first_logical(contrib, multiples[:, None], basis, d, max_weight)
    if found is None:
        return DistanceResult(None, max_weight, None)
    weight, vec = found
    return DistanceResult(weight, max_weight, PfOperator(d, m, 0, tuple(int(x) for x in vec)))


def support_diameter(op: PfOperator, mode_layout: dict[int, tuple[int, ...]] | None) -> int:
    """Layout diameter of the support: largest per-axis span + 1 (0 for identity)."""
    supp = op.support()
    if not supp:
        return 0
    if mode_layout is None:
        return supp[-1] - supp[0] + 1
    coords = np.array([mode_layout[m] for m in supp], dtype=np.int64)
    return int((coords.max(axis=0) - coords.min(axis=0)).max()) + 1


def _layout_coords(code: PfCode) -> np.ndarray:
    if code.mode_layout is None:
        return np.arange(1, code.num_modes + 1, dtype=np.int64)[:, None]
    return np.array([code.mode_layout[m] for m in range(1, code.num_modes + 1)], dtype=np.int64)


def l_con(code: PfCode, max_diameter: int | None = None) -> LconResult:
    """Minimum layout diameter of a parity-preserving logical operator.

    Scans axis-aligned windows of growing side length; within each window
    the parity-zero centralizer elements supported there form a kernel over
    Z_D, and the window admits a logical iff some kernel basis row falls
    outside the stabilizer span.  A ``max_diameter`` below the layout's
    full diameter makes the result a bound (see :class:`LconResult`); a cap
    below 1 raises ValueError.
    """
    _check_cap("max_diameter", max_diameter)
    basis = _require_valid(code)
    d, m = code.modulus, code.num_modes
    coords = _layout_coords(code)
    axes = coords.shape[1]
    anchors = [np.unique(coords[:, a]) for a in range(axes)]
    diameter_bound = int((coords.max(axis=0) - coords.min(axis=0)).max()) + 1
    cap = None
    if max_diameter is not None and max_diameter < diameter_bound:
        diameter_bound = cap = max_diameter
    rows = commutation_rows(code)
    for side in range(1, diameter_bound + 1):
        seen_windows: set[frozenset] = set()
        for corner in itertools.product(*anchors):
            inside = np.ones(m, dtype=bool)
            for a in range(axes):
                inside &= (coords[:, a] >= corner[a]) & (coords[:, a] <= corner[a] + side - 1)
            modes = np.nonzero(inside)[0]
            if modes.size == 0:
                continue
            key = frozenset(int(x) for x in modes)
            if key in seen_windows:
                continue
            seen_windows.add(key)
            constraint = np.vstack([rows[:, modes], np.ones((1, modes.size), dtype=np.int64)])
            kern = kernel_basis(ZModMatrix(d, constraint.T % d))
            for row in kern.array:
                vec = np.zeros(m, dtype=np.int64)
                vec[modes] = row
                reduced = _reduce_against(basis, vec, d)
                if reduced is None or reduced.any():
                    op = PfOperator(d, m, 0, tuple(int(x) for x in vec))
                    return LconResult(support_diameter(op, code.mode_layout), op, cap)
    return LconResult(None, None, cap)


def canonical_phases(code: PfCode) -> PfCode:
    """Repair the generator phases so the code passes the phase check.

    Solving happens over Z_{2D}: the D-th power of each generator and every
    lifted kernel relation must come out phase-free, which is linear in mu
    (see the module docstring).  Among all solutions the lexicographically
    smallest phase vector is returned; infeasibility raises
    :class:`PhaseAssignmentError`.  One Howell form of [system | I] gives
    both a particular solution and the kernel that is the freedom.
    """
    d = code.modulus
    two_d = 2 * d
    gens = code.generators
    for g in gens:
        if not any(g.alpha) and g.mu:
            raise PhaseAssignmentError("a generator is a nontrivial phase times the identity")
    if not gens:
        return code
    powers = _phase_relations(code)
    rhs = -_relation_phases(stabilizer_matrix(code).array, np.zeros(len(gens), dtype=np.int64), powers, d) % two_d
    system = ZModMatrix(two_d, (powers % two_d).T)
    front, freedom = _augmented_basis(system)
    particular = _solve_front(front, rhs, system.num_rows, two_d)
    if particular is None:
        raise PhaseAssignmentError("no consistent phase assignment exists")
    mu = _coset_minima(freedom, particular[None, :], two_d)[0]
    fixed = [PfOperator(d, code.num_modes, int(m), g.alpha) for m, g in zip(mu, gens)]
    return code.with_generators(fixed)


def _independent_phases(code: PfCode) -> PfCode:
    """:func:`canonical_phases` for linearly independent rows over a prime D.

    The left kernel of the rows is then trivial, so the only phase
    relations are the D-th powers k = D e_i: D mu_i == D (D-1) P_ii
    (mod 2D), whose smallest solution is mu_i = (D-1) P_ii mod 2 (0 for
    odd D).  Always solvable; the caller guarantees independence.
    """
    d = code.modulus
    r = len(code.generators)
    powers = d * np.eye(r, dtype=np.int64)
    # With mu = 0, g_i^D has phase -D (D-1) P_ii: 0 or D (mod 2D), its own
    # negative, so mu_i is that phase over D.
    mu = _relation_phases(stabilizer_matrix(code).array, np.zeros(r, dtype=np.int64), powers, d) // d
    fixed = [PfOperator(d, code.num_modes, int(m), g.alpha) for m, g in zip(mu, code.generators)]
    return code.with_generators(fixed)


@dataclass(frozen=True)
class CodeReport:
    """Everything params-style reporting needs, JSON- and table-renderable."""

    modulus: int
    num_modes: int
    flags: ValidationFlags
    group_order: int | None = None
    codespace_dim: int | None = None
    k: int | None = None
    distance: DistanceResult | None = None
    lcon: LconResult | None = None
    logicals: tuple[PfOperator, ...] = ()

    def to_dict(self) -> dict:
        return {
            "D": self.modulus,
            "num_modes": self.num_modes,
            "flags": self.flags.to_dict(),
            "group_order": self.group_order,
            "codespace_dim": self.codespace_dim,
            "k": self.k,
            "distance": self.distance.to_dict() if self.distance else None,
            "l_con": self.lcon.to_dict() if self.lcon else None,
            "logical_basis": [
                {"operator": str(op), "alpha": list(op.alpha), "charge": op.charge()}
                for op in self.logicals
            ],
        }

    def render_table(self) -> str:
        lines = [
            f"modulus D        : {self.modulus}",
            f"modes 2n         : {self.num_modes}",
            f"abelian          : {self.flags.abelian}",
            f"parity_ok        : {self.flags.parity_ok}",
            f"phase_ok         : {self.flags.phase_ok}",
        ]
        if self.group_order is not None:
            lines.append(f"|S|              : {self.group_order}")
            lines.append(f"|C_S|            : {self.codespace_dim}")
            lines.append(f"k                : {self.k if self.k is not None else 'non-integral'}")
        if self.distance is not None:
            shown = self.distance.value if self.distance.exact else f"> {self.distance.cap}"
            lines.append(f"distance d       : {shown}")
            if self.distance.certificate:
                lines.append(f"  certificate    : {self.distance.certificate}")
        if self.lcon is not None:
            if self.lcon.value is not None:
                shown = self.lcon.value
            else:
                shown = "none" if self.lcon.cap is None else f"> {self.lcon.cap}"
            lines.append(f"l_con            : {shown}")
            if self.lcon.certificate:
                lines.append(f"  certificate    : {self.lcon.certificate}")
        if self.logicals:
            lines.append("logical basis    :")
            for op in self.logicals:
                lines.append(f"  {op}  (charge {op.charge()})")
        return "\n".join(lines)


def _integral_log(value: int, base: int) -> int | None:
    k, acc = 0, 1
    while acc < value:
        acc *= base
        k += 1
    return k if acc == value else None


def analyze(
    code: PfCode,
    *,
    with_distance: bool = True,
    with_lcon: bool = True,
    max_weight: int | None = None,
    max_diameter: int | None = None,
) -> CodeReport:
    """Full report for a code; distance and l_con are skipped on invalid codes.

    A cap below 1 raises ValueError whether or not it would be used.
    """
    _check_cap("max_weight", max_weight)
    _check_cap("max_diameter", max_diameter)
    flags = validate(code)
    if not flags.all_ok:
        return CodeReport(code.modulus, code.num_modes, flags)
    order = group_order(code)
    dim = codespace_dim(code)
    k = _integral_log(dim, code.modulus)
    logicals = logical_basis(code)
    dist = None
    lc = None
    if logicals:
        if with_distance and (code.num_modes <= FULL_SEARCH_MODE_LIMIT or max_weight is not None):
            dist = distance(code, max_weight)
        if with_lcon and (code.num_modes <= FULL_SEARCH_MODE_LIMIT or max_diameter is not None):
            lc = l_con(code, max_diameter)
    return CodeReport(code.modulus, code.num_modes, flags, order, dim, k, dist, lc, tuple(logicals))
