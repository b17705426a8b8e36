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

:func:`validate` evaluates these for all pairs and relations at once.  One
solver, ``_phase_solution``, solves the same phase equations for mu from
the rows S and their kernel relations alone: in closed form when S has a
trivial left kernel, so that only the D-th powers constrain mu, and by a
Howell form over Z_2D otherwise.  It is the one phase assignment every
caller uses: :func:`canonical_phases` applies it to a code, and the
builders and the search apply it to rows before they build the code.

A code is immutable, so its validity and the Howell basis of S are computed
once per code object, on first use, from one Howell form of [S | I]
(``_row_forms``): the rows with a pivot among S's columns, cut to those
columns, are the Howell basis of S, and the other rows give the kernel
relations of the phase check.  Both are slices of that form's int64 array,
rows in pivot order, the one format of a Howell basis in every layer (see
:mod:`pfstab.zmod`).  The Howell basis of the centralizer, the kernel of
x -> S L x, is kept too, once computed; ``centralizer_basis``,
``logical_basis`` and ``l_con`` share it.  None of these forms depends on
mu.  One constructor, ``PfCode._from_forms``, builds a code from rows,
phases and forms already at hand, and keeps them: :func:`canonical_phases`
passes on its input's, the builders pass the forms they solved the phases
from, and the search passes a hit's slice of the Howell bases read off
the sorted integer codes of a batch of spans (``_span_bases``) and, for
dependent rows only, the kernel relations.  Such a code keeps its rows and
phases as arrays (``_rows``, ``_mu``) and builds its generator operators
only when ``generators`` is first read; validation, the identity-phase
check of :func:`canonical_phases` and the code file writer read the
arrays, so validating, re-phasing or saving it builds no operator.  A code
from the public constructor reads ``_rows`` and ``_mu`` off its
generators, once.  Every parameter (|S|, k, d,
l_con, the logicals) is defined only for a valid code, so each public
function raises :class:`InvalidCodeError` on an invalid one and otherwise
reads the kept bases, reducing against them with ``zmod._reduce_against``,
the one coset-minimum reducer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .algebra import PfOperator, _exclusive_prefix_sums, _pairing
from .zmod import (
    ZModMatrix,
    _augmented_basis,
    _basis_order,
    _check_range,
    _column_step,
    _howell_basis,  # noqa: F401  (the benchmark's span tracer patches this name here)
    _is_int,
    _reduce_against,
    _solve_front,
    _step_dtype,
    kernel_basis,
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

    Immutable: its validity, stabilizer basis and centralizer basis are
    computed on first use and kept.

    ``mode_layout`` optionally maps 1-indexed modes to integer lattice
    coordinates, at least one each and every one in [-2^31, 2^31), so the
    ``l_con`` scan's int64 differences cannot wrap; when absent, modes sit
    on the 1-D chain i -> (i,).
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
        _check_range(self.modulus, max(self.num_modes, len(self.generators)), "a code")
        if self.mode_layout is not None:
            if set(self.mode_layout) != set(range(1, self.num_modes + 1)):
                raise ValueError("mode_layout must cover modes 1..num_modes")
            dims = {len(c) for c in self.mode_layout.values()}
            if len(dims) != 1:
                raise ValueError("mode_layout coordinates must share one dimension")
            if dims == {0} or not all(_is_int(x) and -(2**31) <= x < 2**31 for c in self.mode_layout.values() for x in c):
                raise ValueError("mode_layout coordinates must be integers in [-2^31, 2^31), at least one per mode")

    @property
    def n(self) -> int:
        return self.num_modes // 2

    def __getstate__(self) -> dict:
        """Pickle the fields only: an unpickled code recomputes what it keeps
        on first use, so its rows stay read-only."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_generators(self, generators) -> "PfCode":
        return PfCode(self.modulus, self.num_modes, tuple(generators), self.mode_layout)

    @classmethod
    def _from_forms(cls, modulus: int, num_modes: int, rows: np.ndarray, mu: np.ndarray, forms,
                    mode_layout=None, **kept) -> "PfCode":
        """The code with generators w^{mu_i} g^{rows_i} and ``mode_layout``.

        It keeps ``rows`` as S and ``mu`` as ``_mu`` (both made read-only),
        ``forms`` as ``_row_forms`` (the Howell bases of S and of its left
        kernel) and ``kept``, any of ``_comm_rows`` and ``_centralizer``;
        none but ``_mu`` depends on mu.  The caller vouches that they are
        what their names say, that ``rows`` holds residues mod D, that
        ``mu`` lies in [0, 2D) and that the fields pass ``__post_init__``'s
        checks, so the fields are set directly.  The generators are left
        unbuilt: the first read of ``generators`` builds them from the rows
        and phases without normalising them again (``__getattr__``).
        """
        rows.setflags(write=False)
        mu.setflags(write=False)
        code = object.__new__(cls)
        code.__dict__.update(modulus=modulus, num_modes=num_modes, mode_layout=mode_layout,
                             _rows=rows, _mu=mu, _row_forms=forms, **kept)
        return code

    def __getattr__(self, name: str):
        """The generators of a code from ``_from_forms``, built from ``_rows``
        and ``_mu`` on their first read and kept; normal lookup finds them after."""
        if name != "generators" or "_mu" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        generators = tuple(PfOperator._reduced(self.modulus, self.num_modes, x, tuple(a))
                           for x, a in zip(self._mu.tolist(), self._rows.tolist()))
        self.__dict__["generators"] = generators
        return generators

    @cached_property
    def _rows(self) -> np.ndarray:
        """The generators' exponent rows S, one read-only r x m int64 array."""
        rows = np.array([g.alpha for g in self.generators], dtype=np.int64).reshape(-1, self.num_modes)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _mu(self) -> np.ndarray:
        """The generators' phases mu, one read-only int64 array of length r."""
        mu = np.array([g.mu for g in self.generators], dtype=np.int64)
        mu.flags.writeable = False
        return mu

    @cached_property
    def _comm_rows(self) -> np.ndarray:
        """S L mod D, read-only: the syndrome of x is (S L) x."""
        rows = _pairing(self._rows, self.modulus)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _centralizer(self) -> np.ndarray:
        """Howell basis of the centralizer {x : (S L) x == 0 (mod D)}, read-only rows."""
        rows = kernel_basis(ZModMatrix(self.modulus, self._comm_rows.T)).array
        rows.flags.writeable = False
        return rows

    @cached_property
    def _row_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_row_forms` of the rows S."""
        return _row_forms(self._rows, self.modulus)

    @cached_property
    def _flags(self) -> ValidationFlags:
        """The closed forms of the module docstring, for every generator pair,
        every D-th power and every kernel relation at once."""
        d = self.modulus
        rows = self._rows
        if not len(rows):
            return ValidationFlags(True, True, True)
        abelian = not ((self._comm_rows @ rows.T) % d).any()
        parity_ok = not (rows.sum(axis=1) % d).any()
        phase_ok = not _relation_phases(rows, self._mu, _phase_relations(self._row_forms[1], d), d).any()
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
    return ZModMatrix(code.modulus, code._rows)


def commutation_rows(code: PfCode) -> np.ndarray:
    """Rows S @ L mod D: the syndrome of x is (S @ L) @ x.  The code keeps
    this array, so it is read-only."""
    return code._comm_rows


def _row_forms(rows: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(Howell basis of ``rows``, Howell basis of their left kernel), both
    slices of the one Howell form of [rows | I], int64 rows in pivot order."""
    front, kernel = _augmented_basis(ZModMatrix(modulus, rows))
    return front[:, : rows.shape[1]], kernel


def _relation_phases(smat: np.ndarray, mu: np.ndarray, powers: np.ndarray, modulus: int) -> np.ndarray:
    """Phase exponent in Z_2D of g_1^{k_1} ... g_r^{k_r} for each row k of ``powers``.

    The generators are w^{mu_i} g^{alpha_i} with ``smat`` rows alpha_i; the
    exponent is k . mu - sum_i k_i (k_i - 1) P_ii - 2 sum_{i<j} k_i k_j P_ij
    with P_ij = alpha_i . prefix(alpha_j) (see the module docstring).
    """
    two_d = 2 * modulus
    prefix = _exclusive_prefix_sums(smat)
    pairs = (smat @ prefix.T) % modulus
    later = (powers @ np.triu(pairs, 1).T) % modulus  # row k, entry i: sum_{j>i} P_ij k_j
    cross = (powers * later).sum(axis=1)
    own = ((powers * (powers - 1)) % two_d) @ np.diag(pairs)
    return (powers @ mu - own - 2 * cross) % two_d


def _phase_relations(relations: np.ndarray, modulus: int) -> np.ndarray:
    """Exponent rows k whose products the phase check needs phase-free:
    D e_i for each of the r generators, then ``relations`` (r columns), a
    kernel basis of the rows."""
    return np.concatenate([modulus * np.eye(relations.shape[1], dtype=np.int64), relations])


def validate(code: PfCode) -> ValidationFlags:
    """Check the three defining conditions; never raises.

    Evaluates the closed forms of the module docstring once per code object.
    """
    return code._flags


def _require_valid(code: PfCode) -> np.ndarray:
    """The Howell basis of the stabilizer rows of a valid code, rows in pivot order."""
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
    """Howell basis of {x : S L x^T == 0 (mod D)}, the exponent space of the centralizer.

    The code keeps this basis, so its array is read-only.
    """
    _require_valid(code)
    return ZModMatrix(code.modulus, code._centralizer)


def syndrome(code: PfCode, error: PfOperator) -> tuple[int, ...]:
    """Commutation exponent of each generator with the error operator."""
    if error.modulus != code.modulus or error.num_modes != code.num_modes:
        raise ValueError("error operator does not match the code")
    return tuple(int(x) for x in (code._comm_rows @ np.asarray(error.alpha, dtype=np.int64)) % code.modulus)


def is_logical(code: PfCode, op: PfOperator) -> bool:
    """True iff op centralizes the stabilizer but is not a stabilizer element."""
    basis = _require_valid(code)
    if op.modulus != code.modulus or op.num_modes != code.num_modes:
        raise ValueError("operator does not match the code")
    if any(syndrome(code, op)):
        return False
    return bool(_reduce_against(basis, np.asarray(op.alpha, dtype=np.int64), code.modulus).any())


def logical_basis(code: PfCode) -> list[PfOperator]:
    """Generating logical representatives of the centralizer modulo the stabilizer.

    Each Howell-basis row of the centralizer is reduced to the
    lexicographically smallest element of its stabilizer coset; zero cosets
    drop out.  The images generate the quotient.
    """
    return [PfOperator(code.modulus, code.num_modes, 0, tuple(row.tolist())) for row in _logical_rows(code)]


def _logical_rows(code: PfCode) -> np.ndarray:
    """The exponent rows of :func:`logical_basis`, in its order."""
    reps = _reduce_against(_require_valid(code), code._centralizer, code.modulus)
    reps = reps[reps.any(axis=1)]
    # Each row as one byte string: np.unique(axis=0) takes about ten times as long on a few rows.
    first = np.unique(reps.view(np.dtype((np.void, reps.itemsize * reps.shape[1]))).ravel(), return_index=True)[1]
    return reps[np.sort(first)]


# -- minimum-weight enumeration ------------------------------------------------
#
# One enumerator serves every minimum-weight scan: weight w ascending, the
# supports of weight w in colexicographic order, and on each support the
# assignments of letters (nonzero exponents, or qudit site operators) in
# lexicographic order.  A weight-w vector splits into a low part on its
# w1 = w // 2 smallest positions and a high part on the other w2 = w - w1;
# its syndrome is zero iff the high syndrome is minus the low one.  So the
# scan looks up the weight-w2 syndromes, in blocks of whole supports in colex
# order, among the negated weight-w1 syndromes, sorted by a hash of their
# words.  The lows below a block's highs are a colex prefix, and colex order
# weighs the largest positions first, so the first block that holds a
# logical holds the first logical.

# Weight-w2 rows per block (at least one support's), and per streamed table block.
_BLOCK_ROWS = 1 << 16
# Largest kept half table, r syndrome bytes plus 24 lookup bytes a row; the
# low supports past it are built in blocks for each block of the other half.
_TABLE_BYTES = 1 << 27
# Largest one-letter table (8 * m * (D-1) * r bytes) that ``distance`` builds.
# Its own name, so that setting _TABLE_BYTES to 0 (keep no table, as a test
# does) does not refuse every scan.
_LETTER_TABLE_BYTES = _TABLE_BYTES


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


def _weight_rows(modulus: int, universe: int, lo: int, hi: int) -> np.ndarray:
    """Every vector in Z_D^universe of weight lo .. hi (none above ``universe``), one int64 row each.

    Rows run by weight, then support in colex order, then nonzero letters in
    lexicographic order.
    """
    out = [np.zeros((0, universe), dtype=np.int64)]
    for w in range(lo, min(hi, universe) + 1):
        supports = _colex_supports(universe, w)
        letters = _lex_digits(np.arange((modulus - 1) ** w), modulus - 1, w)
        out.append(_place(np.repeat(supports, len(letters), axis=0), np.tile(letters, (len(supports), 1)),
                          np.arange(1, modulus)[:, None], universe))
    return np.vstack(out)


def _syndromes(contrib: np.ndarray, supports: np.ndarray, modulus: int) -> np.ndarray:
    """Syndrome of each letter assignment on each support, rows in (support, lex) order."""
    syn = np.zeros((len(supports), 1, contrib.shape[2]), dtype=contrib.dtype)
    for i in range(supports.shape[1]):
        syn = (syn[:, :, None] + contrib[supports[:, i]][:, None]).reshape(len(syn), -1, syn.shape[2])
        np.minimum(syn, syn - modulus, out=syn)  # reduce mod D; unsigned wrap-around
    return syn.reshape(-1, syn.shape[2])


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of whole 8-byte words; equal rows hash alike."""
    hashes = np.zeros(len(rows), dtype=np.uint64)
    for word in rows.view(np.uint64).T:
        hashes ^= word
        hashes *= np.uint64(0x9E3779B97F4A7C15)
        hashes ^= hashes >> np.uint64(29)
    return hashes


def _half_table(rows: np.ndarray):
    """``rows`` as words, their hashes sorted, the sorting order, and the start
    of each bucket of hashes that agree on their top bits."""
    hashes = _row_hashes(rows)
    order = np.argsort(hashes)
    hashes = hashes[order]
    shift = 64 - max(1, len(hashes).bit_length() - 1)
    starts = np.zeros((1 << (64 - shift)) + 1, dtype=np.int64)
    np.cumsum(np.bincount((hashes >> np.uint64(shift)).astype(np.intp), minlength=len(starts) - 1), out=starts[1:])
    return rows.view(np.uint64), hashes, order, starts, np.uint64(shift)


def _lookup(table, rows: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (``offset`` + table row, query row) of equal rows.  Candidates
    share a bucket and a hash, then compare whole, since hashes can collide."""
    words, hashes, order, starts, shift = table
    query_hashes = _row_hashes(rows)
    bucket = (query_hashes >> shift).astype(np.intp)
    first, counts = starts[bucket], starts[bucket + 1] - starts[bucket]
    query = np.repeat(np.arange(len(rows)), counts)
    at = np.arange(len(query)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    hit = hashes[at] == query_hashes[query]
    query, row = query[hit], order[at[hit]]
    same = (words[row] == rows.view(np.uint64)[query]).all(axis=1)
    return row[same] + offset, query[same]


def _first_logical(contrib: np.ndarray, letters: np.ndarray, basis: np.ndarray, modulus: int, max_weight: int):
    """First undetected error outside the stabilizer span, by weight, then colex/lex order.

    ``contrib[c, l]`` is the syndrome of letter l at position c and
    ``letters[l]`` its vector components; ``basis`` is the Howell basis of
    the stabilizer rows, in pivot order.  Returns (weight, vector), or
    None when every weight up to ``max_weight`` is clear.

    A block's zero-syndrome vectors, the pairs whose syndromes cancel and
    whose low positions come first, are reduced at once, in scan order.
    The table of lows is kept over a colex prefix that at least doubles when
    a block reaches past it, up to ``_TABLE_BYTES``; lows past that are
    built in blocks for each block.
    """
    positions, q, r = contrib.shape
    # Unsigned entries wide enough for a sum of two residues, and rows padded
    # to whole 8-byte words, so that a row hashes and compares as a few integers.
    dtype = np.min_scalar_type(2 * modulus - 2)
    per_word = 8 // dtype.itemsize
    padded = np.zeros((positions, q, max(per_word, -(-r // per_word) * per_word)), dtype=dtype)
    padded[:, :, :r] = contrib % modulus
    contrib, negated = padded, (modulus - padded) % modulus
    level = -1
    for w in range(1, min(max_weight, positions) + 1):
        w1, w2 = w // 2, w - w // 2
        ql, qh = q**w1, q**w2
        lows, highs = _colex_supports(positions, w1), _colex_supports(positions, w2)
        if level != w1:  # a new low weight: its kept colex prefix starts empty
            level, kept, table = w1, 0, None
            cap = min(len(lows), _TABLE_BYTES // (ql * (padded.shape[2] * dtype.itemsize + 24)))
        highs = highs[highs[:, 0] >= w1]
        step = max(1, _BLOCK_ROWS // qh)
        for start in range(0, len(highs), step):
            high = highs[start : start + step]
            syn = _syndromes(contrib, high, modulus)
            below, low_step = comb(int(high[:, 0].max()), w1), max(1, _BLOCK_ROWS // ql)  # lows below some high
            if kept < min(below, cap):  # grow the kept prefix, at least doubling it
                kept = min(cap, max(below, 2 * kept))
                table = _half_table(_syndromes(negated, lows[:kept], modulus))
            found = [_lookup(table, syn, 0)] if kept else []
            found += (_lookup(_half_table(_syndromes(negated, lows[lo : min(lo + low_step, below)], modulus)), syn, lo * ql)
                      for lo in range(kept, below, low_step))
            low, row = (np.concatenate(part) for part in zip(*found))
            keep = np.flatnonzero(lows.max(axis=1, initial=-1)[low // ql] < high[row // qh, 0])
            if not keep.size:
                continue
            keep = keep[np.lexsort((row[keep] % qh, low[keep], row[keep] // qh))]
            low, row = low[keep], row[keep]
            support = np.column_stack([lows[low // ql], high[row // qh]])
            digits = np.column_stack([_lex_digits(low % ql, q, w1), _lex_digits(row % qh, q, w2)])
            vectors = _place(support, digits, letters, positions)
            outside = _reduce_against(basis, vectors, modulus).any(axis=1)
            if outside.any():
                return w, vectors[int(np.argmax(outside))]
    return None


def _check_cap(name: str, cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ValueError(f"{name} must be at least 1, got {cap}")


def distance(code: PfCode, max_weight: int | None = None) -> DistanceResult:
    """Exact minimum logical weight by enumeration in increasing weight.

    Supports are scanned in colexicographic order and exponent assignments
    in lexicographic order, so the certificate is reproducible.  Weight w
    joins two halves: the vectors of weight w - w1, in blocks, are looked up
    in a kept table of the syndromes of weight w1 = w // 2, sorted by hash,
    that grows over the supports the blocks reach, (D-1)^w1 * (r + 24) bytes
    each (r generators rounded up to a multiple of 8, D <= 128).  Supports
    past 128 MiB are built in blocks for each block.  The one-letter table,
    8 * m * (D-1) * r bytes, must itself fit in 128 MiB, else ValueError.  Codes with more than 20 modes require an
    explicit ``max_weight``; a capped search that finds nothing reports
    value None (meaning d > cap), never a guess.  A cap below 1 raises
    ValueError.
    """
    _check_cap("max_weight", max_weight)
    basis = _require_valid(code)
    d, m = code.modulus, code.num_modes
    if max_weight is None:
        if m > FULL_SEARCH_MODE_LIMIT:
            raise ValueError(f"codes with more than {FULL_SEARCH_MODE_LIMIT} modes need an explicit max_weight")
        max_weight = m
    # The centralizer is the kernel of x -> S L x, so |C| = D^m / |rowspan(S L)|
    # (a matrix and its transpose have the same Smith form), and L has
    # determinant 1 for even m, so |rowspan(S L)| = |S|.  Hence C = S, that
    # is k = 0, exactly when |S| = D^n.
    if codespace_dim(code) == 1:
        raise InvalidCodeError("code has no logical operators (k = 0)")
    table_bytes = 8 * m * (d - 1) * len(code._rows)
    if table_bytes > _LETTER_TABLE_BYTES:
        raise ValueError(f"the distance scan's letter table would take {table_bytes} bytes, over {_LETTER_TABLE_BYTES}")
    rows = code._comm_rows
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


# Bytes of window rows one batched elimination takes: the windows are
# decided in chunks of corners of this size, one corner at least.
_WINDOW_BYTES = 1 << 22


def _first_window(block: np.ndarray, spanned: int, sides: np.ndarray, n: int, best: tuple[int, int], offset: int):
    """The least (side, corner) that ``best`` or a corner of ``block`` reaches.

    ``block[:, b]`` holds the rows of corner ``offset + b``, entries in
    [0, n), on the modes of its largest window in the order in which they
    join the window as the side grows (column j joins at side
    ``sides[b, j]``).  The window of side s is cut from the first columns,
    and it holds a logical iff some carried row ``block[spanned:, b]`` cut
    there lies outside the span of the spanning rows ``block[:spanned, b]``
    cut alike.  The block is overwritten.

    One elimination over Z_n runs over all corners at once, a
    :func:`zmod._column_step` per column.  After the step at column j the
    spanning rows span the part of the original span that is zero on the
    columns done, and a carried row is left with its entry mod the pivot's
    gcd g.  So a carried row lies in the span of a window's columns iff it
    keeps no nonzero entry there, and one that does marks the corner's
    window at that column's side.  A corner is dropped once it cannot beat
    the best (side, corner) found.
    """
    live = np.arange(block.shape[1])
    for j in range(block.shape[2]):
        side = sides[live, j]
        keep = (side < best[0]) | ((side == best[0]) & (live + offset < best[1]))
        if not keep.all():
            block, live = block[:, keep], live[keep]
            if not live.size:
                break
        _column_step(block, spanned, j, n)
        marked = np.flatnonzero(block[spanned:, :, j].any(axis=0))
        if marked.size:
            best = min(best, *zip(sides[live[marked], j].tolist(), (live[marked] + offset).tolist()))
    return best


def _window_logical(code: PfCode, basis: np.ndarray, modes: np.ndarray) -> PfOperator | None:
    """First Howell kernel row of window ``modes``'s parity-zero centralizer
    outside the span of ``basis``, the stabilizer's Howell basis, or None."""
    d, m = code.modulus, code.num_modes
    constraint = np.vstack([code._comm_rows[:, modes], np.ones((1, modes.size), dtype=np.int64)])
    kernel = kernel_basis(ZModMatrix(d, constraint.T % d)).array
    vectors = np.zeros((len(kernel), m), dtype=np.int64)
    vectors[:, modes] = kernel
    outside = _reduce_against(basis, vectors, d).any(axis=1)
    if not outside.any():
        return None
    return PfOperator(d, m, 0, tuple(int(x) for x in vectors[int(np.argmax(outside))]))


def l_con(code: PfCode, max_diameter: int | None = None) -> LconResult:
    """Minimum layout diameter of a parity-preserving logical operator.

    Scans axis-aligned windows by side length, then corner in lexicographic
    order, for the first that holds a parity-preserving logical.  A window W
    holds one iff its kernel K_W = {x on W : (S L) x = 0, 1 . x = 0} leaves
    the stabilizer span.  The stabilizer span is the set of x with
    l L x = 0 for every logical row l (it is the centralizer's annihilator
    under L), and over Z_D the vectors on W that annihilate K_W are exactly
    the row span of [S L; 1] cut to W (a double annihilator).  So W holds
    one iff some (l L)|_W lies outside that span: a yes-or-no that needs no
    kernel.  The windows of one corner grow with the side, so one batched
    elimination over all corners, with each corner's modes in the order
    they join its window, decides every side at once (see
    :func:`_first_window`).  Only the first window that holds a logical
    gets a Howell kernel: its first kernel row outside the stabilizer span
    is the certificate.  A ``max_diameter`` below the layout's full
    diameter makes the result a bound (see :class:`LconResult`); a cap
    below 1 raises ValueError.
    """
    _check_cap("max_diameter", max_diameter)
    basis = _require_valid(code)
    d, m = code.modulus, code.num_modes
    coords = _layout_coords(code)
    diameter_bound = int((coords.max(axis=0) - coords.min(axis=0)).max()) + 1
    cap = None
    if max_diameter is not None and max_diameter < diameter_bound:
        diameter_bound = cap = max_diameter
    logicals = _pairing(_logical_rows(code), d)
    if not len(logicals):
        return LconResult(None, None, cap)
    corners = np.array(list(itertools.product(*(np.unique(column) for column in coords.T))), dtype=np.int64)
    # joins[c, mode]: the least side whose window at corner c holds the mode
    # (diameter_bound + 1 when none up to the bound does).
    offsets = coords - corners[:, None]
    joins = np.where((offsets >= 0).all(axis=2), np.minimum(offsets.max(axis=2) + 1, diameter_bound + 1),
                     diameter_bound + 1)
    order = np.argsort(joins, axis=1, kind="stable")
    width = int((joins <= diameter_bound).sum(axis=1).max())
    sides = np.take_along_axis(joins, order, axis=1)[:, :width]
    columns = np.where(sides <= diameter_bound, order[:, :width], m)
    # Rows [S L; 1; l L] over the modes, and a zero column m for padding, in
    # the smallest integer type that holds the elimination step's
    # intermediates, which stay below 2 D^2.
    spanned = len(code._rows) + 1
    dtype = _step_dtype(d)
    table = np.zeros((spanned + len(logicals), m + 1), dtype=dtype)
    table[: spanned - 1, :m], table[spanned - 1, :m], table[spanned:, :m] = code._comm_rows, 1, logicals
    # No window yet.  Padded columns join at side diameter_bound + 1, and no corner
    # index is below 0, so a corner whose remaining columns are padding is dropped.
    best = (diameter_bound + 1, 0)
    step = max(1, _WINDOW_BYTES // (dtype.itemsize * len(table) * width))
    for start in range(0, len(corners), step):
        best = _first_window(table[:, columns[start : start + step]], spanned, sides[start : start + step], d, best, start)
    side, corner = best
    if side > diameter_bound:
        return LconResult(None, None, cap)
    op = _window_logical(code, basis, np.flatnonzero(joins[corner] <= side))
    if op is None:
        raise AssertionError("the window test and the window kernel disagree")
    return LconResult(support_diameter(op, code.mode_layout), op, cap)


def canonical_phases(code: PfCode) -> PfCode:
    """Repair the generator phases so the code passes the phase check.

    The phases are :func:`_phase_solution` of the rows and their kernel
    relations: the lexicographically smallest phase vector, or
    :class:`PhaseAssignmentError` when none exists.  The returned code
    keeps the input's mu-free forms (see :meth:`PfCode._from_forms`).
    """
    if code._mu[~code._rows.any(axis=1)].any():
        raise PhaseAssignmentError("a generator is a nontrivial phase times the identity")
    if not len(code._rows):
        return code
    mu = _phase_solution(code._rows, code._row_forms[1], code.modulus)
    kept = {name: code.__dict__[name] for name in ("_comm_rows", "_centralizer") if name in code.__dict__}
    return PfCode._from_forms(code.modulus, code.num_modes, code._rows, mu, code._row_forms, code.mode_layout, **kept)


def _phase_solution(rows: np.ndarray, relations: np.ndarray, modulus: int) -> np.ndarray:
    """The lexicographically smallest phases mu that make the generators
    w^{mu_i} g^{rows_i} pass the phase check, given ``relations``, a basis
    of the rows' left kernel.

    Solving happens over Z_2D: the D-th power of each generator and every
    lifted kernel relation must come out phase-free, which is linear in mu
    (see the module docstring).  With no relations (independent rows) only
    the D-th powers constrain mu: D mu_i == D (D-1) P_ii (mod 2D), so mu_i
    is P_ii mod 2 for even D and 0 for odd D; ``rows`` may then also be a
    stack (..., r, m) of independent row sets, phased at once.  Otherwise
    one Howell form of [system | I] gives both a particular solution and
    the kernel that is the freedom; infeasibility raises
    :class:`PhaseAssignmentError`.
    """
    d = modulus
    if not len(relations):
        if d % 2:
            return np.zeros(rows.shape[:-1], dtype=np.int64)
        return (rows * _exclusive_prefix_sums(rows)).sum(axis=-1) % 2
    two_d = 2 * d
    powers = _phase_relations(relations, d)
    rhs = -_relation_phases(rows, np.zeros(len(rows), dtype=np.int64), powers, d) % two_d
    system = ZModMatrix(two_d, (powers % two_d).T)
    front, freedom = _augmented_basis(system)
    particular = _solve_front(front, rhs, system.num_rows, two_d)
    if particular is None:
        raise PhaseAssignmentError("no consistent phase assignment exists")
    return _reduce_against(freedom, particular, two_d)


def _span_bases(codes: np.ndarray, modulus: int, num_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Howell bases over Z_D of a batch of spans, read off the sorted
    integer codes ``x @ (D^(m-1), ..., D, 1)`` of their elements, one span
    per row of ``codes``.

    The Howell row with pivot j is the least span element whose first
    nonzero entry is at j: its entry there is the pivot, the least nonzero
    value any such element has at j, and its later entries are reduced as
    far as the span allows (the Howell property).  Lexicographic order on
    vectors is integer order on codes, and the elements whose first
    nonzero entry is at j are those with codes in [D^(m-1-j), D^(m-j)), so
    the row is the first code of that range, if any.  One ``searchsorted``
    finds the ranges of every span, its codes offset by its row number
    times D^m.  Returns a boolean (spans, m) array marking each span's
    pivot columns, and the basis rows of span 0, then span 1, and so on,
    each span's in pivot order, as one contiguous int64 array.
    """
    shift = modulus**num_modes * np.arange(len(codes), dtype=np.int64)[:, None]
    bounds = shift + modulus ** np.arange(num_modes, -1, -1, dtype=np.int64)
    edges = np.searchsorted((codes + shift).ravel(), bounds.ravel()).reshape(bounds.shape)
    pivots = edges[:, :-1] > edges[:, 1:]
    return pivots, _lex_digits(codes.ravel()[edges[:, 1:][pivots]], modulus, num_modes)


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
