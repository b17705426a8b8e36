"""Exhaustive and randomized search for parafermion codes with target (k, d).

The exhaustive engine enumerates generator tuples over the parity-zero
exponent vectors in lexicographic order, pruning on the first commutation
failure, on span-growth failure, and (for prime D) on non-canonical tuples:
every stabilizer span contains exactly one generating tuple picked greedily
by lexicographic minimality, so each candidate code is visited once.  The
canonical test is incremental (McKay's canonical augmentation): a parent
tuple has already passed it and candidate indices only grow, so a child
adding generator g to span S is canonical exactly when g is the minimum of
the new cosets S + c*g, c = 1 .. D-1.  For prime D that minimum is g
exactly when g is zero on every pivot column of S and its leading digit is
1, and the pivot columns of S are the leading columns of the tuple's
generators, so the test reads two per-candidate arrays (a support bitmask
and whether the leading digit is 1) against one bitmask per node.

A full tuple meets one acceptance rule for every modulus.  Its span must
have D^(n-k) elements, which fixes k; a span met again under another
generating tuple (no symmetry reduction, or randomized mode) is skipped;
then two prefilters fix d: every weight-(< d) vector that commutes with
the tuple lies in the span, and some weight-d one does not.  One kernel,
``_Engine._leaves``, decides all of this for a block of full tuples: the
canonical grandchildren of a block of a node's children, a fixed-size
chunk at a time, or a chunk's independent samples.  It runs the
prefilters in two stages, the weight-(< d) vectors for every tuple of the
right span size and then the weight-d ones only for the tuples that
passed, since most tuples fail on a vector of lower weight.  The tuple is
commuting and parity-zero by construction, so acceptance only assigns
phases and keys the span, in two steps.  ``_Engine._accept``
records a passing tuple: its node, its generator indices and a copy of
its sorted span codes.  A span of D^r elements means independent rows
(always so for prime D), whose phases come in closed form and always
exist.  A dependent tuple (composite D with r > n - k) takes a Howell
form of its rows and a phase solve over Z_2D when it is recorded, since
no solution is the only rejection left and the ``max_hits`` stop counts
only hits.  ``_Engine._settle`` then builds the recorded hits together,
when a run returns or stops and whenever their codes pass
``_BLOCK_ROWS``.  The key hashes the span's Howell basis, read off its
sorted integer codes (``code._span_bases``): the row with pivot j is the
least span code in [D^(m-1-j), D^(m-j)), found for every span by one
``searchsorted``.  The closed-form phases of all independent tuples come
from one product (``code._phase_solution``, which ``canonical_phases``
uses too), and each hit's code is built once and keeps the basis it was
keyed by.

Each exponent vector v carries the base-D integer code ``v @ place`` with
``place = D^(m-1), ..., D, 1``; lexicographic order on vectors is integer
order on codes.  A nonzero parity-zero vector with code c is candidate
``c // D - 1``, so the span members to clear from a commutation mask are
read off the span's codes, and span membership in the prefilters is one
``searchsorted`` over sorted codes.  The engine tests all children of a
node together and builds span rows only for the children that pass, a
bounded block at a time; the block's commutation masks, or its full
tuples' prefilters, come from one float64 product read through a
divisibility lookup table.  A grown span lists each element equally
often, 0 among them, so its zero codes count each element's copies: one
rule, for every D, gives a child's distinct rows, a chunk's rows and the
span-size test.  The engine does not recurse into a
leaf-parent, a node whose children are full tuples: the node above it
lists every (child, grandchild) pair of a block of its children, tests
them all for canonicity at once, and cuts the full tuples that remain,
in walk order, into chunks of one size, whichever children they fall
under; ``_leaves`` decides a chunk in one call, given each tuple's prefix
span and prefilter mask, so a leaf-parent without a canonical child costs
only its node.  Passing children are explored in index order, and the
node counter advances over each run of failing children in one step, so
node indices, the budget stop and the ``max_hits`` stop are those of a
one-node-at-a-time walk.  Randomized mode draws a chunk of
``_BLOCK_ROWS`` / (r m) samples at once (``_floyd_draw``, r raw PCG64
words per sample, in order), tests their commutation one generator
against the later ones at a time (``_Engine._commuting``) and builds
every span code of the commuting ones in one kernel, a coefficient table
times their rows (``_find_randomized``).

With ``--threads N`` the first-generator range is cut into 4N blocks,
run by at most N worker processes (no more than the blocks or the CPUs),
each over a pipe of its own; a block starts as another finishes.
Results are replayed in block order with the serial stop rule as they
arrive; once the replay stops, the workers are terminated.  A finished
enumeration that found nothing is returned as an explicit nonexistence
certificate; randomized mode never claims nonexistence.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields, replace
from math import comb

import numpy as np

from .algebra import _pairing
from .code import _BLOCK_ROWS, PfCode, PhaseAssignmentError, _lex_digits, _phase_solution, _span_bases, _weight_rows

# The acceptance test calls none of these; the benchmark's span tracer
# (perfbench/spans.py) still patches these names here.
from .code import canonical_phases, codespace_dim, distance, validate  # noqa: F401
from .zmod import ZModMatrix, _is_int, _is_prime, kernel_basis

__all__ = [
    "SearchSpec",
    "SearchCertificate",
    "BudgetExceededError",
    "find_codes",
    "canonical_equivalence_key",
]

MAX_CANDIDATES = 400_000
DEFAULT_TUPLE_BUDGET = 200_000_000
# Recorded in every randomized certificate: names the sampling stream, which is not a setting.
SAMPLER = "floyd-pcg64-raw-v1"
# ``--threads N`` cuts the first-generator range into this many blocks per requested thread.
_BLOCKS_PER_THREAD = 4
# Entries of the largest divisibility lookup table the engine builds (one byte each);
# past it, products are reduced by ``np.fmod``.
_DIVISIBLE_TABLE = 1 << 22


class BudgetExceededError(RuntimeError):
    """The enumeration went past the configured tuple budget."""


@dataclass(frozen=True)
class SearchSpec:
    """What to search for and how.

    ``generator_count`` defaults to n - k, the right number for prime D;
    composite moduli need an explicit choice.  ``max_hits = 0`` means
    exhaust the space and keep every hit.
    """

    modulus: int
    num_modes: int
    target_k: int
    target_d: int
    mode: str = "exhaustive"
    seed: int = 0
    samples: int = 20_000
    generator_count: int | None = None
    symmetry_reduction: bool = True
    max_hits: int = 1
    max_tuples: int = DEFAULT_TUPLE_BUDGET

    def __post_init__(self) -> None:
        if not _is_int(self.modulus) or self.modulus < 2:
            raise ValueError("D (modulus) must be an integer >= 2")
        if not _is_int(self.num_modes) or self.num_modes % 2 or self.num_modes < 2:
            raise ValueError("num_modes must be even and >= 2")
        for name, low in (("target_k", 0), ("target_d", 1), ("seed", 0), ("samples", 0),
                          ("max_hits", 0), ("max_tuples", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.mode not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if not isinstance(self.symmetry_reduction, bool):
            raise ValueError("symmetry_reduction must be true or false")
        if self.generator_count is None:
            # An oversized space exits when the search starts, whatever D is.
            with suppress(BudgetExceededError):
                _candidate_count(self.modulus, self.num_modes)
                if not _is_prime(self.modulus):
                    raise ValueError("generator_count is required for composite moduli")
            if self.target_k >= self.num_modes // 2:
                raise ValueError(f"target_k must be below n = {self.num_modes // 2}: generator_count defaults to n - target_k")
            object.__setattr__(self, "generator_count", self.num_modes // 2 - self.target_k)
        if not _is_int(self.generator_count) or self.generator_count < 1:
            raise ValueError("generator_count must be an integer >= 1")
        if self.mode == "randomized":
            with suppress(BudgetExceededError):  # an oversized space exits when the search starts
                if self.generator_count > _candidate_count(self.modulus, self.num_modes):
                    raise ValueError("generator_count exceeds the number of candidate vectors")

    def to_dict(self) -> dict:
        """Every field by name, ``modulus`` written as ``D``, so no field is left out of a certificate."""
        return {"D" if f.name == "modulus" else f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        """The spec that ``data`` describes: the keys of :meth:`to_dict`, with
        ``modulus`` accepted for ``D``.  Any other key, both ``D`` and
        ``modulus``, or a missing field without a default raises ValueError,
        so no field is silently dropped or left at its default."""
        if "sampler" in data:
            raise ValueError("'sampler' is recorded in randomized certificates; it is not a search setting")
        allowed = {"D", *(f.name for f in fields(cls))}
        for key in data:
            if key not in allowed:
                raise ValueError(f"unknown search spec field {key!r}")
        known = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        if "D" in data:
            if "modulus" in data:
                raise ValueError("the spec gives both 'D' and 'modulus'; give one")
            known["modulus"] = data["D"]
        for f in fields(cls):
            if f.name not in known and f.default is MISSING:
                raise ValueError(f"missing search spec field {'D' if f.name == 'modulus' else f.name!r}")
        return cls(**known)


@dataclass
class SearchCertificate:
    """Reproducible record of what a search did and saw."""

    spec: dict
    candidate_count: int
    estimated_tuples: int
    tuples_examined: int = 0
    hits: list = field(default_factory=list)
    exhausted: bool = False
    early_stopped: bool = False
    budget_exceeded: bool = False
    wall_time_s: float = 0.0
    threads: int = 1

    def to_dict(self, canonical: bool = False) -> dict:
        """Every field by name, signed; ``wall_time_s`` is left out of the
        signature and of a canonical dict, and a randomized search adds its ``sampler``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time_s"}
        if self.spec["mode"] == "randomized":
            payload["sampler"] = SAMPLER
        payload["signature"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        if not canonical:
            payload["wall_time_s"] = self.wall_time_s
        return payload


def canonical_equivalence_key(code: PfCode) -> str:
    """Equal keys iff equal stabilizer spans: the Howell form of the row matrix,
    as the code keeps it, rows stacked in pivot order."""
    return _span_key(code.modulus, code.num_modes, code._row_forms[0])


def _span_key(modulus: int, num_modes: int, rows: np.ndarray) -> str:
    """The key of the span over Z_D whose Howell basis is ``rows``, int64 rows in pivot order."""
    return hashlib.sha256(f"{modulus}:{num_modes}:".encode() + rows.tobytes()).hexdigest()


def _candidate_count(modulus: int, num_modes: int) -> int:
    """D^(m-1) - 1, the number of nonzero parity-zero vectors.

    Raises :class:`BudgetExceededError` when D^(m-1) exceeds
    ``MAX_CANDIDATES``; the exponent is clipped so a huge m costs nothing.
    """
    free = num_modes - 1
    if modulus ** min(free, MAX_CANDIDATES.bit_length()) > MAX_CANDIDATES:
        raise BudgetExceededError(
            f"candidate space {modulus}^{free} exceeds the supported size {MAX_CANDIDATES}"
        )
    return modulus**free - 1


def _parity_zero_candidates(modulus: int, num_modes: int) -> np.ndarray:
    """All nonzero alpha with sum(alpha) == 0 (mod D), in lexicographic order."""
    _candidate_count(modulus, num_modes)  # raises on an oversized space
    free = num_modes - 1
    prefix = _lex_digits(np.arange(modulus**free, dtype=np.int64), modulus, free)
    last = (-prefix.sum(axis=1)) % modulus
    cand = np.hstack([prefix, last[:, None]])
    return cand[1:]  # drop the all-zero row


def _bound_prefilters(spec: SearchSpec) -> None:
    """Raise :class:`BudgetExceededError` when the prefilters' weight vectors,
    sum over 1 <= w <= min(d, m) of C(m, w) (D-1)^w, exceed ``MAX_CANDIDATES``
    (``_candidate_count`` must bound m first)."""
    m, d = spec.num_modes, spec.target_d
    total = sum(comb(m, w) * (spec.modulus - 1) ** w for w in range(1, min(d, m) + 1))
    if total > MAX_CANDIDATES:
        raise BudgetExceededError(f"prefilter space of {total} vectors of weight <= {d} exceeds the supported size {MAX_CANDIDATES}")


class _Engine:
    """Shared state for one exhaustive enumeration over a first-generator range.

    A span is carried as its distinct rows, row 0 the zero vector, in the
    smallest unsigned dtype that holds 2D - 1; a block of children gets its
    grown spans' rows and integer codes ``row @ place`` in one kernel
    (``_grown``).  The walk recurses down to the nodes whose children are
    leaf-parents, and each of those decides its grandchildren, the full
    tuples, itself (``_expand``, ``_decide``); a root with one generator
    decides its own children.  For the canonical test each candidate keeps
    its support as a bitmask over the columns and whether its leading
    digit is 1; the test assumes prime D (``find_codes`` turns symmetry
    reduction off for composite moduli).

    Commutation is read off float64 products of pairing rows with exponent
    vectors (candidates, or the prefilters' weight vectors), exact because
    every entry is an integer below m (D-1)^2 < 2^53, through the lookup
    table ``divisible[x] = (x % D == 0)`` (``_divisible``).
    """

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        d, m = spec.modulus, spec.num_modes
        self.cand = _parity_zero_candidates(d, m)
        self.count = self.cand.shape[0]
        self.place = d ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.multiples = np.arange(d, dtype=np.int64)[:, None]
        self.digit_dtype = np.min_scalar_type(2 * d)
        self.prime = _is_prime(d)
        nonzero = self.cand != 0
        self.support = nonzero @ (1 << np.arange(m, dtype=np.int64))
        lead = np.argmax(nonzero, axis=1)
        self.lead_bit = 1 << lead
        self.lead_one = self.cand[np.arange(self.count), lead] == 1
        # |S| = D^(n-k) > 1 for a valid code (it holds a nonzero generator); any other size has the wrong k.
        n = m // 2
        self.span_size = d ** (n - spec.target_k) if spec.target_k < n else 0
        # Without symmetry reduction, or when sampling, a span can arrive more than once.
        self.repeats = spec.mode == "randomized" or not spec.symmetry_reduction
        self.pairing = _pairing(self.cand, d).astype(np.float64)  # row i pairs as pairing[i] @ x
        self.cand_t = np.ascontiguousarray(self.cand.T, dtype=np.float64)
        bound = m * (d - 1) ** 2 + 1
        self.divisible = None
        if bound <= _DIVISIBLE_TABLE:
            self.divisible = np.zeros(bound, dtype=bool)
            self.divisible[::d] = True
        # The prefilters' weight vectors, weight below d first, as float64 columns, and their codes.
        vectors = _weight_rows(d, m, 1, spec.target_d)
        self.low_count = int(np.count_nonzero((vectors != 0).sum(axis=1) < spec.target_d))
        self.weights = np.ascontiguousarray(vectors.T, dtype=np.float64)
        self.weight_codes = vectors @ self.place
        # A span of D^(n-k) elements from r generators: every tuple of a spec is independent
        # (D^r elements) when r = n - k, and every one dependent otherwise.
        self.independent = spec.generator_count == n - spec.target_k
        self.nodes = 0
        # (node index, span key, phased code) of each settled hit, in the order found.
        self.hits: list[tuple[int, str, PfCode]] = []
        # The node index of every recorded hit, settled or not, in order: its length counts the
        # hits for the max_hits stop and for the benchmark's span tracer (perfbench/spans.py).
        self.hit_keys: list[int] = []
        # The recorded hits that ``_settle`` has not yet built: the generator indices and a copy
        # of the sorted span codes of each and, for dependent tuples only, their kernel relations
        # and phases (None for independent ones).
        self.pending: list[tuple[list[int], np.ndarray, tuple[np.ndarray, np.ndarray] | None]] = []
        # Sorted codes (as bytes) of every span of the right size that reached
        # the repeat test, kept only when spans can repeat.
        self.seen_spans: set[bytes] = set()
        self.stopped = False

    # -- helpers -----------------------------------------------------------

    def _divisible(self, products: np.ndarray) -> np.ndarray:
        """``products % D == 0`` for float64 products of pairing rows with exponent vectors."""
        if self.divisible is None:
            return np.fmod(products, self.spec.modulus) == 0
        return self.divisible[products.astype(np.intp)]

    def _grown(self, span: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of span + c * cand[j], c = 0 .. D-1, for each j in ``block``, and their codes.

        Shapes (K, D |span|, m) and (K, D |span|) for K = len(block); each
        starts with ``span`` itself.  A row lists every element of its span
        equally often, 0 among them, so its zero codes count each element's
        copies s.  Coset c holds 0 exactly when c*g is in the span, and then
        repeats an earlier coset, so if ``span`` lists distinct elements, so
        do the first D |span| / s rows.  Rows are held in ``digit_dtype``,
        which holds 2D - 1: each c*g is reduced mod D once per candidate,
        added to the span rows, and the sum wrapped by one unsigned subtract
        of D.  The codes are int64, since ``place`` is.
        """
        d = self.spec.modulus
        steps = ((self.multiples * self.cand[block][:, None, :]) % d).astype(self.digit_dtype)
        rows = span[..., None, :, :] + steps[:, :, None, :]
        np.minimum(rows, rows - d, out=rows)  # reduce mod D; unsigned wrap-around
        rows = rows.reshape(len(block), -1, span.shape[-1])
        return rows, rows @ self.place

    def _advance(self, count: int) -> None:
        """Count ``count`` more nodes; the budget stops at node ``max_tuples + 1``."""
        self.nodes += count
        if self.nodes > self.spec.max_tuples:
            self.nodes = self.spec.max_tuples + 1
            raise BudgetExceededError(f"tuple budget {self.spec.max_tuples} exceeded")

    def _central_columns(self, rows: list[int]) -> np.ndarray:
        """Positions of the weight vectors that commute with every candidate in ``rows``."""
        return np.flatnonzero(self._divisible(self.pairing[rows] @ self.weights).all(axis=0))

    def _commuting(self, idx: np.ndarray) -> np.ndarray:
        """Positions of the rows of ``idx`` (candidate indices, one tuple a row) whose candidates pairwise commute.

        The pairing is antisymmetric with a zero diagonal, so each
        generator is tested against the later ones of its row only, and
        only in the rows where every earlier generator passed: one
        row-wise product per generator.
        """
        live = np.arange(len(idx))
        for a in range(idx.shape[1] - 1):
            rows = idx[live]
            products = np.einsum("sm,msb->sb", self.pairing[rows[:, a]], self.cand_t[:, rows[:, a + 1 :]])
            live = live[self._divisible(products).all(axis=1)]
        return live

    def _outside(self, generators: np.ndarray, spans: np.ndarray, columns: np.ndarray,
                 known: np.ndarray) -> np.ndarray:
        """Whether some weight vector central to tuple t lies outside its span, for each row t.

        The weight vectors at ``columns`` that ``known[t]`` marks commute
        with every generator of tuple t except perhaps those in row t of
        ``generators``; the products of those generators with those vectors
        go through ``_divisible`` at once.  ``spans[t]`` holds span t's
        distinct codes in order, and membership is one ``searchsorted``
        over the codes of all spans, each offset by its row number times D^m.
        """
        count = len(generators)
        if not len(columns):
            return np.zeros(count, dtype=bool)
        products = self.pairing[generators.ravel()] @ self.weights[:, columns]
        central = self._divisible(products).reshape(count, generators.shape[1], -1).all(axis=1) & known
        t, w = np.divmod(np.flatnonzero(central), len(columns))
        offset = self.spec.modulus ** self.spec.num_modes
        members = (spans + offset * np.arange(count)[:, None]).ravel()
        wanted = self.weight_codes[columns[w]] + offset * t
        found = members[np.minimum(np.searchsorted(members, wanted), len(members) - 1)] == wanted
        outside = np.zeros(count, dtype=bool)
        outside[t[~found]] = True
        return outside

    def _leaves(self, generators: np.ndarray, span_codes: np.ndarray, columns: np.ndarray,
                known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of a block of full tuples go on to ``_accept``, and their spans' sorted codes.

        Row t of ``span_codes`` lists tuple t's span codes, each equally
        often, 0 among them (``_grown``), so the span has D^(n-k) elements
        exactly when the sorted row starts with s = L / D^(n-k) zeros and no
        more (L the row length); every s-th sorted code is then distinct.  A
        tuple passes when its span has D^(n-k) elements, is not a span met
        before (when spans can repeat, every span of the right size counts
        as met, in row order), and passes both prefilters: every
        weight-(< d) vector that commutes with the tuple lies in the span,
        and some weight-d one does not.  The weight vectors at ``columns``
        (``_central_columns``, ascending) that ``known[t]`` marks commute
        with every generator of tuple t except perhaps those in row t of
        ``generators``; the others do not commute with the tuple.  The
        prefilters run in two stages of ``_outside``: the weight-(< d)
        columns for every tuple of the right span size, then the weight-d
        columns only for the tuples that passed the first, since most
        tuples already fail on a weight-(< d) vector.  Returns a boolean per
        tuple and an array whose row t holds span t's distinct codes in
        order wherever the tuple passed.
        """
        count, length = span_codes.shape
        size = self.span_size
        if not size or length % size:
            return np.zeros(count, dtype=bool), span_codes
        spans = np.sort(span_codes, axis=1)
        s = length // size
        passed = (spans[:, s - 1] == 0) & (spans[:, s] != 0)
        spans = spans[:, ::s]
        if self.repeats:
            for t in np.flatnonzero(passed).tolist():
                key = spans[t].tobytes()
                passed[t] = key not in self.seen_spans
                self.seen_spans.add(key)
        live = np.flatnonzero(passed)
        if not live.size:
            return passed, spans
        low = int(np.searchsorted(columns, self.low_count))  # the weight-(< d) columns come first
        passed[live] = ~self._outside(generators[live], spans[live], columns[:low], known[live, :low])
        live = live[passed[live]]
        if live.size:
            passed[live] = self._outside(generators[live], spans[live], columns[low:], known[live, low:])
        return passed, spans

    def _accept(self, chosen: list[int], codes: np.ndarray) -> None:
        """Record a hit for a span that passed ``_leaves``, given its sorted codes; ``_settle`` keys, phases and builds it.

        ``_leaves`` has fixed k (span size) and d (the prefilters), and
        hands each span over at most once.  The tuple is commuting (the
        commutation masks) and parity-zero (the candidates), so the phases
        decide validity.  Independent rows (a span of D^r elements, always
        so for prime D) have no kernel relations, and their phases come in
        closed form and always exist, so the tuple is a hit.  Otherwise
        (composite D, r > n - k) the relations come from a Howell form of
        the rows and the phases from a solve, at once, because a span with
        no phase solution is not a code and must not count towards
        ``max_hits``.  The codes are copied, so no block array of
        ``_leaves`` outlives its block, and once the recorded codes pass
        ``_BLOCK_ROWS`` the hits are settled.
        """
        solved = None
        if not self.independent:
            rows = self.cand[chosen]
            relations = kernel_basis(ZModMatrix(self.spec.modulus, rows)).array
            try:
                solved = relations, _phase_solution(rows, relations, self.spec.modulus)
            except PhaseAssignmentError:
                return
        self.pending.append((chosen, codes.copy(), solved))
        self.hit_keys.append(self.nodes)
        if self.spec.max_hits and len(self.hit_keys) >= self.spec.max_hits:
            self.stopped = True
        if len(self.pending) * len(codes) > _BLOCK_ROWS:
            self._settle()

    def _settle(self) -> None:
        """Build the recorded hits: append (node index, span key, phased code) to ``hits`` for each, in order.

        Every span's Howell basis is read off its sorted codes, for all
        spans by one ``searchsorted`` (``code._span_bases``), into one
        contiguous array of rows in pivot order, the format of every
        Howell basis; a span's key hashes its slice of it (``_span_key``,
        as ``canonical_equivalence_key`` does), and its code keeps the
        slice, as it is, as its Howell basis.  Independent tuples get their
        closed-form phases from one ``_phase_solution`` over the stack of
        their rows; dependent ones were solved when recorded.
        """
        if not self.pending:
            return
        d, m = self.spec.modulus, self.spec.num_modes
        chosen, codes, solved = zip(*self.pending)
        rows = self.cand[np.array(chosen)]
        pivots, basis = _span_bases(np.stack(codes), d, m)
        ends = np.cumsum(pivots.sum(axis=1)).tolist()
        spans = [basis[start:end] for start, end in zip([0, *ends], ends)]
        if self.independent:
            none = np.zeros((0, rows.shape[1]), dtype=np.int64)
            solved = zip([none] * len(rows), _phase_solution(rows, none, d))
        for node, t_rows, span, (relations, mu) in zip(self.hit_keys[len(self.hits):], rows, spans, solved):
            code = PfCode._from_forms(d, m, t_rows, mu, (span, relations))
            self.hits.append((node, _span_key(d, m, span), code))
        self.pending = []

    # -- enumeration --------------------------------------------------------

    def run(self, first_lo: int = 0, first_hi: int | None = None) -> None:
        """Walk the first generators in [first_lo, first_hi); ``hits`` is complete on return and on a budget stop."""
        first_hi = self.count if first_hi is None else first_hi
        zero = np.zeros((1, self.spec.num_modes), dtype=self.digit_dtype)
        try:
            self._expand([], 0, np.ones(self.count, dtype=bool), zero, np.arange(first_lo, first_hi))
        finally:
            self._settle()

    def _canonical(self, children: np.ndarray, pivots) -> np.ndarray:
        """Whether each child adding cand[j], j in ``children``, to a span with pivot columns ``pivots`` is canonical."""
        return self.lead_one[children] & (self.support[children] & pivots == 0)

    def _expand(self, chosen: list[int], pivots: int, comm_ok: np.ndarray, span: np.ndarray,
                children: np.ndarray) -> None:
        """Count the nodes below ``chosen`` that add each candidate in ``children``, and explore them.

        ``comm_ok`` marks the candidates that commute with every chosen
        generator and lie outside their span.  ``chosen`` has passed the
        canonical test itself and every child index exceeds its indices, so
        the child adding j is the greedy lexicographically minimal
        generating tuple of its span exactly when cand[j] is the minimum of
        the new cosets span + c*cand[j], c = 1 .. D-1 (McKay's canonical
        augmentation).  For prime D that holds exactly when cand[j] is zero
        on every pivot column of the span and its leading digit is 1: the
        least element of span + g is g reduced against the span's echelon
        form with the pivot entries zeroed, and some c makes c*g lead with
        1.  The pivot columns are the leading columns of ``chosen``, the
        bitmask ``pivots``, so the test reads two per-candidate arrays
        (``_canonical``); without symmetry reduction every child passes.
        Only the children that pass get coset rows, a block of them at a
        time, and one float64 product gives the block's commutation masks.

        Children that are leaf-parents (their children are full tuples)
        are not expanded one by one.  ``offset`` is the node count before
        position 0 plus the nodes listed below the children so far, so the
        child at position p is node offset + p + 1.  For a block of
        leaf-parents every (child, grandchild) pair comes off the masks at
        once, in walk order; pair k of the block, below the child at
        position p, is node offset + p + k + 2.  The canonical test runs on
        all pairs together, with each child's pivots, and the full tuples
        that pass it go to ``_decide``, so a leaf-parent without a
        canonical child costs only its node.  A root that is itself a
        leaf-parent (one generator) hands its own children to ``_decide``.
        Node indices, the budget stop and the ``max_hits`` stop are those
        of a walk that counts one node at a time, and hits are accepted in
        walk order.
        """
        spec, d = self.spec, self.spec.modulus
        offset = self.nodes
        at = np.arange(len(children))
        if spec.symmetry_reduction:
            at = np.flatnonzero(self._canonical(children, pivots))
        if len(chosen) + 1 == spec.generator_count:  # a root with one generator
            columns = self._central_columns(chosen)
            self._decide([chosen], span[None], np.ones(1, dtype=np.int64), np.zeros(len(at), dtype=np.intp),
                         children[at], offset + at + 1, columns, np.ones((1, len(columns)), dtype=bool))
            if not self.stopped:
                self._advance(offset + len(children) - self.nodes)
            return
        grandparent = len(chosen) + 2 == spec.generator_count
        if grandparent:
            columns = self._central_columns(chosen)
            weights = self.weights[:, columns]
        step = max(1, _BLOCK_ROWS // self.count)
        for lo in range(0, len(at), step):
            block = at[lo : lo + step]
            js = children[block]
            rows, codes = self._grown(span, js)
            masks = self._divisible(self.pairing[js] @ self.cand_t)
            masks &= comm_ok
            # The span must strictly grow; a zero code maps to the child itself.  Zeros count repeats (``_grown``).
            zeros = codes == 0
            masks[np.arange(len(js))[:, None], np.where(zeros, js[:, None], codes // d - 1)] = False
            repeat = zeros.sum(axis=1)
            if grandparent:
                pairs = np.flatnonzero(masks & (np.arange(self.count) > js[:, None]))
                owner, leaves = np.divmod(pairs, self.count)
                nodes = offset + block[owner] + np.arange(len(pairs)) + 2
                offset += len(pairs)
                if spec.symmetry_reduction:
                    fresh = self._canonical(leaves, pivots | self.lead_bit[js[owner]])
                    owner, leaves, nodes = owner[fresh], leaves[fresh], nodes[fresh]
                live, owner = np.unique(owner, return_inverse=True)
                self._decide([chosen + [j] for j in js[live].tolist()], rows[live], repeat[live], owner, leaves, nodes,
                             columns, self._divisible(self.pairing[js[live]] @ weights))
                if self.stopped:
                    return
                self._advance(offset + int(block[-1]) + 1 - self.nodes)
                continue
            for t, (p, j, s) in enumerate(zip(block.tolist(), js.tolist(), repeat.tolist())):
                self._advance(offset + p + 1 - self.nodes)
                self._expand(chosen + [j], pivots | int(self.lead_bit[j]), masks[t], rows[t, : rows.shape[1] // s],
                             np.flatnonzero(masks[t, j + 1 :]) + (j + 1))
                if self.stopped:
                    return
                offset = self.nodes - p - 1
        self._advance(offset + len(children) - self.nodes)

    def _decide(self, prefixes: list[list[int]], spans: np.ndarray, repeat: np.ndarray, owner: np.ndarray,
                leaves: np.ndarray, nodes: np.ndarray, columns: np.ndarray, known: np.ndarray) -> None:
        """Decide the full tuples prefixes[o] + [g], (o, g) in zip(``owner``, ``leaves``), at node indices ``nodes``; accept the passing ones in order.

        ``spans[o]`` holds the rows of the span of ``prefixes[o]`` as
        ``_grown`` lists them, each element ``repeat[o]`` times, and
        ``known[o]`` marks the weight vectors at ``columns`` that commute
        with every generator of ``prefixes[o]``.  The tuples up to the
        budget (a tuple past it cannot be a hit and is not built) are cut,
        in walk order, into chunks of one size, about ``_BLOCK_ROWS`` leaf
        rows and prefilter products each, whichever prefixes they fall
        under.  Each chunk goes to ``_leaves`` with every tuple's prefix
        span and its row of ``known``, so the repeat test meets spans as a
        one-node walk does.  A chunk cuts its prefixes' rows to their length
        over the gcd s of their repeat counts: the cosets of ``_grown``
        recur, so each element of span o appears ``repeat[o] / s`` times.
        """
        end = int(np.searchsorted(nodes, self.spec.max_tuples, side="right"))
        owner, leaves = owner[:end], leaves[:end]
        room = max(1, _BLOCK_ROWS // (self.spec.modulus * spans.shape[1] + len(columns)))
        for lo in range(0, end, room):
            o, g = owner[lo : lo + room], leaves[lo : lo + room]
            heads = slice(o[0], o[-1] + 1)  # owner ids count up from 0 in walk order
            wide = known[heads].any(axis=0)
            chunk = spans[o, : spans.shape[1] // int(np.gcd.reduce(repeat[heads]))]
            passed, leaf_codes = self._leaves(g[:, None], self._grown(chunk, g)[1], columns[wide], known[:, wide][o])
            for t in np.flatnonzero(passed).tolist():
                self._advance(int(nodes[lo + t]) - self.nodes)
                self._accept(prefixes[o[t]] + [int(g[t])], leaf_codes[t])
                if self.stopped:
                    return


def _run_block(spec: SearchSpec, bounds: tuple[int, int]) -> dict:
    """Nodes and hits of the first generators in ``bounds`` = (lo, hi)."""
    engine = _Engine(spec)
    with suppress(BudgetExceededError):  # the replay reads the budget stop off the node count
        engine.run(*bounds)
    return {"nodes": engine.nodes, "hits": engine.hits}


def _replay_serial(spec: SearchSpec, results: list[dict]) -> tuple[dict, int, bool, bool]:
    """The serial run's hits, tuple count and stop flags, from blocks each run on its own.

    A block visits the nodes of its first generators in the serial order,
    so walking the blocks in first-generator order with a running node
    offset replays the serial stops: the budget at node ``max_tuples + 1``
    and ``max_hits`` at the node of the last hit.  A hit whose span an
    earlier block found (no symmetry reduction) does not count.  A block
    that stopped at its own ``max_hits`` repeats at most as many spans as
    were found before it, so the replay stops inside that block.  Returns
    ({key: code}, tuples examined, budget exceeded, stopped on ``max_hits``).
    """
    found: dict[str, PfCode] = {}
    offset = 0
    for res in results:
        for node, key, code in res["hits"]:
            if offset + node > spec.max_tuples:
                break
            if key in found:
                continue
            found[key] = code
            if spec.max_hits and len(found) >= spec.max_hits:
                return found, offset + node, False, True
        if offset + res["nodes"] > spec.max_tuples:
            return found, spec.max_tuples + 1, True, False
        offset += res["nodes"]
    return found, offset, False, False


def _block_worker(spec: SearchSpec, conn) -> None:
    """Run each block (lo, hi) received on ``conn`` and send back (True, result) or (False, the error), until terminated."""
    while True:
        bounds = conn.recv()
        try:
            outcome = (True, _run_block(spec, bounds))
        except Exception as exc:  # raised again in the parent
            outcome = (False, exc)
        conn.send(outcome)


class _BlockWorkers:
    """Worker processes that run the blocks of one search, each over a pipe of its own.

    A worker shares no lock with the parent or the other workers, so
    leaving the context may terminate a worker at any point, even while
    it sends a result; ``multiprocessing.Pool`` can hang there, when a
    worker dies holding its result queue's lock.
    """

    def __init__(self, spec: SearchSpec, size: int):
        import multiprocessing  # only ``--threads`` > 1 needs it, so ``import pfstab`` does not load it

        self.idle: list = []
        self.busy: dict = {}  # connection -> index of the block it runs
        self.processes: list = []
        try:
            for _ in range(size):
                ours, theirs = multiprocessing.Pipe()
                self.idle.append(ours)
                self.processes.append(multiprocessing.Process(target=_block_worker, args=(spec, theirs), daemon=True))
                self.processes[-1].start()
                theirs.close()
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self) -> "_BlockWorkers":
        return self

    def __exit__(self, *exc) -> None:
        started = [process for process in self.processes if process.pid is not None]
        for process in started:
            process.terminate()
        for process in started:
            process.join()
        for conn in self.idle + list(self.busy):
            conn.close()

    def start(self, index: int, bounds: tuple[int, int]) -> None:
        """Hand block ``index`` to an idle worker."""
        conn = self.idle.pop()
        conn.send(bounds)
        self.busy[conn] = index

    def finished(self) -> tuple[int, tuple[bool, object]]:
        """(index, outcome) of a block that finished; waits for one if none has."""
        from multiprocessing.connection import wait

        conn = wait(list(self.busy))[0]
        outcome = conn.recv()
        self.idle.append(conn)
        return self.busy.pop(conn), outcome


def _run_blocks(spec: SearchSpec, count: int, threads: int) -> list[dict]:
    """Run the first-generator range as blocks on worker processes; the in-order prefix the replay needs.

    The range is cut into ``_BLOCKS_PER_THREAD`` blocks per thread, run
    by min(threads, blocks, CPUs) workers (``_BlockWorkers``).  The first
    blocks start one per worker, and a block starts whenever one
    finishes.  Results are replayed in block order, and once the replay
    stops (``max_hits`` or the budget), or a block failed, the workers are
    terminated.  Blocks after the stop do not change the replay.
    """
    # Past ``count`` cuts every block is one candidate, so the cap keeps the blocks and bounds the array.
    edges = np.unique(np.linspace(0, count, min(_BLOCKS_PER_THREAD * threads, count) + 1).astype(int)).tolist()
    blocks = list(zip(edges[:-1], edges[1:]))
    outcomes: dict[int, tuple[bool, object]] = {}
    results: list[dict] = []
    with _BlockWorkers(spec, min(threads, len(blocks), os.cpu_count() or 1)) as workers:
        started = len(workers.idle)
        for i in range(started):
            workers.start(i, blocks[i])
        while len(results) < len(blocks):
            while len(results) not in outcomes:
                index, outcome = workers.finished()
                outcomes[index] = outcome
                if started < len(blocks):
                    workers.start(started, blocks[started])
                    started += 1
            ok, value = outcomes.pop(len(results))
            if not ok:
                raise value
            results.append(value)
            _, _, budget, stopped = _replay_serial(spec, results)
            if budget or stopped:
                break
    return results


def _find_exhaustive(spec: SearchSpec, threads: int) -> tuple[list[PfCode], SearchCertificate]:
    start_time = time.monotonic()
    count = _candidate_count(spec.modulus, spec.num_modes)
    cert = SearchCertificate(
        spec=spec.to_dict(),
        candidate_count=count,
        estimated_tuples=comb(count, spec.generator_count),
        threads=threads,
    )
    if threads <= 1:
        results = [_run_block(spec, (0, count))]
    else:
        results = _run_blocks(spec, count, threads)
    found, cert.tuples_examined, cert.budget_exceeded, stopped = _replay_serial(spec, results)
    cert.early_stopped = bool(spec.max_hits) and len(found) >= spec.max_hits
    cert.exhausted = not cert.budget_exceeded and not stopped
    return _finish(cert, found.items(), start_time)


def _floyd_draw(bits: np.random.PCG64, count: int, r: int, size: int) -> np.ndarray:
    """``size`` uniform r-subsets of range(count), one sorted row each, by Floyd's algorithm.

    Each sample takes the next r raw 64-bit words of ``bits``, in order,
    so drawing a + b samples equals drawing a and then b.  Position t of a
    row has bound j + 1 with j = count - r + t: it draws x = word mod
    (j + 1), and takes j instead when x is among the row's first t picks.
    The modulo makes x uniform up to a bias below (j + 1) / 2^64, under
    2^-45 for the at most ``MAX_CANDIDATES`` candidates.  The stream
    depends only on PCG64's raw output, which numpy keeps stable, not on
    ``Generator`` methods, which it may change between versions.
    """
    words = bits.random_raw(size * r).reshape(size, r)
    picks = np.empty((size, r), dtype=np.int64)
    for t in range(r):
        j = count - r + t
        x = (words[:, t] % np.uint64(j + 1)).astype(np.int64)
        picks[:, t] = np.where((picks[:, :t] == x[:, None]).any(axis=1), j, x)
    picks.sort(axis=1)
    return picks


def _span_table(engine: _Engine) -> np.ndarray | None:
    """The D^r x r coefficients of every combination of a sample's r generators, or None when no sample can pass ``_leaves``.

    Row c holds the base-D digits of c, generator 1 least significant, so
    the rows below D^(t-1) combine generators 1 .. t-1 only and row
    D^(t-1) is generator t itself.  A sample none of whose generators lies
    in the span of the ones before it has a span of at most D^r and at
    least p^r elements (each generator enlarges the span by a factor of at
    least p, with p = D for prime D and p >= 2 otherwise), so when the
    target span size D^(n-k) lies outside that range no sample reaches the
    acceptance test.  Raises :class:`BudgetExceededError` when the table
    would exceed ``MAX_CANDIDATES`` rows, which only a composite D with
    many generators asks for.
    """
    d, r = engine.spec.modulus, engine.spec.generator_count
    least = d if engine.prime else 2
    if not (r < engine.span_size.bit_length() and least**r <= engine.span_size <= d**r):
        return None
    if d**r > MAX_CANDIDATES:
        raise BudgetExceededError(f"span table of {d}^{r} combinations exceeds the supported size {MAX_CANDIDATES}")
    return _lex_digits(np.arange(d**r, dtype=np.int64), d, r)[:, ::-1]


def _find_randomized(spec: SearchSpec) -> tuple[list[PfCode], SearchCertificate]:
    """Draw ``spec.samples`` tuples in chunks and hand the spans of the commuting, independent ones to ``_leaves``.

    A chunk holds ``_BLOCK_ROWS`` // (r m) samples, one at least, and its
    commuting samples come from ``_Engine._commuting``; since each sample
    takes its own r raw words, the chunk size changes no draw.  The
    prefilter mask ``_leaves`` reads is a broadcast view of True: a
    sample has no generators outside its own row.  One kernel builds
    every span code of a block of a chunk's commuting samples, at most
    about ``_BLOCK_ROWS`` rows and prefilter products: the coefficient
    table of ``_span_table`` times each sample's rows.  A
    sample is dependent, and dropped, exactly when generator t's code is
    among the table's first D^(t-1) codes, the span of the generators
    before it, for some t.  A sample's D^r codes list each span element
    equally often (the table is a group homomorphism onto the span), as
    ``_leaves`` expects; the block's independent samples go to it
    together.  The samples after a stop were drawn but are not counted as
    examined.
    """
    start_time = time.monotonic()
    engine = _Engine(spec)
    table = _span_table(engine)
    bits = np.random.PCG64(spec.seed)
    cert = SearchCertificate(
        spec=spec.to_dict(),
        candidate_count=engine.count,
        estimated_tuples=spec.samples,
    )
    if table is None:
        cert.tuples_examined = spec.samples  # every sample fails the span-size test of _leaves
    d, r = spec.modulus, spec.generator_count
    chunk = max(1, _BLOCK_ROWS // (r * spec.num_modes))
    columns = engine._central_columns([])  # every weight vector; _leaves tests every generator
    every = np.broadcast_to(True, (chunk, len(columns)))  # a chunk's tuples have no other generators
    while cert.tuples_examined < spec.samples and not engine.stopped:
        size = min(chunk, spec.samples - cert.tuples_examined)
        idx = _floyd_draw(bits, engine.count, r, size)
        step = max(1, _BLOCK_ROWS // (len(table) + r * engine.weights.shape[1]))
        commuting = engine._commuting(idx)
        for lo in range(0, len(commuting), step):
            block = commuting[lo : lo + step]
            spans = ((table @ engine.cand[idx[block]]) % d) @ engine.place
            dependent = np.zeros(len(block), dtype=bool)
            for t in range(1, r):
                dependent |= (spans[:, : d**t] == spans[:, d**t, None]).any(axis=1)
            block = block[~dependent]
            passed, spans = engine._leaves(idx[block], spans[~dependent], columns, every)
            for t in np.flatnonzero(passed).tolist():
                engine._accept(idx[block[t]].tolist(), spans[t])
                if engine.stopped:
                    size = int(block[t]) + 1  # the samples after the stop were drawn but not examined
                    break
            if engine.stopped:
                break
        cert.tuples_examined += size
    engine._settle()
    cert.early_stopped = engine.stopped
    cert.exhausted = False  # sampling can never certify nonexistence
    return _finish(cert, [(key, code) for _, key, code in engine.hits], start_time)


def _finish(cert: SearchCertificate, hits, start_time: float):
    """(codes, certificate) of a search, from its (key, code) hits in order."""
    codes = []
    for key, code in hits:
        codes.append(code)
        cert.hits.append({"key": key, "generators": [{"mu": g.mu, "alpha": list(g.alpha)} for g in code.generators]})
    cert.wall_time_s = time.monotonic() - start_time
    return codes, cert


def find_codes(spec: SearchSpec, threads: int | None = None) -> tuple[list[PfCode], SearchCertificate]:
    """Run the search described by ``spec``; returns (codes, certificate).

    Exhaustive mode partitions the first-generator choice across processes
    when ``threads > 1``; results and hit order are identical to a serial
    run.  Randomized mode is always serial and reproducible by seed.
    ``threads=None`` reads ``PFSTAB_THREADS`` on each call (unset or empty
    means 1); a count below 1, or a value that is not an integer, raises
    ValueError naming it, in either mode.
    """
    name, value = "threads", threads
    if threads is None:
        name, value = "PFSTAB_THREADS", os.environ.get("PFSTAB_THREADS") or "1"
        with suppress(ValueError):
            threads = int(value)
    if not _is_int(threads) or threads < 1:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")
    _candidate_count(spec.modulus, spec.num_modes)  # an oversized space raises before any primality test
    _bound_prefilters(spec)
    if spec.symmetry_reduction and not _is_prime(spec.modulus) and spec.mode == "exhaustive":
        spec = replace(spec, symmetry_reduction=False)
    if spec.mode == "randomized":
        return _find_randomized(spec)
    return _find_exhaustive(spec, threads)
