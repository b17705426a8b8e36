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
generators, so the test reads one bitmask per candidate (its support,
plus a bit when its leading digit is not 1) against one bitmask per node.

A full tuple meets one acceptance rule for every modulus.  Its span must
have D^(n-k) elements, which fixes k; a span met again under another
generating tuple (no symmetry reduction, or randomized mode) is skipped;
then two prefilters fix d: every weight-(< d) vector that commutes with
the tuple lies in the span, and some weight-d one does not.  One kernel,
``_Engine._leaves``, decides all of this for a block of full tuples: the
canonical children of a block of leaf-parents, a fixed-size chunk at a
time, or a block of a chunk's independent samples.  It runs the
prefilters in two stages, the weight-(< d) vectors for every tuple of the
right span size and then the weight-d ones only for the tuples that
passed, since most tuples fail on a vector of lower weight.  The tuple is
commuting and parity-zero by construction, and commuting rows always have
phases (the argument is on ``code._phase_solution``), so every tuple that
passes ``_leaves`` is a hit.  ``_Engine._accept`` records it: its node,
its generator indices and a copy of its sorted span codes.
``_Engine._settle`` then keys and phases the recorded hits together, when
a run returns or stops and whenever their codes pass ``_BLOCK_ROWS``.
The key hashes the span's Howell basis, read off its sorted integer codes
(``code._span_bases``): the row with pivot j is the least span code in
[D^(m-1-j), D^(m-j)), found for every span by one ``searchsorted``.  A
span of D^r elements means independent rows (always so for prime D), and
the closed-form phases of all independent tuples come from one product
(``code._phase_solution``, which ``canonical_phases`` uses too); a
dependent tuple (composite D with r > n - k) takes a Howell form of its
rows and a phase solve over Z_2D.  Hits stay lists and arrays until the
search returns: a settled batch (``_Hits``) holds the nodes, keys, rows,
phases, Howell bases and relations of its hits, and ``_finish`` writes
every certificate entry from one ``tolist`` of the returned hits' rows
and one of their phases, then builds each hit's code once, keeping the
basis it was keyed by.  A code builds its generator operators only when
they are read.

Each exponent vector v carries the base-D integer code ``v @ place`` with
``place = D^(m-1), ..., D, 1``; lexicographic order on vectors is integer
order on codes.  A nonzero parity-zero vector with code c is candidate
``c // D - 1``, so the span members to clear from a commutation mask are
read off the span's codes, and span membership in the prefilters is one
``searchsorted`` over sorted codes.

The walk has one rule for every depth (``_Engine._walk``).  A block of
same-depth nodes, in walk order, lists all its (node, child) pairs with
one ``flatnonzero`` of its commutation masks past each node's last
generator and applies the canonical test to them (``_children``); the
root is a block of one node, whose first-generator window restricts
only its own listing.  Full tuples go to ``_decide``; other children
are cut, in walk order, into blocks of one size, whichever parents they
fall under, and each block gets its spans and masks (``_grown``, and one
float64 product read through a divisibility lookup table, over the
candidates from its least last generator on), and is walked in turn.
Node indices come from per-depth counters ``listed[s]``: when the walk
reaches a tuple x of length t, its index is the sum over s <= t of the
rank of x[:s] among the listed tuples of length s, plus the sum of
``listed[s]`` over s > t.  So a full tuple's index is known once it is
listed, a block checks the budget at its first node and a run checks
the total at its end: node indices, hit order and both stops are those
of a one-node-at-a-time walk.  A node's prefilter marks (the weight
vectors central to it) are its parent's less those of its last
generator.  A grown span lists each element equally often, so its zero
codes count each element's copies.  Cousins can have spans of different
sizes (composite D): then each child keeps its distinct elements, tiled
to the block's lcm length (``_distinct``).  Randomized mode draws a
chunk of ``_BLOCK_ROWS`` / (r m) samples at once (``_floyd_draw``, r raw
PCG64 words per sample, in order), tests their commutation one generator
against the later ones at a time (``_Engine._commuting``) and grows the
commuting ones' spans from the zero row with ``_grown``, the one span
kernel, dropping a sample when the coset S + g of a step holds 0
(``_find_randomized``).  Both modes size a ``_leaves`` block by one rule
(``_Engine._room``): about ``_BLOCK_ROWS`` leaf rows plus weight-(< d)
prefilter products.

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
from functools import lru_cache
from math import comb

import numpy as np

from .algebra import _pairing
from .code import _BLOCK_ROWS, PfCode, _lex_digits, _phase_solution, _span_bases, _weight_rows

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
        # A tuple, sampled or listed, takes distinct candidates.
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
    basis = code._row_forms[0]
    return _span_keys(code.modulus, code.num_modes, basis, [0, len(basis)])[0]


def _span_keys(modulus: int, num_modes: int, basis: np.ndarray, ends: list[int]) -> list[str]:
    """The key of each span over Z_D whose Howell basis, int64 rows in pivot order, is ``basis[ends[i]:ends[i + 1]]``."""
    prefix = f"{modulus}:{num_modes}:".encode()
    raw, width = basis.tobytes(), basis.itemsize * num_modes
    return [hashlib.sha256(prefix + raw[start * width : end * width]).hexdigest() for start, end in zip(ends, ends[1:])]


@dataclass(eq=False)
class _Hits:
    """The hits of one ``_Engine._settle`` call as lists and arrays, in the order found.

    Hit i was found at node ``nodes[i]``, has span key ``keys[i]``,
    generator rows ``rows[i]`` and phases ``mu[i]``; the Howell basis of
    its span, rows in pivot order, is ``basis[ends[i]:ends[i + 1]]``, and
    its rows' kernel relations are ``relations[i]``.  A search holds no
    object per hit until it returns, so it pipes a few arrays between
    processes, and it builds codes only for output (``_finish``).
    """

    nodes: list[int]
    keys: list[str]
    rows: np.ndarray
    mu: np.ndarray
    basis: np.ndarray
    ends: list[int]
    relations: list[np.ndarray]

    def forms(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``_row_forms`` of hit i: the Howell bases of its rows and of their left kernel."""
        return self.basis[self.ends[i] : self.ends[i + 1]], self.relations[i]


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


@lru_cache(maxsize=4)
def _parity_zero_candidates(modulus: int, num_modes: int) -> np.ndarray:
    """All nonzero alpha with sum(alpha) == 0 (mod D), in lexicographic order, read-only, in the
    smallest unsigned dtype that holds (D - 1)^2, in which ``_Engine._grown`` forms c * g."""
    _candidate_count(modulus, num_modes)  # raises on an oversized space
    free = num_modes - 1
    prefix = _lex_digits(np.arange(1, modulus**free), modulus, free)  # prefix 0 would give the zero vector
    cand = np.hstack([prefix, -prefix.sum(axis=1, keepdims=True) % modulus]).astype(np.min_scalar_type((modulus - 1) ** 2))
    cand.flags.writeable = False
    return cand


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

    A span is carried as rows that list each element equally often, in
    the smallest unsigned dtype that holds 2D - 1, and grown with its
    integer codes ``row @ place`` by one kernel (``_grown``).  The walk
    takes a block of same-depth nodes at a time, at every depth alike
    (``_walk``), and ``_decide`` the full tuples below a block of
    leaf-parents; a node's index is the sum of its prefixes' ranks plus
    ``listed[s]`` for every s past its length.  The canonical test reads
    one bitmask per candidate and assumes prime D (``find_codes`` turns
    symmetry reduction off for composite moduli).

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
        self.index = np.arange(self.count)
        self.multiples = np.arange(d, dtype=self.cand.dtype)[:, None]
        self.digit_dtype = np.min_scalar_type(2 * d)
        self.prime = _is_prime(d)
        nonzero = self.cand != 0
        lead = np.argmax(nonzero, axis=1)
        self.lead_bit = (1 << lead).astype(np.int32)
        # The support as a bitmask over the columns, plus bit m when the leading digit is not 1 (``_canonical``).
        self.support = (nonzero @ (1 << np.arange(m)) | (self.cand[self.index, lead] != 1) << m).astype(np.int32)
        # |S| = D^(n-k) > 1 for a valid code (it holds a nonzero generator); any other size has the wrong k.
        n = m // 2
        self.span_size = d ** (n - spec.target_k) if spec.target_k < n else 0
        # Without symmetry reduction, or when sampling, a span can arrive more than once.
        self.repeats = spec.mode == "randomized" or not spec.symmetry_reduction
        wide = self.cand.astype(np.int64)  # ``_pairing``'s cumsum would wrap in the unsigned dtype
        self.pairing = _pairing(wide, d).astype(np.float64)  # row i pairs as pairing[i] @ x
        self.cand_t = np.ascontiguousarray(wide.T, dtype=np.float64)
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
        # The settled hits, one ``_Hits`` batch per ``_settle`` call, in the order found.
        self.hits: list[_Hits] = []
        # The node index of every recorded hit, settled or not, in order: its length counts the
        # hits for the max_hits stop and for the benchmark's span tracer (perfbench/spans.py).
        self.hit_keys: list[int] = []
        # The recorded hits that ``_settle`` has not yet keyed and phased: the generator indices
        # and a copy of the sorted span codes of each.
        self.pending: list[tuple[list[int], np.ndarray]] = []
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

        ``span`` is one span's rows or one per candidate; the shapes are
        (K, D |span|, m) and (K, D |span|) for K = len(block).  A row lists
        its elements equally often if its span does, 0 among them, so its
        zero codes count each element's copies; coset c holds 0 exactly
        when c*g is in the span.  Rows are held in ``digit_dtype`` (2D - 1
        fits): c*g, reduced mod D in the candidates' dtype, is added to the
        span rows and the sum wrapped by one unsigned subtract of D.
        """
        d = self.spec.modulus
        steps = ((self.multiples * self.cand[block][:, None, :]) % d).astype(self.digit_dtype, copy=False)
        rows = span[..., None, :, :] + steps[:, :, None, :]
        np.minimum(rows, rows - d, out=rows)  # reduce mod D; unsigned wrap-around
        rows = rows.reshape(len(block), -1, span.shape[-1])
        return rows, rows @ self.place

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
        (ascending) that ``known[t]`` marks commute
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

    def _room(self, leaf_rows: int, generators: int, columns: np.ndarray) -> int:
        """Tuples per ``_leaves`` block: about ``_BLOCK_ROWS`` leaf rows and first-stage products in all.

        Each tuple brings ``leaf_rows`` span rows, and ``generators`` of its
        generators meet the weight-(< d) vectors among ``columns``
        (ascending) in the first prefilter stage; the weight-d products
        come only for the few tuples that pass it, so they are not counted.
        """
        return max(1, _BLOCK_ROWS // (leaf_rows + generators * int(np.searchsorted(columns, self.low_count))))

    def _accept(self, chosen: list[int], codes: np.ndarray) -> None:
        """Record a hit for a span that passed ``_leaves``, given its sorted codes; ``_settle`` keys and phases it.

        ``_leaves`` has fixed k (span size) and d (the prefilters), and
        hands each span over at most once.  The tuple is commuting (the
        commutation masks) and parity-zero (the candidates), and commuting
        rows always have phases (``code._phase_solution``), so it is a hit.
        The codes are copied, so no block array of ``_leaves`` outlives its
        block, and once the recorded codes pass ``_BLOCK_ROWS`` the hits are
        settled.
        """
        self.pending.append((chosen, codes.copy()))
        self.hit_keys.append(self.nodes)
        if self.spec.max_hits and len(self.hit_keys) >= self.spec.max_hits:
            self.stopped = True
        if len(self.pending) * len(codes) > _BLOCK_ROWS:
            self._settle()

    def _settle(self) -> None:
        """Key and phase the recorded hits, in order, as one ``_Hits`` batch appended to ``hits``.

        Every span's Howell basis is read off its sorted codes, for all
        spans by one ``searchsorted`` (``code._span_bases``), into one
        contiguous array of rows in pivot order, the format of every
        Howell basis; a span's key hashes its slice of the array's bytes
        (``_span_keys``, as ``canonical_equivalence_key`` does), and the
        batch keeps the array, so that a hit's code keeps its slice, as it
        is, as its Howell basis.  Independent tuples get their closed-form
        phases from one ``_phase_solution`` over the stack of their rows
        and share one empty array of relations; each dependent tuple gets its
        relations from a Howell form of its rows and its phases from a solve
        over Z_2D, which cannot fail for commuting rows.  No code is built
        here.
        """
        if not self.pending:
            return
        d, m = self.spec.modulus, self.spec.num_modes
        chosen, codes = zip(*self.pending)
        rows = self.cand[np.array(chosen)].astype(np.int64)
        pivots, basis = _span_bases(np.stack(codes), d, m)
        ends = [0, *np.cumsum(pivots.sum(axis=1)).tolist()]
        if self.independent:
            relations = [np.zeros((0, rows.shape[1]), dtype=np.int64)] * len(rows)
            mu = _phase_solution(rows, relations[0], d)
        else:
            relations = [kernel_basis(ZModMatrix(d, t_rows)).array for t_rows in rows]
            mu = np.stack([_phase_solution(t_rows, t_relations, d) for t_rows, t_relations in zip(rows, relations)])
        nodes = self.hit_keys[len(self.hit_keys) - len(rows):]
        self.hits.append(_Hits(nodes, _span_keys(d, m, basis, ends), rows, mu, basis, ends, relations))
        self.pending = []

    # -- enumeration --------------------------------------------------------

    def run(self, first_lo: int = 0, first_hi: int | None = None) -> None:
        """Walk the first generators in [first_lo, first_hi); ``hits`` is complete on return and on a budget stop.

        The root, a block of one node, has every weight vector central to it.
        """
        spec, every = self.spec, np.arange(self.weights.shape[1])
        self.listed = [0] * (spec.generator_count + 1)
        chosen, masks = np.zeros((1, 0), dtype=np.intp), np.ones((1, self.count - first_lo), dtype=bool)
        children = self._children(chosen, np.zeros(1, dtype=np.int64), masks, first_hi)
        try:
            self._walk(chosen, masks, np.zeros((1, 1, spec.num_modes), dtype=self.digit_dtype), np.ones(1, dtype=np.int64),
                       children, (every, np.ones((1, len(every)), dtype=bool)[children[3]]))
            if not self.stopped:
                self._reach(sum(self.listed))
        finally:
            self._settle()

    def _reach(self, node: int) -> None:
        """Stand at node index ``node``; the budget stops at node ``max_tuples + 1``."""
        self.nodes = min(node, self.spec.max_tuples + 1)
        if node > self.spec.max_tuples:
            raise BudgetExceededError(f"tuple budget {self.spec.max_tuples} exceeded")

    def _children(self, chosen: np.ndarray, nodes: np.ndarray, masks: np.ndarray,
                  stop: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """List the children of a block of same-depth nodes, rank them in ``listed``, and keep the canonical ones.

        Node k adds the generators ``chosen[k]`` and ``nodes[k]`` sums its
        prefixes' ranks; ``masks[k, i]`` marks candidate count - width + i
        if it commutes with them and lies outside their span.  Its children
        are the marked candidates past its last generator (at the root,
        before ``stop``).  Returns the parent, candidate and node index of
        each canonical child, in walk order, and which nodes have one.
        """
        depth = chosen.shape[1] + 1
        first, hi = self.count - masks.shape[1], self.count if stop is None else stop
        listing = masks[:, : hi - first] & (self.index[first:hi] > (chosen[:, -1:] if depth > 1 else first - 1))
        pairs = flat = np.flatnonzero(listing)
        if self.spec.symmetry_reduction:
            listing &= self._canonical(np.bitwise_or.reduce(self.lead_bit[chosen], axis=1), slice(first, hi))
            flat = np.flatnonzero(listing)
            at = np.searchsorted(pairs, flat)
        else:
            at = np.arange(len(pairs))
        owner, children = np.divmod(flat, hi - first)
        ranked = nodes[owner] + at + (self.listed[depth] + 1)
        self.listed[depth] += len(pairs)
        return owner, children + first, ranked, listing.any(axis=1)

    def _walk(self, chosen: np.ndarray, masks: np.ndarray, spans: np.ndarray, repeat: np.ndarray,
              children: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
              prefilter: tuple[np.ndarray, np.ndarray]) -> None:
        """Walk a block of same-depth nodes and everything below it, given its ``_children``.

        Node k adds the generators ``chosen[k]``; ``masks[k]`` marks the
        candidates that commute with them and lie outside their span, whose
        rows ``spans[k]`` list each element ``repeat[k]`` times.
        ``prefilter`` = (columns, marks) gives, for each node with a child,
        in order, the weight vectors at ``columns`` central to it.
        """
        spec, d = self.spec, self.spec.modulus
        (owner, kids, ranked, has), (columns, marks) = children, prefilter
        heir = (np.cumsum(has) - 1)[owner]  # the parent of each child, among the nodes with a child
        depth = chosen.shape[1] + 1  # of the children
        if depth == spec.generator_count:
            self._decide(chosen[has], spans[has], repeat[has], heir, kids, ranked, columns, marks)
            return
        first = self.count - masks.shape[1]
        step = max(1, _BLOCK_ROWS // self.count)
        for lo in range(0, len(kids), step):
            o, js = owner[lo : lo + step], kids[lo : lo + step]
            self._reach(int(ranked[lo]) + sum(self.listed[depth + 1 :]))
            rows, codes = self._grown(spans[o], js)
            # Every node below lists only candidates past its own generators, so masks start at the least child.
            base = int(js.min())
            grown = self._divisible(self.pairing[js] @ self.cand_t[:, base:])
            grown &= masks[o, base - first :]
            # The span must strictly grow.  A member before the child (the zero code among them) maps to the child.
            grown[np.arange(len(js))[:, None], np.maximum(codes // d - 1, js[:, None]) - base] = False
            counts = np.count_nonzero(codes == 0, axis=1)  # each element's copies (``_grown``)
            if counts.max() > 1:
                rows, counts = self._distinct(rows, codes, counts)
            block = np.hstack((chosen[o], js[:, None]))
            below = self._children(block, ranked[lo : lo + step], grown)
            known = marks[heir[lo : lo + step][below[3]]] & self._divisible(self.pairing[js[below[3]]] @ self.weights[:, columns])
            wide = known.any(axis=0)
            self._walk(block, grown, rows, counts, below, (columns[wide], known[:, wide]))
            if self.stopped:
                return

    def _distinct(self, rows: np.ndarray, codes: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each span's distinct rows, tiled to the lcm of their numbers, and how often each now appears.

        Row k lists each element ``counts[k]`` times, so one ``argsort`` of
        the block's codes finds the first of each run of equal codes.
        """
        sizes = codes.shape[1] // counts
        length = int(np.lcm.reduce(sizes))
        runs = (np.arange(length) % sizes[:, None]) * counts[:, None]
        picks = np.take_along_axis(np.argsort(codes, axis=1), runs, axis=1)
        return np.take_along_axis(rows, picks[..., None], axis=1), length // sizes

    def _canonical(self, pivots: np.ndarray, candidates: slice) -> np.ndarray:
        """Whether the child adding cand[j], j in ``candidates``, to a span with pivot columns ``pivots[k]`` is canonical, at [k, j]."""
        return self.support[candidates] & (pivots[:, None] | 1 << self.spec.num_modes) == 0

    def _decide(self, prefixes: np.ndarray, spans: np.ndarray, repeat: np.ndarray, owner: np.ndarray,
                leaves: np.ndarray, nodes: np.ndarray, columns: np.ndarray, known: np.ndarray) -> None:
        """Decide the full tuples prefixes[o] + [g], (o, g) in zip(``owner``, ``leaves``), at node indices ``nodes``; accept the passing ones in order.

        ``spans[o]`` lists the span of ``prefixes[o]``, each element
        ``repeat[o]`` times, and ``known[o]`` marks the weight vectors at
        ``columns`` central to it.  The tuples up to the budget are cut, in
        walk order, into chunks of one size (``_room``), whichever prefixes
        they fall under, and each goes to ``_leaves`` with its tuples'
        prefix spans and rows of ``known``, so the repeat test meets spans
        as a one-node walk does.  A chunk cuts its prefixes' rows to their
        length over the gcd s of their repeat counts: a row repeats no
        element or tiles its distinct elements (``_distinct``), so each
        element of span o appears ``repeat[o] / s`` times.
        """
        end = int(np.searchsorted(nodes, self.spec.max_tuples, side="right"))
        owner, leaves = owner[:end], leaves[:end]
        room = self._room(self.spec.modulus * spans.shape[1], 1, columns)
        for lo in range(0, end, room):
            o, g = owner[lo : lo + room], leaves[lo : lo + room]
            heads = slice(o[0], o[-1] + 1)  # owners ascend in walk order
            wide = known[heads].any(axis=0)
            chunk = spans[o, : spans.shape[1] // int(np.gcd.reduce(repeat[heads]))]
            passed, leaf_codes = self._leaves(g[:, None], self._grown(chunk, g)[1], columns[wide], known[:, wide][o])
            for t in np.flatnonzero(passed).tolist():
                self.nodes = int(nodes[lo + t])
                self._accept(prefixes[o[t]].tolist() + [int(g[t])], leaf_codes[t])
                if self.stopped:
                    return


def _run_block(spec: SearchSpec, bounds: tuple[int, int]) -> dict:
    """Nodes and hits of the first generators in ``bounds`` = (lo, hi)."""
    engine = _Engine(spec)
    with suppress(BudgetExceededError):  # the replay reads the budget stop off the node count
        engine.run(*bounds)
    return {"nodes": engine.nodes, "hits": engine.hits}


def _replay_serial(spec: SearchSpec, results: list[dict]) -> tuple[list[tuple[_Hits, list[int]]], int, bool, bool]:
    """The serial run's hits, tuple count and stop flags, from blocks each run on its own.

    A block visits the nodes of its first generators in the serial order,
    so walking the blocks in first-generator order with a running node
    offset replays the serial stops: the budget at node ``max_tuples + 1``
    and ``max_hits`` at the node of the last hit.  A hit whose span an
    earlier block found (no symmetry reduction) does not count.  A block
    that stopped at its own ``max_hits`` repeats at most as many spans as
    were found before it, so the replay stops inside that block.  Returns
    ([(batch, indices)], tuples examined, budget exceeded, stopped on
    ``max_hits``): the serial run's hits are those at ``indices`` of each
    ``_Hits`` batch, in order.
    """
    found: list[tuple[_Hits, list[int]]] = []
    seen: set[str] = set()
    offset = 0
    for res in results:
        for batch in res["hits"]:
            kept: list[int] = []
            found.append((batch, kept))
            for i, (node, key) in enumerate(zip(batch.nodes, batch.keys)):
                if offset + node > spec.max_tuples:
                    break  # as are the block's later hits: its nodes ascend
                if key in seen:
                    continue
                seen.add(key)
                kept.append(i)
                if spec.max_hits and len(seen) >= spec.max_hits:
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
    found, cert.tuples_examined, cert.budget_exceeded, cert.early_stopped = _replay_serial(spec, results)
    cert.exhausted = not cert.budget_exceeded and not cert.early_stopped
    return _finish(cert, found, start_time)


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


def _find_randomized(spec: SearchSpec) -> tuple[list[PfCode], SearchCertificate]:
    """Draw ``spec.samples`` tuples in chunks and hand the spans of the commuting, independent ones to ``_leaves``.

    A chunk holds ``_BLOCK_ROWS`` // (r m) samples, one at least, and its
    commuting samples come from ``_Engine._commuting``; since each sample
    takes its own r raw words, the chunk size changes no draw.  The
    prefilter mask ``_leaves`` reads is a broadcast view of True: a
    sample has no generators outside its own row.  The commuting samples
    go to ``_leaves`` in blocks of ``_Engine._room`` samples, by the rule
    that sizes ``_decide``'s chunks, and a block's spans grow from the
    zero row by ``_Engine._grown``, one generator a step, so a sample's
    D^r codes list each span element equally often.  A sample is
    dependent, and dropped, when coset 1 of some step t (rows D^t ..
    2 D^t - 1, the coset S + g) holds a zero code, that is when g lies in
    the span S of the generators before it.  An independent sample spans
    at most D^r and at least p^r elements (each generator enlarges the
    span by a factor of at least p, with p = D for prime D and p >= 2
    otherwise), so when the target span size D^(n-k) lies outside that
    range nothing is drawn; when it lies inside and D^r exceeds
    ``MAX_CANDIDATES``, which only a composite D with many generators
    asks for, :class:`BudgetExceededError` is raised.  The samples after
    a stop were drawn but are not counted as examined.
    """
    start_time = time.monotonic()
    engine = _Engine(spec)
    bits = np.random.PCG64(spec.seed)
    cert = SearchCertificate(
        spec=spec.to_dict(),
        candidate_count=engine.count,
        estimated_tuples=spec.samples,
    )
    d, r = spec.modulus, spec.generator_count
    if not (r < engine.span_size.bit_length() and (d if engine.prime else 2) ** r <= engine.span_size <= d**r):
        cert.tuples_examined = spec.samples  # every sample fails the span-size test of _leaves
    elif d**r > MAX_CANDIDATES:
        raise BudgetExceededError(f"spans of {d}^{r} rows per sample exceed the supported size {MAX_CANDIDATES}")
    chunk = max(1, _BLOCK_ROWS // (r * spec.num_modes))
    columns = np.arange(engine.weights.shape[1])  # every weight vector; _leaves tests every generator
    every = np.broadcast_to(True, (chunk, len(columns)))  # a chunk's tuples have no other generators
    step = engine._room(d**r, r, columns)
    while cert.tuples_examined < spec.samples and not engine.stopped:
        size = min(chunk, spec.samples - cert.tuples_examined)
        idx = _floyd_draw(bits, engine.count, r, size)
        commuting = engine._commuting(idx)
        for lo in range(0, len(commuting), step):
            block = commuting[lo : lo + step]
            rows = np.zeros((len(block), 1, spec.num_modes), dtype=engine.digit_dtype)
            fresh = np.ones(len(block), dtype=bool)
            for t in range(r):
                rows, codes = engine._grown(rows, idx[block, t])
                fresh &= ~(codes[:, d**t : 2 * d**t] == 0).any(axis=1)  # S + g holds 0 exactly when g is in S
            block = block[fresh]
            passed, spans = engine._leaves(idx[block], codes[fresh], columns, every)
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
    return _finish(cert, [(batch, list(range(len(batch.keys)))) for batch in engine.hits], start_time)


def _finish(cert: SearchCertificate, found: list[tuple[_Hits, list[int]]], start_time: float):
    """(codes, certificate) of a search whose hits are those at ``indices`` of each batch, for (batch, indices) in ``found``, in order.

    The hits' generator rows and phases are gathered into one stack each,
    and every certificate entry is written from one ``tolist`` of each,
    flattened to one generator a row.  Each code is built by
    ``PfCode._from_forms`` from its rows, phases and forms, its generator
    operators left unbuilt until read.
    """
    codes = []
    keys = [batch.keys[i] for batch, picks in found for i in picks]
    if keys:
        d, m = cert.spec["D"], cert.spec["num_modes"]
        rows = np.concatenate([batch.rows[picks] for batch, picks in found])
        mu = np.concatenate([batch.mu[picks] for batch, picks in found])
        r = rows.shape[1]
        generators = [{"mu": x, "alpha": a} for x, a in zip(mu.ravel().tolist(), rows.reshape(-1, m).tolist())]
        cert.hits.extend({"key": key, "generators": generators[t * r : t * r + r]} for t, key in enumerate(keys))
        forms = [batch.forms(i) for batch, picks in found for i in picks]
        codes = [PfCode._from_forms(d, m, t_rows, t_mu, t_forms) for t_rows, t_mu, t_forms in zip(rows, mu, forms)]
    cert.wall_time_s = time.monotonic() - start_time
    return codes, cert


def find_codes(spec: SearchSpec, threads: int = 1) -> tuple[list[PfCode], SearchCertificate]:
    """Run the search described by ``spec``; returns (codes, certificate).

    Exhaustive mode partitions the first-generator choice across processes
    when ``threads > 1``; results and hit order are identical to a serial
    run.  Randomized mode is always serial and reproducible by seed.  The
    certificate depends on ``spec`` and ``threads`` alone, and no
    environment variable sets either.  A ``threads`` that is not a positive
    integer raises ValueError naming it, in either mode.
    """
    if not _is_int(threads) or threads < 1:
        raise ValueError(f"threads must be a positive integer, not {threads!r}")
    _candidate_count(spec.modulus, spec.num_modes)  # an oversized space raises before any primality test
    _bound_prefilters(spec)
    if spec.symmetry_reduction and not _is_prime(spec.modulus) and spec.mode == "exhaustive":
        spec = replace(spec, symmetry_reduction=False)
    if spec.mode == "randomized":
        return _find_randomized(spec)
    return _find_exhaustive(spec, threads)
