"""Exhaustive and randomized search for parafermion codes with target (k, d).

The exhaustive engine enumerates generator tuples over the parity-zero
exponent vectors in lexicographic order, pruning on the first commutation
failure, on span-growth failure, and (for prime D) on non-canonical tuples:
every stabilizer span contains exactly one generating tuple picked greedily
by lexicographic minimality, so each candidate code is visited once.  The
canonical test is incremental (McKay's canonical augmentation): a parent
tuple has already passed it and candidate indices only grow, so a child
adding generator g to span S is canonical exactly when g is the minimum of
the new cosets S + c*g, c = 1 .. D-1.

A full tuple meets one acceptance rule for every modulus.  Its span must
have D^(n-k) elements, which fixes k; a span met again under another
generating tuple (no symmetry reduction, or randomized mode) is skipped;
then two prefilters, each one product at the leaf of the tuple's pairing
rows with the weight-(< d), then the weight-d, vectors, fix d.  The tuple
is commuting and parity-zero by construction, so the acceptance test only
assigns phases and keys the span, from arrays the engine already holds.
The key hashes the span's Howell basis, read off its sorted integer codes
(``code._span_basis``): the row with pivot j is the least span code in
[D^(m-1-j), D^(m-j)).  A span of D^r elements means independent rows
(always so for prime D), and their phases come in closed form from the
rows alone (``code._phase_solution``, which ``canonical_phases`` uses
too).  A dependent tuple (composite D with r > n - k) takes a Howell form
of its rows and a phase solve over Z_2D; no solution is the only
rejection left.

Each exponent vector v carries the base-D integer code ``v @ place`` with
``place = D^(m-1), ..., D, 1``; lexicographic order on vectors is integer
order on codes, so the canonical test is one ``min`` over coset codes.  The
engine tests all children of a node together: one numpy kernel builds the
coset rows of a block of children, and only the children that pass are
explored, in index order.  The node counter advances over each run of
failing children in one step, so node indices, the budget stop and the
``max_hits`` stop are those of a one-node-at-a-time walk.  A nonzero
parity-zero vector with code c is candidate ``c // D - 1``, so span
membership (strict growth, the prefilters) reads arrays indexed by
candidate position.  Randomized mode draws a chunk of samples at once
(``_floyd_draw``, r raw PCG64 words per sample, in order), tests their
commutation together and builds every span code of the commuting ones in
one kernel, a coefficient table times their rows (``_find_randomized``).

With ``--threads N`` the first-generator range is cut into 4N blocks,
mapped in order over a process pool of at most N workers (no more than
the blocks or the CPUs).  The pool yields results in block order, and
each is replayed with the serial stop rule as it arrives; once the replay
stops, leaving the pool terminates the workers.  A finished enumeration
that found nothing is returned as an explicit nonexistence certificate;
randomized mode never claims nonexistence.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from functools import partial
from math import comb

import numpy as np

from .algebra import _pairing
from .code import _BLOCK_ROWS, PfCode, PhaseAssignmentError, _lex_digits, _phase_solution, _span_basis, _weight_rows

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
    "default_thread_count",
]

MAX_CANDIDATES = 400_000
DEFAULT_TUPLE_BUDGET = 200_000_000
# Randomized mode draws and tests commutation for this many samples at once.
_SAMPLE_CHUNK = 256
# Recorded in every randomized certificate: names the sampling stream, which is not a setting.
SAMPLER = "floyd-pcg64-raw-v1"
# ``--threads N`` cuts the first-generator range into this many blocks per requested thread.
_BLOCKS_PER_THREAD = 4


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
            object.__setattr__(self, "generator_count", self.num_modes // 2 - self.target_k)
        if not _is_int(self.generator_count) or self.generator_count < 1:
            raise ValueError("generator_count must be an integer >= 1")
        if self.mode == "randomized":
            with suppress(BudgetExceededError):  # an oversized space exits when the search starts
                if self.generator_count > _candidate_count(self.modulus, self.num_modes):
                    raise ValueError("generator_count exceeds the number of candidate vectors")

    def to_dict(self) -> dict:
        return {
            "D": self.modulus,
            "num_modes": self.num_modes,
            "target_k": self.target_k,
            "target_d": self.target_d,
            "mode": self.mode,
            "seed": self.seed,
            "samples": self.samples,
            "generator_count": self.generator_count,
            "symmetry_reduction": self.symmetry_reduction,
            "max_hits": self.max_hits,
            "max_tuples": self.max_tuples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        """The spec that ``data`` describes: the keys of :meth:`to_dict`, with
        ``modulus`` accepted for ``D``.  Any other key raises ValueError, so a
        misspelled field is not silently left at its default."""
        if "sampler" in data:
            raise ValueError("'sampler' is recorded in randomized certificates; it is not a search setting")
        allowed = {"D", *(f.name for f in fields(cls))}
        for key in data:
            if key not in allowed:
                raise ValueError(f"unknown search spec field {key!r}")
        known = {
            "modulus": data.get("D", data.get("modulus")),
            "num_modes": data["num_modes"],
            "target_k": data["target_k"],
            "target_d": data["target_d"],
        }
        for key in ("mode", "seed", "samples", "generator_count", "symmetry_reduction", "max_hits", "max_tuples"):
            if key in data:
                known[key] = data[key]
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
        payload = {
            "spec": self.spec,
            "candidate_count": self.candidate_count,
            "estimated_tuples": self.estimated_tuples,
            "tuples_examined": self.tuples_examined,
            "hits": self.hits,
            "exhausted": self.exhausted,
            "early_stopped": self.early_stopped,
            "budget_exceeded": self.budget_exceeded,
            "threads": self.threads,
        }
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
    rows = np.array([basis[j] for j in sorted(basis)], dtype=np.int64).reshape(-1, code.num_modes)
    raw = f"{code.modulus}:{code.num_modes}:".encode() + rows.tobytes()
    return hashlib.sha256(raw).hexdigest()


def default_thread_count() -> int:
    value = os.environ.get("PFSTAB_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


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

    A span is carried as its rows (row 0 is the zero vector) and their
    integer codes ``row @ place``.  A nonzero parity-zero vector with code c
    is candidate ``c // D - 1`` (the candidates run through the first m - 1
    digits in order), so span membership reads a boolean array indexed by
    candidate position.  The coset-minimum test assumes prime D:
    ``find_codes`` turns symmetry reduction off for composite moduli.
    """

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        d, m = spec.modulus, spec.num_modes
        self.cand = _parity_zero_candidates(d, m)
        self.count = self.cand.shape[0]
        self.place = d ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.codes = self.cand @ self.place  # ascending, as the candidates are sorted
        self.multiples = np.arange(1, d, dtype=np.int64)[:, None, None]
        self.prime = _is_prime(d)
        # |S| = D^(n-k) for a valid code, so a span of any other size has the wrong k.
        n = m // 2
        self.span_size = d ** (n - spec.target_k) if spec.target_k <= n else 0
        # Without symmetry reduction, or when sampling, a span can arrive more than once.
        self.repeats = spec.mode == "randomized" or not spec.symmetry_reduction
        self.pairing = _pairing(self.cand, d)  # row i pairs as pairing[i] @ x
        self.low = self._weight_vectors(1, spec.target_d - 1)
        self.exact = self._weight_vectors(spec.target_d, spec.target_d)
        self.in_span = np.zeros(self.count + 1, dtype=bool)
        self.nodes = 0
        # (node index, span key, phased code) of each hit, in the order found.
        self.hits: list[tuple[int, str, PfCode]] = []
        # Filled once per hit and read only by the benchmark's span tracer (perfbench/spans.py).
        self.hit_keys: set[str] = set()
        # Sorted codes (as bytes) of every span of the right size that reached
        # _leaf, kept only when spans can repeat.
        self.seen_spans: set[bytes] = set()
        self.stopped = False

    # -- helpers -----------------------------------------------------------

    def _weight_vectors(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The exponent vectors of weight lo .. hi (none above m), as columns, and their candidate positions.

        A vector that is not parity-zero gets the sentinel position ``count``, which no span ever sets.
        """
        d = self.spec.modulus
        vectors = _weight_rows(d, self.spec.num_modes, lo, hi)
        positions = np.where(vectors.sum(axis=1) % d == 0, (vectors @ self.place) // d - 1, self.count)
        return np.ascontiguousarray(vectors.T, dtype=np.float64), positions

    def _central_in_span(self, chosen: list[int], columns: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Span membership of each vector (a column of ``columns``) that commutes with every chosen generator.

        Each pairing is an integer below m (D-1)^2 < 2^53, so the BLAS product and ``fmod`` are exact.
        """
        pairs = self.pairing[chosen].astype(np.float64) @ columns
        np.fmod(pairs, self.spec.modulus, out=pairs)
        return self.in_span[positions[~pairs.any(axis=0)]]

    def _members(self, codes: np.ndarray) -> np.ndarray:
        """Candidate positions of a span's nonzero elements (``codes[0]`` is the zero vector)."""
        return codes[1:] // self.spec.modulus - 1

    def _comm_mask(self, i: int) -> np.ndarray:
        return ((self.pairing[i] @ self.cand.T) % self.spec.modulus) == 0

    def _zero_span(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((1, self.spec.num_modes), dtype=np.int64), np.zeros(1, dtype=np.int64)

    def _cosets(self, span: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of span + c * cand[j] for each j in ``block`` and c = 1 .. D-1, and their codes.

        Shapes (K, D-1, |span|, m) and (K, D-1, |span|) for K = len(block).
        """
        rows = span + self.multiples * self.cand[block][:, None, None, :]
        rows %= self.spec.modulus
        return rows, rows @ self.place

    def _grow(self, span, codes, coset, coset_codes) -> tuple[np.ndarray, np.ndarray]:
        """The span generated by ``span`` and a generator outside it, given its coset rows.

        For prime D the cosets span + c*g are disjoint and already distinct;
        for composite D a multiple c*g can fall back into the span.
        """
        rows = np.vstack((span, coset.reshape(-1, span.shape[1])))
        all_codes = np.concatenate((codes, coset_codes.ravel()))
        if self.prime:
            return rows, all_codes
        all_codes, first = np.unique(all_codes, return_index=True)
        return rows[first], all_codes

    def _advance(self, count: int) -> None:
        """Count ``count`` more nodes; the budget stops at node ``max_tuples + 1``."""
        self.nodes += count
        if self.nodes > self.spec.max_tuples:
            self.nodes = self.spec.max_tuples + 1
            raise BudgetExceededError(f"tuple budget {self.spec.max_tuples} exceeded")

    def _accept(self, chosen: list[int], codes: np.ndarray) -> None:
        """Record a hit for a span that passed ``_leaf``, given its codes: phase the tuple and key the span.

        ``_leaf`` has fixed k (span size) and d (the prefilters), and hands
        each span over at most once.  The tuple is commuting (the
        commutation masks) and parity-zero (the candidates), so the phases
        decide validity.  A span of D^r elements means independent rows
        (always so for prime D, where the span grew at every step or the
        sample was dropped as dependent): the rows have no kernel
        relations, and the phases come in closed form and always exist.
        Otherwise (composite D, r > n - k) the relations come from a Howell
        form of the rows, and a span with no phase solution is not a code.
        The span's Howell basis, and with it the span key, is read off its
        sorted codes; the hit's code is built once, phased, and keeps it.
        """
        spec = self.spec
        d, m = spec.modulus, spec.num_modes
        rows = self.cand[chosen]
        if len(codes) == d ** len(chosen):
            relations = np.zeros((0, len(chosen)), dtype=np.int64)
        else:
            relations = kernel_basis(ZModMatrix(d, rows)).array
        try:
            mu = _phase_solution(rows, relations, d)
        except PhaseAssignmentError:
            return
        code = PfCode._from_forms(d, m, rows, mu, (_span_basis(np.sort(codes), d, m), relations))
        key = canonical_equivalence_key(code)
        self.hit_keys.add(key)
        self.hits.append((self.nodes, key, code))
        if spec.max_hits and len(self.hits) >= spec.max_hits:
            self.stopped = True

    def _leaf(self, chosen: list[int], codes: np.ndarray) -> None:
        """Hand a full tuple to ``_accept`` if its span has D^(n-k) elements and passes both prefilters.

        Everything from here on is a property of the span (size, the
        prefilters, phase solvability), so when spans can repeat (no
        symmetry reduction, or randomized mode) a span already seen,
        accepted or not, is skipped before the prefilters; it is keyed by
        its sorted codes.  The span's candidate positions are set in
        ``in_span`` for the prefilters (every centralizing vector of weight
        below d is in the span, some weight-d one is not) and cleared again.
        """
        if len(codes) != self.span_size:
            return
        if self.repeats:
            key = np.sort(codes).tobytes()
            if key in self.seen_spans:
                return
            self.seen_spans.add(key)
        members = self._members(codes)
        self.in_span[members] = True
        passed = self._central_in_span(chosen, *self.low).all() and not self._central_in_span(chosen, *self.exact).all()
        self.in_span[members] = False
        if passed:
            self._accept(chosen, codes)

    # -- enumeration --------------------------------------------------------

    def run(self, first_lo: int = 0, first_hi: int | None = None) -> None:
        first_hi = self.count if first_hi is None else first_hi
        self._expand([], None, *self._zero_span(), np.arange(first_lo, first_hi))

    def _expand(self, chosen: list[int], comm_ok: np.ndarray | None, span: np.ndarray,
                codes: np.ndarray, children: np.ndarray) -> None:
        """Count the children that add each candidate in ``children`` to ``chosen``, and explore them.

        ``chosen`` has passed the canonical test itself and every child
        index exceeds its indices, so the child adding j is the greedy
        lexicographically minimal generating tuple of its span exactly when
        cand[j] is the minimum of the new coset rows span + c*cand[j]
        (McKay's canonical augmentation).  One kernel tests a block of
        children at once, at most about ``_BLOCK_ROWS`` coset rows; without
        symmetry reduction every child passes.  The node counter advances
        over each run of failing children in one step, so node indices,
        the budget stop and the ``max_hits`` stop are those of a walk that
        counts one child at a time.  The children that pass grow the span
        and recurse (or reach ``_leaf``) in index order.
        """
        spec = self.spec
        leaf = len(chosen) + 1 == spec.generator_count
        step = max(1, _BLOCK_ROWS // (len(codes) * (spec.modulus - 1)))
        for lo in range(0, len(children), step):
            block = children[lo : lo + step]
            rows, coset_codes = self._cosets(span, block)
            passed = np.arange(len(block))
            if spec.symmetry_reduction:
                passed = np.flatnonzero(coset_codes.reshape(len(block), -1).min(axis=1) == self.codes[block])
            counted = 0
            for p in passed.tolist():
                self._advance(p + 1 - counted)
                counted = p + 1
                j = int(block[p])
                grown, grown_codes = self._grow(span, codes, rows[p], coset_codes[p])
                if leaf:
                    self._leaf(chosen + [j], grown_codes)
                else:
                    mask = self._comm_mask(j) if comm_ok is None else comm_ok & self._comm_mask(j)
                    mask[self._members(grown_codes)] = False  # span must strictly grow
                    self._expand(chosen + [j], mask, grown, grown_codes, np.flatnonzero(mask[j + 1 :]) + (j + 1))
                if self.stopped:
                    return
            self._advance(len(block) - counted)


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


def _run_blocks(spec: SearchSpec, count: int, threads: int) -> list[dict]:
    """Run the first-generator range as blocks on a process pool; the in-order prefix the replay needs.

    The range is cut into ``_BLOCKS_PER_THREAD`` blocks per thread, and
    the pool has min(threads, blocks, CPUs) workers, all of which start at
    once.  ``imap`` yields the results in block order; each is replayed as
    it arrives, and once the replay stops (``max_hits`` or the budget),
    leaving the pool terminates and joins the workers, also when a block
    failed.  Blocks after the stop do not change the replay.
    """
    # Past ``count`` cuts every block is one candidate, so the cap keeps the blocks and bounds the array.
    edges = np.unique(np.linspace(0, count, min(_BLOCKS_PER_THREAD * threads, count) + 1).astype(int)).tolist()
    blocks = list(zip(edges[:-1], edges[1:]))
    results: list[dict] = []
    with multiprocessing.Pool(min(threads, len(blocks), os.cpu_count() or 1)) as pool:
        for res in pool.imap(partial(_run_block, spec), blocks):
            results.append(res)
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
    """The D^r x r coefficients of every combination of a sample's r generators, or None when no sample can pass ``_leaf``.

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
    """Draw ``spec.samples`` tuples in chunks and hand each commuting, independent one's span to ``_leaf``.

    One kernel builds every span code of a block of a chunk's commuting
    samples, at most about ``_BLOCK_ROWS`` rows: the coefficient table of
    ``_span_table`` times each sample's rows.  A sample is dependent, and
    dropped, exactly when generator t's code is among the table's first
    D^(t-1) codes, the span of the generators before it, for some t.  An
    independent sample's D^r codes are distinct for prime D; for
    composite D they go through ``np.unique``.  The samples after a stop
    were drawn but are not counted as examined.
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
        cert.tuples_examined = spec.samples  # every sample fails _leaf's span-size test
    d, r = spec.modulus, spec.generator_count
    while cert.tuples_examined < spec.samples and not engine.stopped:
        size = min(_SAMPLE_CHUNK, spec.samples - cert.tuples_examined)
        idx = _floyd_draw(bits, engine.count, r, size)
        step = max(1, _BLOCK_ROWS // len(table))
        pairs = np.einsum("sim,sjm->sij", engine.pairing[idx], engine.cand[idx]) % d
        commuting = np.flatnonzero(~pairs.any(axis=(1, 2)))
        for lo in range(0, len(commuting), step):
            block = commuting[lo : lo + step]
            spans = ((table @ engine.cand[idx[block]]) % d) @ engine.place
            dependent = np.zeros(len(block), dtype=bool)
            for t in range(1, r):
                dependent |= (spans[:, : d**t] == spans[:, d**t, None]).any(axis=1)
            for s, codes in zip(block[~dependent].tolist(), spans[~dependent]):
                engine._leaf(idx[s].tolist(), codes if engine.prime else np.unique(codes))
                if engine.stopped:
                    size = s + 1  # the samples after the stop were drawn but not examined
                    break
            if engine.stopped:
                break
        cert.tuples_examined += size
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
    """
    _candidate_count(spec.modulus, spec.num_modes)  # an oversized space raises before any primality test
    _bound_prefilters(spec)
    if spec.symmetry_reduction and not _is_prime(spec.modulus) and spec.mode == "exhaustive":
        spec = replace(spec, symmetry_reduction=False)
    if spec.mode == "randomized":
        return _find_randomized(spec)
    threads = default_thread_count() if threads is None else max(1, threads)
    return _find_exhaustive(spec, threads)
