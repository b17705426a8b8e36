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
then two prefilters over the weight-(< d) and weight-d vectors fix the
distance at d.  The tuple is commuting and parity-zero by construction, so
the acceptance test only assigns phases and computes the span key: in
closed form for prime D, where the tuple is also independent, and by the
phase solve of ``canonical_phases`` for composite D, whose failure is the
only rejection left.

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
candidate position.  Randomized mode draws its samples one at a time, as
ever, and tests commutation for a chunk of them at once.

With ``--threads N`` the first-generator range is cut into blocks run on
N processes and replayed in serial order as they finish; once the replay
stops, the remaining blocks are cancelled or told to stop.  A finished
enumeration that found nothing is returned as an explicit nonexistence
certificate; randomized mode never claims nonexistence.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .algebra import PfOperator, lambda_matrix
from .code import (
    _BLOCK_ROWS,
    PfCode,
    PhaseAssignmentError,
    _colex_supports,
    _independent_phases,
    _lex_digits,
    _place,
    canonical_phases,
    stabilizer_matrix,
)

# The acceptance test calls none of these; the benchmark's span tracer
# (perfbench/spans.py) still patches these names here.
from .code import codespace_dim, distance, validate  # noqa: F401
from .zmod import _is_int, _is_prime, howell_form

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
# Randomized mode tests commutation for this many samples at once.
_SAMPLE_CHUNK = 256
# ``--threads N`` cuts the first-generator range into this many blocks per process.
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
        payload["signature"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        if not canonical:
            payload["wall_time_s"] = self.wall_time_s
        return payload


def canonical_equivalence_key(code: PfCode) -> str:
    """Equal keys iff equal stabilizer spans (Howell form of the row matrix)."""
    h = howell_form(stabilizer_matrix(code))
    raw = f"{code.modulus}:{code.num_modes}:".encode() + h.array.tobytes()
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
    prefix = np.array(list(itertools.product(range(modulus), repeat=free)), dtype=np.int64)
    last = (-prefix.sum(axis=1)) % modulus
    cand = np.hstack([prefix, last[:, None]])
    return cand[1:]  # drop the all-zero row


def _weight_vectors(modulus: int, num_modes: int, lo: int, hi: int) -> np.ndarray:
    """All exponent vectors with weight in [lo, hi] (in no particular order)."""
    out = [np.zeros((0, num_modes), dtype=np.int64)]
    for w in range(lo, hi + 1):
        supports = _colex_supports(num_modes, w)
        assignments = _lex_digits(np.arange((modulus - 1) ** w), modulus - 1, w)
        positions = np.repeat(supports, len(assignments), axis=0)
        letter_idx = np.tile(assignments, (len(supports), 1))
        out.append(_place(positions, letter_idx, np.arange(1, modulus)[:, None], num_modes))
    return np.vstack(out)


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
        lam = lambda_matrix(d, m).array
        self.pairing = (self.cand @ lam) % d  # row i pairs as pairing[i] @ x
        low = _weight_vectors(d, m, 1, spec.target_d - 1)
        exact = _weight_vectors(d, m, spec.target_d, spec.target_d)
        self.low_ok = self._commutes(low)
        self.exact_ok = self._commutes(exact)
        # Candidate position of each weight vector; one that is not parity-zero
        # gets the sentinel slot ``count``, which no span ever sets.
        self.low_pos = self._positions(low)
        self.exact_pos = self._positions(exact)
        self.in_span = np.zeros(self.count + 1, dtype=bool)
        self.nodes = 0
        # (node index, span key, generators) of each hit, in the order found.
        self.hits: list[tuple[int, str, tuple[PfOperator, ...]]] = []
        self.hit_keys: set[str] = set()
        # Sorted codes (as bytes) of every span of the right size that reached
        # _leaf, kept only when spans can repeat.
        self.seen_spans: set[bytes] = set()
        self.stopped = False
        # Set by another process to end a block early (``_run_block``).
        self.halt = None

    # -- helpers -----------------------------------------------------------

    def _commutes(self, vectors: np.ndarray) -> np.ndarray:
        """[i, t]: candidate i commutes with ``vectors[t]``.

        Each pairing is below m (D-1)^2 < 2^53, so the float (BLAS) product
        and ``fmod`` are exact; reducing in place keeps one table-sized
        temporary.
        """
        pairs = self.pairing.astype(np.float64) @ vectors.T
        np.fmod(pairs, self.spec.modulus, out=pairs)
        return pairs == 0

    def _positions(self, vectors: np.ndarray) -> np.ndarray:
        d = self.spec.modulus
        return np.where(vectors.sum(axis=1) % d == 0, (vectors @ self.place) // d - 1, self.count)

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

    def _accept(self, chosen: list[int]) -> None:
        """Record a hit for a span that passed ``_leaf``: assign phases and compute the span key.

        ``_leaf`` has fixed k (span size) and d (the prefilters), and hands
        each span over at most once.  The tuple is commuting (the
        commutation masks) and parity-zero (the candidates), so the phases
        decide validity.  For prime D it is also linearly independent (the
        span strictly grew at every step; randomized mode drops dependent
        tuples) and the closed-form phases of ``_independent_phases`` make
        it valid.  Composite D solves the phase equations; a span with no
        solution raises :class:`PhaseAssignmentError` and is not a code.
        """
        spec = self.spec
        d, m = spec.modulus, spec.num_modes
        code = PfCode(d, m, tuple(PfOperator(d, m, 0, tuple(int(x) for x in self.cand[i])) for i in chosen))
        if self.prime:
            code = _independent_phases(code)
        else:
            try:
                code = canonical_phases(code)
            except PhaseAssignmentError:
                return
        key = canonical_equivalence_key(code)
        self.hit_keys.add(key)
        self.hits.append((self.nodes, key, tuple(code.generators)))
        if spec.max_hits and len(self.hits) >= spec.max_hits:
            self.stopped = True

    def _leaf(self, chosen: list[int], codes: np.ndarray) -> None:
        """Hand a full tuple to ``_accept`` if its span has D^(n-k) elements and passes both prefilters.

        Everything from here on is a property of the span (size, the
        prefilters, phase solvability), so when spans can repeat (no
        symmetry reduction, or randomized mode) a span already seen,
        accepted or not, is skipped before the prefilters; it is keyed by
        its sorted codes.  The span's candidate positions are set in
        ``in_span`` for the prefilters and cleared again before ``_accept``.
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
        passed = self._low_weight_clear(chosen) and self._has_exact_weight_logical(chosen)
        self.in_span[members] = False
        if passed:
            self._accept(chosen)

    def _low_weight_clear(self, chosen: list[int]) -> bool:
        """Every weight < d vector centralizing all generators must be a stabilizer."""
        central = self.low_ok[chosen].all(axis=0)
        return bool(self.in_span[self.low_pos[central]].all())

    def _has_exact_weight_logical(self, chosen: list[int]) -> bool:
        central = self.exact_ok[chosen].all(axis=0)
        return not self.in_span[self.exact_pos[central]].all()

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
                if self.stopped or (self.halt is not None and not chosen and self.halt.is_set()):
                    return
            self._advance(len(block) - counted)


def _code_payload(generators: tuple[PfOperator, ...]) -> dict:
    return {
        "generators": [{"mu": g.mu, "alpha": list(g.alpha)} for g in generators],
    }


# The event a worker process's blocks poll to stop early (None when serial).
_worker_halt = None


def _set_worker_halt(event) -> None:
    global _worker_halt
    _worker_halt = event


def _run_block(spec_dict: dict, lo: int, hi: int) -> dict:
    spec = SearchSpec.from_dict(spec_dict)
    engine = _Engine(spec)
    engine.halt = _worker_halt
    budget_hit = False
    try:
        engine.run(lo, hi)
    except BudgetExceededError:
        budget_hit = True
    return {
        "nodes": engine.nodes,
        "hits": [(node, key, _code_payload(gens)) for node, key, gens in engine.hits],
        "stopped": engine.stopped,
        "budget": budget_hit,
    }


def _replay_serial(spec: SearchSpec, results: list[dict]) -> tuple[dict, int, bool, bool]:
    """The serial run's hits, tuple count and stop flags, from blocks each run on its own.

    A block visits the nodes of its first generators in the serial order,
    so walking the blocks in first-generator order with a running node
    offset replays the serial stops: the budget at node ``max_tuples + 1``
    and ``max_hits`` at the node of the last hit.  A hit whose span an
    earlier block found (no symmetry reduction) does not count.  A block
    that stopped at its own ``max_hits`` repeats at most as many spans as
    were found before it, so the replay stops inside that block.  Returns ({key: payload}, tuples examined, budget exceeded,
    stopped on ``max_hits``).
    """
    found: dict[str, dict] = {}
    offset = 0
    for res in results:
        for node, key, payload in res["hits"]:
            if offset + node > spec.max_tuples:
                break
            if key in found:
                continue
            found[key] = payload
            if spec.max_hits and len(found) >= spec.max_hits:
                return found, offset + node, False, True
        if offset + res["nodes"] > spec.max_tuples:
            return found, spec.max_tuples + 1, True, False
        offset += res["nodes"]
    return found, offset, False, False


def _run_blocks(spec: SearchSpec, count: int, threads: int) -> list[dict]:
    """Run the first-generator range as blocks on ``threads`` processes; the in-order prefix the replay needs.

    The range is cut into ``_BLOCKS_PER_THREAD`` blocks per process,
    submitted in order.  As blocks finish, the in-order prefix of finished
    blocks is replayed; once the replay stops (``max_hits`` or the
    budget), the blocks not yet started are cancelled and the running
    ones are told to stop through a shared event, which they poll between
    first generators.  Blocks after the stop do not change the replay.
    """
    import concurrent.futures as futures
    import multiprocessing

    halt = multiprocessing.Event()
    bounds = np.unique(np.linspace(0, count, _BLOCKS_PER_THREAD * threads + 1).astype(int))
    finished: dict[int, dict] = {}
    results: list[dict] = []
    with futures.ProcessPoolExecutor(threads, initializer=_set_worker_halt, initargs=(halt,)) as pool:
        jobs = {
            pool.submit(_run_block, spec.to_dict(), int(lo), int(hi)): n
            for n, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        }
        try:
            for job in futures.as_completed(jobs):
                finished[jobs[job]] = job.result()
                while len(results) in finished:
                    results.append(finished.pop(len(results)))
                _, _, budget, stopped = _replay_serial(spec, results)
                if budget or stopped:
                    break
        finally:  # also when a block failed: leave no block running
            halt.set()
            for job in jobs:
                job.cancel()
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
        results = [_run_block(spec.to_dict(), 0, count)]
    else:
        results = _run_blocks(spec, count, threads)
    found, cert.tuples_examined, cert.budget_exceeded, stopped = _replay_serial(spec, results)
    codes = []
    for key, payload in found.items():
        gens = tuple(
            PfOperator(spec.modulus, spec.num_modes, g["mu"], tuple(g["alpha"]))
            for g in payload["generators"]
        )
        codes.append(PfCode(spec.modulus, spec.num_modes, gens))
        cert.hits.append({"key": key, **payload})
    cert.early_stopped = bool(spec.max_hits) and len(codes) >= spec.max_hits
    cert.exhausted = not cert.budget_exceeded and not stopped
    cert.wall_time_s = time.monotonic() - start_time
    return codes, cert


def _find_randomized(spec: SearchSpec) -> tuple[list[PfCode], SearchCertificate]:
    start_time = time.monotonic()
    engine = _Engine(spec)
    rng = np.random.default_rng(spec.seed)
    cert = SearchCertificate(
        spec=spec.to_dict(),
        candidate_count=engine.count,
        estimated_tuples=spec.samples,
    )
    codes: list[PfCode] = []
    while cert.tuples_examined < spec.samples and not engine.stopped:
        size = min(_SAMPLE_CHUNK, spec.samples - cert.tuples_examined)
        # One draw per sample, in order, so the chunking leaves the stream unchanged.
        idx = np.sort([rng.choice(engine.count, spec.generator_count, replace=False) for _ in range(size)], axis=1)
        pairs = np.einsum("sim,sjm->sij", engine.pairing[idx], engine.cand[idx]) % spec.modulus
        for s in np.flatnonzero(~pairs.any(axis=(1, 2))).tolist():
            chosen = idx[s].tolist()
            span, span_codes = engine._zero_span()
            for i in chosen:
                if engine.codes[i] in span_codes:
                    break  # dependent tuple
                coset, coset_codes = engine._cosets(span, [i])
                span, span_codes = engine._grow(span, span_codes, coset[0], coset_codes[0])
            else:
                engine._leaf(chosen, span_codes)
            if engine.stopped:
                size = s + 1  # the samples after the stop were drawn but not examined
                break
        cert.tuples_examined += size
    for _, key, gens in engine.hits:
        codes.append(PfCode(spec.modulus, spec.num_modes, gens))
        cert.hits.append({"key": key, **_code_payload(gens)})
    cert.early_stopped = engine.stopped
    cert.exhausted = False  # sampling can never certify nonexistence
    cert.wall_time_s = time.monotonic() - start_time
    return codes, cert


def find_codes(spec: SearchSpec, threads: int | None = None) -> tuple[list[PfCode], SearchCertificate]:
    """Run the search described by ``spec``; returns (codes, certificate).

    Exhaustive mode partitions the first-generator choice across processes
    when ``threads > 1``; results and hit order are identical to a serial
    run.  Randomized mode is always serial and reproducible by seed.
    """
    _candidate_count(spec.modulus, spec.num_modes)  # an oversized space raises before any primality test
    if spec.symmetry_reduction and not _is_prime(spec.modulus) and spec.mode == "exhaustive":
        spec = SearchSpec.from_dict({**spec.to_dict(), "symmetry_reduction": False})
    if spec.mode == "randomized":
        return _find_randomized(spec)
    threads = default_thread_count() if threads is None else max(1, threads)
    return _find_exhaustive(spec, threads)
