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

Each exponent vector v carries the base-D integer code ``v @ place`` with
``place = D^(m-1), ..., D, 1``; lexicographic order on vectors is integer
order on codes, so the canonical test is one ``min`` over coset codes and
every span-membership test compares codes.  A finished enumeration that
found nothing is returned as an explicit nonexistence certificate;
randomized mode never claims nonexistence.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .algebra import PfOperator, lambda_matrix
from .code import (
    PfCode,
    _codespace_dim,
    _colex_supports,
    _distance,
    _group_order,
    _lex_digits,
    _place,
    canonical_phases,
    stabilizer_matrix,
    validate,
)

# _accept validates once and then calls the unvalidated cores; the benchmark's
# span tracer (perfbench/spans.py) still patches these two names here.
from .code import codespace_dim, distance  # noqa: F401
from .zmod import howell_form

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


class BudgetExceededError(RuntimeError):
    """The enumeration went past the configured tuple budget."""


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))


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
        if self.num_modes % 2 or self.num_modes < 2:
            raise ValueError("num_modes must be even and >= 2")
        if self.target_d < 1:
            raise ValueError("target_d must be >= 1")
        if self.mode not in ("exhaustive", "randomized"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.generator_count is None:
            if not _is_prime(self.modulus):
                raise ValueError("generator_count is required for composite moduli")
            object.__setattr__(self, "generator_count", self.num_modes // 2 - self.target_k)
        if self.generator_count < 1:
            raise ValueError("generator_count must be >= 1")

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


def _parity_zero_candidates(modulus: int, num_modes: int) -> np.ndarray:
    """All nonzero alpha with sum(alpha) == 0 (mod D), in lexicographic order."""
    free = num_modes - 1
    count = modulus**free
    if count > MAX_CANDIDATES:
        raise BudgetExceededError(
            f"candidate space {modulus}^{free} exceeds the supported size {MAX_CANDIDATES}"
        )
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
    integer codes ``row @ place``; membership tests compare codes only.
    The coset-minimum test assumes prime D: ``find_codes`` turns symmetry
    reduction off for composite moduli.
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
        lam = lambda_matrix(d, m).array
        self.pairing = (self.cand @ lam) % d  # row i pairs as pairing[i] @ x
        low = _weight_vectors(d, m, 1, spec.target_d - 1)
        exact = _weight_vectors(d, m, spec.target_d, spec.target_d)
        # [i, t]: candidate i commutes with weight vector t.
        self.low_ok = (self.pairing @ low.T) % d == 0
        self.exact_ok = (self.pairing @ exact.T) % d == 0
        self.low_codes = low @ self.place
        self.exact_codes = exact @ self.place
        self.nodes = 0
        # (node index, span key, generators) of each hit, in the order found.
        self.hits: list[tuple[int, str, tuple[PfOperator, ...]]] = []
        self.hit_keys: set[str] = set()
        self.stopped = False

    # -- helpers -----------------------------------------------------------

    def _comm_mask(self, i: int) -> np.ndarray:
        return ((self.pairing[i] @ self.cand.T) % self.spec.modulus) == 0

    def _zero_span(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((1, self.spec.num_modes), dtype=np.int64), np.zeros(1, dtype=np.int64)

    def _coset(self, span: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of span + c * cand[i] for c = 1 .. D-1, and their codes."""
        rows = ((span[None, :, :] + self.multiples * self.cand[i]) % self.spec.modulus).reshape(-1, span.shape[1])
        return rows, rows @ self.place

    def _grow(self, span, codes, coset, coset_codes) -> tuple[np.ndarray, np.ndarray]:
        """The span generated by ``span`` and a generator outside it, given its coset rows.

        For prime D the cosets span + c*g are disjoint and already distinct;
        for composite D a multiple c*g can fall back into the span.
        """
        rows = np.vstack((span, coset))
        all_codes = np.concatenate((codes, coset_codes))
        if self.prime:
            return rows, all_codes
        all_codes, first = np.unique(all_codes, return_index=True)
        return rows[first], all_codes

    def _accept(self, chosen: list[int]) -> None:
        spec = self.spec
        d, m = spec.modulus, spec.num_modes
        gens = tuple(PfOperator(d, m, 0, tuple(int(x) for x in self.cand[i])) for i in chosen)
        try:
            code = canonical_phases(PfCode(d, m, gens))
        except ValueError:
            return
        if not validate(code).all_ok:
            return
        if _codespace_dim(code, _group_order(code)) != d**spec.target_k:
            return
        result = _distance(code)
        if result.value != spec.target_d:
            return
        key = canonical_equivalence_key(code)
        if key in self.hit_keys:
            return
        self.hit_keys.add(key)
        self.hits.append((self.nodes, key, tuple(code.generators)))
        if spec.max_hits and len(self.hits) >= spec.max_hits:
            self.stopped = True

    def _leaf(self, chosen: list[int], codes: np.ndarray) -> None:
        """Hand a full tuple to ``_accept`` if its weight < d and weight-d centralizers allow it."""
        if self._low_weight_clear(chosen, codes) and self._has_exact_weight_logical(chosen, codes):
            self._accept(chosen)

    # -- enumeration --------------------------------------------------------

    def run(self, first_lo: int = 0, first_hi: int | None = None) -> None:
        first_hi = self.count if first_hi is None else first_hi
        span, codes = self._zero_span()
        for i in range(first_lo, first_hi):
            self._visit([], None, span, codes, i)
            if self.stopped:
                return

    def _visit(self, chosen: list[int], comm_ok: np.ndarray | None, span: np.ndarray, codes: np.ndarray, j: int) -> None:
        """Count the child that adds candidate j to ``chosen`` and explore it.

        ``chosen`` has passed this test itself and j exceeds its indices, so
        the child is the greedy lexicographically minimal generating tuple
        of its span exactly when cand[j] is the minimum of the new coset
        rows span + c*cand[j] (McKay's canonical augmentation).
        """
        spec = self.spec
        self.nodes += 1
        if self.nodes > spec.max_tuples:
            raise BudgetExceededError(f"tuple budget {spec.max_tuples} exceeded")
        coset, coset_codes = self._coset(span, j)
        if spec.symmetry_reduction and coset_codes.min() != self.codes[j]:
            return
        chosen = chosen + [j]
        span, codes = self._grow(span, codes, coset, coset_codes)
        if len(chosen) == spec.generator_count:
            self._leaf(chosen, codes)
            return
        comm_ok = self._comm_mask(j) if comm_ok is None else comm_ok & self._comm_mask(j)
        comm_ok[np.searchsorted(self.codes, codes[1:])] = False  # span must strictly grow
        for k in np.nonzero(comm_ok[j + 1 :])[0] + (j + 1):
            if self.stopped:
                return
            self._visit(chosen, comm_ok, span, codes, int(k))

    def _low_weight_clear(self, chosen: list[int], codes: np.ndarray) -> bool:
        """Every weight < d vector centralizing all generators must be a stabilizer."""
        central = self.low_ok[chosen].all(axis=0)
        return bool(np.isin(self.low_codes[central], codes).all())

    def _has_exact_weight_logical(self, chosen: list[int], codes: np.ndarray) -> bool:
        central = self.exact_ok[chosen].all(axis=0)
        return not np.isin(self.exact_codes[central], codes).all()


def _code_payload(generators: tuple[PfOperator, ...]) -> dict:
    return {
        "generators": [{"mu": g.mu, "alpha": list(g.alpha)} for g in generators],
    }


def _run_block(spec_dict: dict, lo: int, hi: int) -> dict:
    spec = SearchSpec.from_dict(spec_dict)
    engine = _Engine(spec)
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
    earlier block found (composite D, no symmetry reduction) does not
    count.  A block that stopped at its own ``max_hits`` repeats at most as
    many spans as were found before it, so the replay stops inside that
    block.  Returns ({key: payload}, tuples examined, budget exceeded,
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


def _find_exhaustive(spec: SearchSpec, threads: int) -> tuple[list[PfCode], SearchCertificate]:
    start_time = time.monotonic()
    probe = _Engine(spec)  # also validates the candidate space size
    cert = SearchCertificate(
        spec=spec.to_dict(),
        candidate_count=probe.count,
        estimated_tuples=comb(probe.count, spec.generator_count),
        threads=threads,
    )
    if threads <= 1:
        results = [_run_block(spec.to_dict(), 0, probe.count)]
    else:
        import concurrent.futures as futures

        bounds = np.linspace(0, probe.count, threads + 1).astype(int)
        with futures.ProcessPoolExecutor(max_workers=threads) as pool:
            jobs = [
                pool.submit(_run_block, spec.to_dict(), int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if lo < hi
            ]
            results = [j.result() for j in jobs]

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
    for _ in range(spec.samples):
        cert.tuples_examined += 1
        idx = sorted(int(x) for x in rng.choice(engine.count, spec.generator_count, replace=False))
        if ((engine.pairing[idx] @ engine.cand[idx].T) % spec.modulus).any():
            continue
        span, span_codes = engine._zero_span()
        for i in idx:
            if engine.codes[i] in span_codes:
                break  # dependent tuple
            span, span_codes = engine._grow(span, span_codes, *engine._coset(span, i))
        else:
            engine._leaf(idx, span_codes)
        if engine.stopped:
            break
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
    if spec.symmetry_reduction and not _is_prime(spec.modulus) and spec.mode == "exhaustive":
        spec = SearchSpec.from_dict({**spec.to_dict(), "symmetry_reduction": False})
    if spec.mode == "randomized":
        return _find_randomized(spec)
    threads = default_thread_count() if threads is None else max(1, threads)
    return _find_exhaustive(spec, threads)
