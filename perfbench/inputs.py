"""Seeded inputs and independent reference computations for the benchmark.

Every input a workload hands to pfstab is derived here from the workload
seed: generator remixes, error operators, operator pairs and randomized
search seeds.  The reference helpers use plain numpy and the brute-force
oracles of ``tests/oracles.py``, never the pfstab routine they check.
"""

from __future__ import annotations

import importlib.util
import itertools
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def rng_for(seed: int, label: str) -> np.random.Generator:
    """An independent stream per (seed, label), stable across runs and platforms."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def unitriangular_mix(rng: np.random.Generator, size: int, modulus: int) -> np.ndarray:
    """L @ U with L, U unit lower/upper triangular: determinant 1, so invertible mod D."""
    lower = np.tril(rng.integers(0, modulus, (size, size)), -1) + np.eye(size, dtype=np.int64)
    upper = np.triu(rng.integers(0, modulus, (size, size)), 1) + np.eye(size, dtype=np.int64)
    return (lower @ upper) % modulus


def remixed_rows(rows: np.ndarray, mix: np.ndarray, modulus: int) -> np.ndarray:
    """Rows of mix @ rows mod D: a new generating set of the same row span."""
    return (mix @ np.asarray(rows, dtype=np.int64)) % modulus


def remix_code(code, mix: np.ndarray):
    """The code's generators remixed by ``mix``, with every phase stripped to 0."""
    from pfstab.algebra import PfOperator

    rows = remixed_rows([g.alpha for g in code.generators], mix, code.modulus)
    gens = tuple(PfOperator(code.modulus, code.num_modes, 0, tuple(int(x) for x in r)) for r in rows)
    return code.with_generators(gens)


def remix_qudit(q, mix: np.ndarray):
    from pfstab.builders import QuditCheckMatrix

    rows = remixed_rows(q.rows, mix, q.modulus)
    return QuditCheckMatrix(q.modulus, q.num_qudits, tuple(tuple(int(x) for x in r) for r in rows))


def random_errors(rng: np.random.Generator, modulus: int, num_modes: int, count: int, max_weight: int) -> list:
    """Exponent vectors of weight 1..max_weight with seeded supports and exponents."""
    out = []
    for _ in range(count):
        weight = int(rng.integers(1, max_weight + 1))
        alpha = np.zeros(num_modes, dtype=np.int64)
        support = rng.choice(num_modes, weight, replace=False)
        alpha[support] = rng.integers(1, modulus, weight)
        out.append(tuple(int(x) for x in alpha))
    return out


def random_pairs(rng: np.random.Generator, modulus: int, num_modes: int, count: int) -> list:
    """(mu, alpha) pairs for two operators each, uniform over PF(D, 2n)."""
    def one():
        return int(rng.integers(0, 2 * modulus)), tuple(int(x) for x in rng.integers(0, modulus, num_modes))

    return [(one(), one()) for _ in range(count)]


def pairing(a, b, modulus: int) -> int:
    """Commutation exponent sum_{i<j} (a_i b_j - a_j b_i) mod D, from its definition."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    idx = np.arange(a.size)
    sign = np.sign(idx[None, :] - idx[:, None])  # +1 where j > i
    return int(a @ sign @ b) % modulus


def reference_syndrome(generator_alphas, error_alpha, modulus: int) -> tuple[int, ...]:
    return tuple(pairing(g, error_alpha, modulus) for g in generator_alphas)


def load_test_oracles():
    """The repository's brute-force test oracles, imported read-only by file path."""
    spec = importlib.util.spec_from_file_location("pfstab_test_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_k_d(modulus: int, num_modes: int, generator_alphas, oracles) -> tuple[int, int | None]:
    """(k, d) by enumerating all D^(2n) exponent vectors; needs a valid code.

    The stabilizer span comes from ``oracles.enumerate_span``; centralizing
    vectors come from the pairing definition, vectorized over all vectors.
    """
    from pfstab.zmod import ZModMatrix

    span = oracles.enumerate_span(ZModMatrix(modulus, np.asarray(generator_alphas, dtype=np.int64)))
    dim, k = modulus ** (num_modes // 2) // len(span), 0
    while modulus**k < dim:
        k += 1
    vectors = np.array(list(itertools.product(range(modulus), repeat=num_modes)), dtype=np.int64)
    idx = np.arange(num_modes)
    sign = np.sign(idx[None, :] - idx[:, None])
    comm = (np.asarray(generator_alphas, dtype=np.int64) @ sign @ vectors.T) % modulus
    weights = np.count_nonzero(vectors, axis=1)
    place = modulus ** np.arange(num_modes)[::-1]
    in_span = np.isin(vectors @ place, np.array([np.array(v) @ place for v in span]))
    logical = ~comm.any(axis=0) & ~in_span
    return k, (int(weights[logical].min()) if logical.any() else None)
