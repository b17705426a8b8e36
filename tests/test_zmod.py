import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfstab.zmod import (
    ZModMatrix,
    coset_minimum,
    howell_form,
    kernel_basis,
    solve_left,
    span_membership,
    span_order,
)

from oracles import enumerate_kernel, enumerate_span

MODULI = [2, 3, 4, 5, 6, 7, 9, 12]


def random_matrix(rng, modulus, rows, cols):
    return ZModMatrix(modulus, rng.integers(0, modulus, size=(rows, cols)))


def test_entry_validation():
    with pytest.raises(ValueError):
        ZModMatrix(3, [[0, 3]])
    with pytest.raises(ValueError):
        ZModMatrix(1, [[0]])
    with pytest.raises(ValueError):
        ZModMatrix(3, [0, 1])


def test_howell_identity_is_fixed_point():
    m = ZModMatrix.identity(3, 2)
    assert howell_form(m) == m


def test_howell_single_row_z4():
    m = ZModMatrix(4, [[2]])
    h = howell_form(m)
    assert h.to_lists() == [[2]]
    assert enumerate_span(h) == {(0,), (2,)}


def test_howell_span_preserved_random_z6():
    rng = np.random.default_rng(20240811)
    m = random_matrix(rng, 6, 3, 4)
    h = howell_form(m)
    assert enumerate_span(m) == enumerate_span(h)


@pytest.mark.parametrize("modulus", MODULI)
def test_howell_idempotent_and_span_preserving(modulus):
    rng = np.random.default_rng(modulus * 101)
    for rows, cols in [(1, 3), (2, 2), (3, 4), (4, 3), (5, 5)]:
        m = random_matrix(rng, modulus, rows, cols)
        h = howell_form(m)
        assert howell_form(h) == h
        if modulus**rows <= 10_000:
            assert enumerate_span(m) == enumerate_span(h)


@pytest.mark.parametrize("modulus", MODULI)
def test_howell_canonical_for_equal_spans(modulus):
    # Row-shuffled and row-mixed generating sets must canonicalize identically.
    rng = np.random.default_rng(modulus * 7)
    m = random_matrix(rng, modulus, 3, 4)
    mixed_rows = [
        (m.array[0] + m.array[1]) % modulus,
        m.array[2],
        m.array[1],
        (2 * m.array[0] + m.array[2]) % modulus,
        m.array[0],
    ]
    mixed = ZModMatrix.from_rows(modulus, mixed_rows)
    assert howell_form(m) == howell_form(mixed)


def test_howell_structure_conditions():
    rng = np.random.default_rng(99)
    for modulus in MODULI:
        m = random_matrix(rng, modulus, 4, 5)
        h = howell_form(m)
        pivots = []
        for row in h.array:
            nz = np.nonzero(row)[0]
            assert nz.size > 0
            pivots.append(int(nz[0]))
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for i, j in enumerate(pivots):
            piv = int(h.array[i][j])
            assert modulus % piv == 0
            for i2 in range(i):
                assert 0 <= int(h.array[i2][j]) < piv


def test_membership_zero_vector_and_own_rows():
    m = ZModMatrix(5, [[1, 2, 3], [0, 4, 1]])
    assert span_membership(m, [0, 0, 0])
    assert span_membership(m, [1, 2, 3])
    assert span_membership(m, [0, 4, 1])


def test_membership_outside_span():
    m = ZModMatrix(4, [[2, 0]])
    assert not span_membership(m, [1, 0])
    assert span_membership(m, [2, 0])


def test_membership_dimension_mismatch():
    m = ZModMatrix(4, [[2, 0]])
    with pytest.raises(ValueError):
        span_membership(m, [1, 0, 0])


@pytest.mark.parametrize("modulus", MODULI)
def test_membership_matches_enumeration(modulus):
    rng = np.random.default_rng(modulus * 13)
    m = random_matrix(rng, modulus, 3, 3)
    span = enumerate_span(m)
    h = howell_form(m)
    for _ in range(50):
        v = rng.integers(0, modulus, size=3)
        expected = tuple(int(x) for x in v) in span
        assert span_membership(m, v) == expected
        assert span_membership(h, v) == expected


def test_span_order_trivial_cases():
    assert span_order(ZModMatrix.zeros(3, 0, 4)) == 1
    assert span_order(ZModMatrix(3, [[1, 0, 0]])) == 3
    assert span_order(ZModMatrix(4, [[2]])) == 2


@pytest.mark.parametrize("modulus", MODULI)
def test_span_order_matches_enumeration(modulus):
    rng = np.random.default_rng(modulus * 29)
    for rows, cols in [(1, 2), (2, 3), (3, 4), (4, 4)]:
        if modulus**rows > 100_000:
            continue
        m = random_matrix(rng, modulus, rows, cols)
        assert span_order(m) == len(enumerate_span(m))


def test_kernel_single_entry_cases():
    k = kernel_basis(ZModMatrix(3, [[1]]))
    assert enumerate_span(k) == {(0,)}
    k = kernel_basis(ZModMatrix(4, [[2]]))
    assert enumerate_span(k) == {(0,), (2,)}


def test_kernel_random_z6_matches_enumeration():
    rng = np.random.default_rng(606)
    m = random_matrix(rng, 6, 3, 5)
    k = kernel_basis(m)
    assert not ((k.array @ m.array) % 6).any()
    assert enumerate_span(k) == enumerate_kernel(m)


@pytest.mark.parametrize("modulus", MODULI)
def test_kernel_matches_enumeration(modulus):
    rng = np.random.default_rng(modulus * 31)
    for rows, cols in [(2, 2), (3, 3), (3, 5)]:
        if modulus**rows > 100_000:
            continue
        m = random_matrix(rng, modulus, rows, cols)
        k = kernel_basis(m)
        assert not ((k.array @ m.array) % modulus).any()
        assert enumerate_span(k) == enumerate_kernel(m)


def test_kernel_of_zero_column_matrix_is_full_space():
    m = ZModMatrix(3, np.zeros((4, 0), dtype=np.int64))
    k = kernel_basis(m)
    assert span_order(k) == 3**4


@pytest.mark.parametrize("modulus", [2, 3, 5, 7])
def test_rank_kernel_duality_prime_square(modulus):
    rng = np.random.default_rng(modulus * 37)
    size = 4 if modulus**4 <= 100_000 else 3
    m = random_matrix(rng, modulus, size, size)
    right_kernel = kernel_basis(m.transpose())
    assert span_order(m) * span_order(right_kernel) == modulus**size


@pytest.mark.parametrize("modulus", MODULI)
def test_solve_left_round_trip(modulus):
    rng = np.random.default_rng(modulus * 41)
    m = random_matrix(rng, modulus, 3, 4)
    for _ in range(20):
        coeffs = rng.integers(0, modulus, size=3)
        v = (coeffs @ m.array) % modulus
        x = solve_left(m, v)
        assert x is not None
        assert np.array_equal((x @ m.array) % modulus, v)


def test_solve_left_unsolvable():
    m = ZModMatrix(4, [[2, 0]])
    assert solve_left(m, [1, 0]) is None


@pytest.mark.parametrize("modulus", MODULI)
def test_coset_minimum_is_least_element(modulus):
    rng = np.random.default_rng(modulus * 43)
    m = random_matrix(rng, modulus, 2, 3)
    span = enumerate_span(m)
    for _ in range(10):
        v = rng.integers(0, modulus, size=3)
        coset = {tuple((np.asarray(s) + v) % modulus) for s in span}
        got = tuple(int(x) for x in coset_minimum(m, v))
        assert got == min(coset)


def _unimodular(rng, modulus: int, size: int, steps: int) -> np.ndarray:
    """A random invertible matrix over Z_D: a product of elementary row operations."""
    units = [u for u in range(1, modulus) if np.gcd(u, modulus) == 1]
    u = np.eye(size, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(size, size=2, replace=size < 2)
        kind = rng.integers(3)
        if kind == 0 and i != j:
            u[i] = (u[i] + int(rng.integers(1, modulus)) * u[j]) % modulus
        elif kind == 1:
            u[i] = (u[i] * int(rng.choice(units))) % modulus
        else:
            u[[i, j]] = u[[j, i]]
    return u


@settings(max_examples=150, deadline=None)
@given(
    modulus=st.integers(2, 12),
    rows=st.integers(1, 4),
    cols=st.integers(1, 5),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_howell_form_is_canonical_under_row_operations(modulus, rows, cols, extra, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, modulus, rows, cols)
    mixed = (_unimodular(rng, modulus, rows, 12) @ m.array) % modulus
    dependent = (rng.integers(0, modulus, size=(extra, rows)) @ m.array) % modulus
    stacked = np.vstack([mixed, dependent])[rng.permutation(rows + extra)]
    assert howell_form(ZModMatrix(modulus, stacked)) == howell_form(m)


@settings(max_examples=100, deadline=None)
@given(
    modulus=st.integers(2, 6),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_and_solve_left_match_enumeration(modulus, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, modulus, rows, cols)
    k = kernel_basis(m)
    assert not ((k.array @ m.array) % modulus).any()
    assert enumerate_span(k) == enumerate_kernel(m)
    span = enumerate_span(m)
    for v in itertools.product(range(modulus), repeat=cols):
        x = solve_left(m, v)
        assert (x is not None) == (v in span)
        if x is not None:
            assert tuple((x @ m.array) % modulus) == v
