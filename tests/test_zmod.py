import itertools
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pfstab import zmod
from pfstab.code import _first_window
from pfstab.zmod import (
    ZModMatrix,
    _howell_basis,
    _pivot_columns,
    _reduce_against,
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
    # The one basis format: int64 rows in pivot order, a row's pivot its first nonzero entry.
    basis = _howell_basis(stacked, modulus)
    assert basis.dtype == np.int64 and basis.flags.c_contiguous and basis.shape == (len(basis), cols)
    assert np.array_equal(basis, howell_form(m).array)
    pivots = _pivot_columns(basis)
    assert (np.diff(pivots) > 0).all()
    heads = basis[np.arange(len(basis)), pivots]
    assert (modulus % heads == 0).all()
    assert (np.triu(basis[:, pivots], 1) < heads).all()  # entries above a pivot lie in [0, pivot)
    # The kernel rows of the Howell form of [M | I] are kernel_basis, and annihilate M.
    kernel = zmod._augmented_basis(ZModMatrix(modulus, stacked))[1]
    assert np.array_equal(kernel, kernel_basis(ZModMatrix(modulus, stacked)).array)
    assert not ((kernel @ stacked) % modulus).any()


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


def _least_coset_codes(matrix: np.ndarray, vectors: np.ndarray, modulus: int) -> np.ndarray:
    """Brute force: the base-D code of the least element of v + rowspan(matrix), for each row v,
    over every coefficient vector in blocks."""
    rows, cols = matrix.shape
    place = modulus ** np.arange(cols - 1, -1, -1, dtype=np.int64)
    best = np.full(len(vectors), modulus**cols, dtype=np.int64)
    for start in range(0, modulus**rows, 1 << 15):
        index = np.arange(start, min(start + (1 << 15), modulus**rows), dtype=np.int64)
        coeffs = (index[:, None] // modulus ** np.arange(rows, dtype=np.int64)) % modulus
        span = (coeffs @ matrix) % modulus
        best = np.minimum(best, (((span[None] + vectors[:, None]) % modulus) @ place).min(axis=1))
    return best


@settings(max_examples=150, deadline=None)
@given(
    modulus=st.one_of(st.sampled_from([12, 30, 36]), st.integers(2, 36)),
    rows=st.integers(1, 4),
    cols=st.integers(1, 5),
    one_vector=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduce_against_gives_least_coset_elements(modulus, rows, cols, one_vector, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, modulus, size=(rows, cols)) * rng.integers(0, 2, size=(rows, cols))
    members = (rng.integers(0, modulus, size=(2, rows)) @ matrix) % modulus
    vectors = np.vstack([members, rng.integers(0, modulus, size=(2, cols))])
    reduced = _reduce_against(_howell_basis(matrix, modulus), vectors[0] if one_vector else vectors, modulus)
    assert reduced.shape == ((cols,) if one_vector else vectors.shape)
    reduced = reduced.reshape(-1, cols)
    least = _least_coset_codes(matrix, vectors[: len(reduced)], modulus)
    assert (reduced @ modulus ** np.arange(cols - 1, -1, -1, dtype=np.int64)).tolist() == least.tolist()
    assert (~reduced.any(axis=1)).tolist() == (least == 0).tolist()
    assert not reduced[: min(2, len(reduced))].any()


# The largest prime, and a product of the first nine primes times 6, that
# ``_check_range`` admits for a matrix: Howell-form arithmetic there runs
# near the int64 limit, so a multiplier left unreduced mod n overflows.
_EDGE_PRIME = 1518500213
_EDGE_COMPOSITE = 6 * 223092870


def _rref_mod_prime(rows: list[list[int]], p: int) -> list[list[int]]:
    """Reduced row echelon form over Z_p in Python integers, zero rows dropped."""
    rows = [[x % p for x in row] for row in rows]
    out: list[list[int]] = []
    for col in range(len(rows[0])):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inverse = pow(pivot[col], -1, p)
        pivot = [x * inverse % p for x in pivot]
        out = [[(x - row[col] * y) % p for x, y in zip(row, pivot)] for row in out]
        rows = [[(x - row[col] * y) % p for x, y in zip(row, pivot)] for row in rows]
        out.append(pivot)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, _EDGE_PRIME - 1), min_size=3, max_size=3), min_size=2, max_size=2))
@example([[5, 7, 11], [1234567891, 987654321, 555555555]])
def test_howell_form_at_the_largest_admitted_prime(rows):
    minors = [rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i] for i, j in ((0, 1), (0, 2), (1, 2))]
    assume(any(x % _EDGE_PRIME for x in minors))  # full rank
    got = howell_form(ZModMatrix(_EDGE_PRIME, rows)).to_lists()
    assert got == _rref_mod_prime(rows, _EDGE_PRIME)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scales=st.lists(st.sampled_from([1, 2, 3, 5, 6, 30, 223092870, 669278610]), min_size=3, max_size=3),
)
def test_howell_form_and_kernel_at_a_composite_int64_edge(seed, scales):
    n = _EDGE_COMPOSITE
    rng = np.random.default_rng(seed)
    matrix = (rng.integers(0, n, size=(3, 4)) * np.array(scales)[:, None]) % n
    mix = np.eye(3, dtype=object)
    for _ in range(8):
        i, j = rng.choice(3, size=2, replace=False)
        unit = next(u for u in map(int, rng.integers(1, n, size=64)) if gcd(u, n) == 1)
        mix[i] = (unit * mix[i] + int(rng.integers(1, n)) * mix[j]) % n
        mix[[i, j]] = mix[[j, i]]
    mixed = ((mix @ matrix.astype(object)) % n).astype(np.int64)
    assert howell_form(ZModMatrix(n, mixed)) == howell_form(ZModMatrix(n, matrix))
    kernel = kernel_basis(ZModMatrix(n, matrix)).array
    assert not ((kernel.astype(object) @ matrix.astype(object)) % n).any()


@pytest.mark.parametrize("modulus, rows", [(5, [[1, 2], [3, 4]]), (_EDGE_COMPOSITE, [[2, 1, 7], [6, 5, 9]])])
def test_column_step_raises_when_it_leaves_a_pivot_entry(monkeypatch, modulus, rows):
    # A multiplier off by one leaves a spanning entry nonzero at the pivot
    # column, as a wrapped int64 product does; the step raises in both of
    # its callers rather than hand on a wrong span.
    pivot_scale = zmod._pivot_scale
    monkeypatch.setattr(zmod, "_pivot_scale", lambda a, n: (pivot_scale(a, n) + 1) % n)
    with pytest.raises(OverflowError, match="pivot column 0"):
        howell_form(ZModMatrix(modulus, rows))
    # One corner: the rows span, a row of ones is carried, column j joins at side j + 1.
    block = np.array([*rows, [1] * len(rows[0])], dtype=np.int64)[:, None, :]
    sides = np.arange(1, block.shape[2] + 1)[None, :]
    with pytest.raises(OverflowError, match="pivot column 0"):
        _first_window(block, len(rows), sides, modulus, (block.shape[2] + 1, 1), 0)


@pytest.mark.parametrize("modulus, rows", [(5, [[1, 2], [3, 4]]), (_EDGE_COMPOSITE, [[2, 1, 7], [6, 5, 9]])])
def test_batched_column_step_raises_when_it_leaves_a_pivot_entry(monkeypatch, modulus, rows):
    # The same inputs through the batched path, which small inputs skip.
    pivot_scale = zmod._pivot_scale
    monkeypatch.setattr(zmod, "_pivot_scale", lambda a, n: (pivot_scale(a, n) + 1) % n)
    monkeypatch.setattr(zmod, "_SMALL_NONZEROS", -1)
    with pytest.raises(OverflowError, match="pivot column 0"):
        howell_form(ZModMatrix(modulus, rows))


def test_howell_basis_picks_its_path_by_nonzero_count(monkeypatch):
    # Sparse inputs of many entries take the list path; one more nonzero
    # entry than the bound sends the same shape to the batched step.
    calls = []
    small = zmod._small_column_steps
    monkeypatch.setattr(zmod, "_small_column_steps", lambda *args: calls.append(1) or small(*args))
    bound = zmod._SMALL_NONZEROS
    matrix = np.zeros((bound // 5, 40), dtype=np.int64)
    matrix.flat[np.arange(0, matrix.size - 1, 7)[:bound]] = 3
    assert np.count_nonzero(matrix) == bound
    wider = matrix.copy()
    wider[-1, -1] = 1
    expected = []
    for m in (matrix, wider):
        with mock.patch.object(zmod, "_SMALL_NONZEROS", -1):
            expected.append(_howell_basis(m, 6))
    assert np.array_equal(_howell_basis(matrix, 6), expected[0]) and calls == [1]
    assert np.array_equal(_howell_basis(wider, 6), expected[1]) and calls == [1]


_WIDE_MODULI = (2**30, 10**9 + 7, 223092870)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small)]


@st.composite
def _bounded_matrices(draw):
    """A modulus and a matrix: one with a count of nonzero entries on either
    side of the bound, or a small shape or a single row or column, some of
    whose rows are scaled by divisors of the modulus or sums of earlier ones."""
    n = draw(st.one_of(st.integers(2, 60), st.sampled_from(_WIDE_MODULI)))
    bound = zmod._SMALL_NONZEROS
    shape = draw(
        st.one_of(
            st.tuples(st.integers(0, 6), st.integers(0, 8)),
            st.tuples(st.just(1), st.integers(0, 40)),
            st.tuples(st.integers(0, 12), st.just(1)),
            st.integers(1, 40).flatmap(lambda r: st.tuples(st.just(r), st.integers(bound // r + 1, 2 * bound // r + 2))),
        )
    )
    rows, cols = shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rows * cols > bound:
        # Exactly bound or bound + 1 nonzero entries, at random places.
        matrix = np.zeros(shape, dtype=np.int64)
        spots = rng.choice(rows * cols, size=bound + draw(st.integers(0, 1)), replace=False)
        matrix.flat[spots] = rng.integers(1, n, size=len(spots))
        return n, matrix
    matrix = rng.integers(0, n, size=shape, dtype=np.int64)
    divisors = np.array(_divisors(n), dtype=np.int64)
    if rows and draw(st.booleans()):
        matrix = matrix * rng.choice(divisors, size=rows)[:, None] % n
    for i in range(1, rows):
        if rng.random() < 0.3:
            matrix[i] = rng.integers(0, 4, size=i) @ matrix[:i] % n
    return n, matrix


def _times_mod(x: np.ndarray, matrix: np.ndarray, n: int) -> np.ndarray:
    """x @ matrix mod n in Python ints: at D near 2^30 the int64 sum of products wraps."""
    return (x.astype(object) @ matrix.astype(object) % n).astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(_bounded_matrices(), st.integers(0, 2**32 - 1))
@example((10**9 + 7, np.random.default_rng(0).integers(1, 10**9 + 7, size=(20, zmod._SMALL_NONZEROS // 20))), 1)
@example((10**9 + 7, np.random.default_rng(0).integers(1, 10**9 + 7, size=(20, zmod._SMALL_NONZEROS // 20 + 1))), 1)
@example((6, np.zeros((3, 0), dtype=np.int64)), 1)
def test_small_and_batched_howell_paths_agree(case, seed):
    # Howell forms are unique, so the Python-int path for small inputs and
    # the batched _column_step path must give the same bytes, and so must
    # everything read off them.
    n, matrix = case
    rows, cols = matrix.shape
    rng = np.random.default_rng(seed)
    member = _times_mod(rng.integers(0, n, size=rows), matrix, n)
    other = rng.integers(0, n, size=cols, dtype=np.int64)
    m = ZModMatrix(n, matrix)
    results = []
    for bound in (-1, 2**62):
        with mock.patch.object(zmod, "_SMALL_NONZEROS", bound):
            basis = _howell_basis(matrix, n)
            assert basis.dtype == np.int64 and basis.flags.c_contiguous and basis.shape == (len(basis), cols)
            solved = solve_left(m, member)
            assert solved is not None and np.array_equal(_times_mod(solved, matrix, n), member)
            results.append(
                (
                    basis.tobytes(),
                    basis.shape,
                    kernel_basis(m).array.tobytes(),
                    span_order(m),
                    solved.tobytes(),
                    None if (x := solve_left(m, other)) is None else x.tobytes(),
                    coset_minimum(m, other).tobytes(),
                )
            )
    assert results[0] == results[1]
