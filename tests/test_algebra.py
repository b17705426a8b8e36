from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfstab.algebra import PfOperator, _pairing, lambda_matrix, parse_operator
from pfstab.oracle import jw_modes
from pfstab.zmod import span_order


def op(modulus, alpha, mu=0):
    return PfOperator(modulus, len(alpha), mu, tuple(alpha))


def random_op(rng, modulus, num_modes):
    return PfOperator(
        modulus,
        num_modes,
        int(rng.integers(0, 2 * modulus)),
        tuple(int(x) for x in rng.integers(0, modulus, size=num_modes)),
    )


def test_constructor_normalizes_residues():
    a = PfOperator(3, 4, 7, (4, -1, 0, 3))
    assert a.mu == 1
    assert a.alpha == (1, 2, 0, 0)


def test_constructor_rejects_odd_mode_count():
    with pytest.raises(ValueError):
        PfOperator(3, 3, 0, (0, 0, 0))


@pytest.mark.parametrize("num_modes", [2, 4, 10])
def test_largest_modulus_multiplies_exactly_and_the_next_is_rejected(num_modes):
    # The bound is (2 m D)^2 < 2^63; at the largest such D every product
    # phase must match exact integer arithmetic.
    largest = isqrt(2**63 - 1) // (2 * num_modes)
    with pytest.raises(ValueError, match="too large"):
        PfOperator.identity(largest + 1, num_modes)
    rng = np.random.default_rng(num_modes)
    for _ in range(50):
        a, b = ([int(x) for x in largest - 1 - rng.integers(0, 3, size=num_modes)] for _ in range(2))
        mu = 2 * sum(a[i] * b[j] for i in range(num_modes) for j in range(i))
        assert (op(largest, a) * op(largest, b)).mu == -mu % (2 * largest)
        assert op(largest, a).commutation_exponent(op(largest, b)) == (
            sum(a[i] * b[j] for i in range(num_modes) for j in range(num_modes) if j > i) - mu // 2
        ) % largest


def test_multiply_single_swap():
    g2 = PfOperator.gamma(3, 4, 2)
    g1 = PfOperator.gamma(3, 4, 1)
    prod = g2 * g1
    assert prod.mu == 4
    assert prod.alpha == (1, 1, 0, 0)


def test_multiply_identity_is_neutral():
    rng = np.random.default_rng(7)
    e = PfOperator.identity(5, 6)
    for _ in range(10):
        a = random_op(rng, 5, 6)
        assert e * a == a
        assert a * e == a


def test_multiply_matches_oracle_matrix_product():
    rep = jw_modes(3, 2)
    a = op(3, (1, 1, 0, 0))
    b = op(3, (0, 1, 1, 0))
    assert rep.op_monomial(a) @ rep.op_monomial(b) == rep.op_monomial(a * b)


def test_commutation_defining_relation():
    a = PfOperator.gamma(3, 4, 1)
    b = PfOperator.gamma(3, 4, 2)
    assert a.commutation_exponent(b) == 1


def test_commutation_self_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_op(rng, 4, 6)
        assert a.commutation_exponent(a) == 0


def test_commutation_stabilizer_pair_of_known_code():
    a = op(3, (2, 1, 0, 2, 0, 1, 0, 0))
    b = op(3, (0, 2, 1, 0, 2, 0, 1, 0))
    assert a.commutation_exponent(b) == 0


def test_inverse_single_mode():
    g1 = PfOperator.gamma(3, 4, 1)
    inv = g1.inverse()
    assert inv == op(3, (2, 0, 0, 0))


def test_inverse_of_identity():
    e = PfOperator.identity(3, 4)
    assert e.inverse() == e


def test_inverse_random_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_op(rng, 5, 8)
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()


def test_power_order_of_single_mode():
    g1 = PfOperator.gamma(3, 4, 1)
    assert g1.power(3).is_identity()
    assert g1.power(0).is_identity()


def test_power_matches_repeated_multiply():
    a = op(3, (2, 1, 0, 2, 0, 1, 0, 0))
    assert a.power(2) == a * a
    rep = jw_modes(3, 4)
    assert rep.op_monomial(a.power(2)) == rep.op_monomial(a) @ rep.op_monomial(a)


@settings(max_examples=100, deadline=None)
@given(modulus=st.integers(2, 9), modes=st.sampled_from([2, 4, 6, 8, 10]), data=st.data())
def test_power_closed_form_matches_repeated_products(modulus, modes, data):
    alpha = data.draw(st.lists(st.integers(0, modulus - 1), min_size=modes, max_size=modes))
    a = op(modulus, alpha, mu=data.draw(st.integers(0, 2 * modulus - 1)))
    product = PfOperator.identity(modulus, modes)
    for m in range(2 * modulus + 1):
        assert a.power(m) == product, m
        product = product * a


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 2), (5, 1), (6, 2)]), data=st.data())
def test_power_closed_form_matches_oracle_matrix_power(shape, data):
    modulus, qudits = shape
    rep = jw_modes(modulus, qudits)
    alpha = data.draw(st.lists(st.integers(0, modulus - 1), min_size=2 * qudits, max_size=2 * qudits))
    a = op(modulus, alpha, mu=data.draw(st.integers(0, 2 * modulus - 1)))
    for m in range(2 * modulus + 1):
        assert rep.op_monomial(a.power(m)) == rep.op_monomial(a).matrix_power(m), m


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        PfOperator.gamma(3, 4, 1).power(-1)


def test_charge_values():
    assert op(3, (2, 1, 0, 2, 0, 1, 0, 0)).charge() == 0
    assert PfOperator.identity(3, 8).charge() == 0
    assert op(3, (0, 2, 2, 0, 0, 1, 0, 0)).charge() == 2


def test_weight_support_diameter():
    a = op(3, (0, 2, 2, 0, 0, 1, 0, 0))
    assert a.weight() == 3
    assert a.support() == (2, 3, 6)
    assert a.diameter() == 5
    e = PfOperator.identity(3, 8)
    assert e.weight() == 0 and e.diameter() == 0
    ends = op(3, (1, 0, 0, 0, 0, 0, 0, 1))
    assert ends.diameter() == 8


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6, 7])
def test_associativity(modulus):
    rng = np.random.default_rng(modulus * 17)
    for _ in range(30):
        a = random_op(rng, modulus, 6)
        b = random_op(rng, modulus, 6)
        c = random_op(rng, modulus, 6)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6, 7])
def test_commutation_consistency_with_multiply(modulus):
    rng = np.random.default_rng(modulus * 19)
    for _ in range(30):
        a = random_op(rng, modulus, 6)
        b = random_op(rng, modulus, 6)
        ab, ba = a * b, b * a
        assert ab.alpha == ba.alpha
        c = a.commutation_exponent(b)
        assert (ab.mu - ba.mu) % (2 * modulus) == (2 * c) % (2 * modulus)


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6, 7])
def test_charge_additivity(modulus):
    rng = np.random.default_rng(modulus * 23)
    for _ in range(30):
        a = random_op(rng, modulus, 6)
        b = random_op(rng, modulus, 6)
        assert (a * b).charge() == (a.charge() + b.charge()) % modulus


def test_reduced_commutation_rule_for_ordered_supports():
    # When supp(a) ends before supp(b) begins the pairing collapses to the
    # product of the charges.
    rng = np.random.default_rng(29)
    for _ in range(50):
        modulus = int(rng.integers(2, 8))
        left = [int(x) for x in rng.integers(0, modulus, size=4)] + [0, 0, 0, 0]
        right = [0, 0, 0, 0] + [int(x) for x in rng.integers(0, modulus, size=4)]
        a, b = op(modulus, left), op(modulus, right)
        assert a.commutation_exponent(b) == (a.charge() * b.charge()) % modulus


@pytest.mark.parametrize("modulus,num_qudits", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_oracle_homomorphism_exact(modulus, num_qudits):
    rep = jw_modes(modulus, num_qudits)
    rng = np.random.default_rng(modulus * 100 + num_qudits)
    for _ in range(100):
        a = random_op(rng, modulus, 2 * num_qudits)
        b = random_op(rng, modulus, 2 * num_qudits)
        assert rep.op_monomial(a) @ rep.op_monomial(b) == rep.op_monomial(a * b)
        assert rep.op_monomial(a.inverse()) == rep.op_monomial(a).dagger()


def test_lambda_matrix_antisymmetric():
    lam = lambda_matrix(5, 6)
    arr = lam.array
    assert np.array_equal(np.diag(arr), np.zeros(6, dtype=np.int64))
    assert np.array_equal((arr + arr.T) % 5, np.zeros((6, 6), dtype=np.int64))
    assert arr[0, 1] == 1 and arr[1, 0] == 4


def test_commutation_agrees_with_lambda_matrix():
    rng = np.random.default_rng(31)
    for modulus in (3, 4, 6):
        lam = lambda_matrix(modulus, 6).array
        for _ in range(20):
            a = random_op(rng, modulus, 6)
            b = random_op(rng, modulus, 6)
            expected = int(np.asarray(a.alpha) @ lam @ np.asarray(b.alpha)) % modulus
            assert a.commutation_exponent(b) == expected


@settings(max_examples=200, deadline=None)
@given(modulus=st.integers(2, 12), half=st.integers(1, 6), count=st.integers(0, 6), one_row=st.booleans(),
       data=st.data())
def test_pairing_matches_dense_lambda_matrix(modulus, half, count, one_row, data):
    modes = 2 * half
    shape = (modes,) if one_row else (count, modes)  # a single 1-D row takes the same path
    size = modes * (1 if one_row else count)
    rows = np.array(data.draw(st.lists(st.integers(0, modulus - 1), min_size=size, max_size=size)),
                    dtype=np.int64).reshape(shape)
    expected = (rows @ lambda_matrix(modulus, modes).array) % modulus
    assert np.array_equal(_pairing(rows, modulus), expected)


def test_render_and_parse_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(50):
        a = random_op(rng, 4, 8)
        assert parse_operator(str(a), 4, 8) == a
    assert str(PfOperator.identity(3, 4)) == "1"
    assert parse_operator("1", 3, 4) == PfOperator.identity(3, 4)


def test_parse_adjoint_exponent():
    a = parse_operator("g2^-1 g3", 3, 8)
    assert a == PfOperator.from_factors(3, 8, [(2, -1), (3, 1)])
    assert a.alpha == (0, 2, 1, 0, 0, 0, 0, 0)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_operator("g0", 3, 4)
    with pytest.raises(ValueError):
        parse_operator("h1", 3, 4)
    with pytest.raises(ValueError):
        parse_operator("g1 w^2", 3, 4)


def test_out_of_order_factors_accumulate_phase():
    # g2 * g1 written in that order picks up the swap phase.
    a = PfOperator.from_factors(3, 4, [(2, 1), (1, 1)])
    assert a.mu == 4 and a.alpha == (1, 1, 0, 0)


@pytest.mark.parametrize("modulus", [2, 3, 4, 6])
@pytest.mark.parametrize("num_modes", [2, 4, 6, 8, 10, 12])
def test_lambda_matrix_is_invertible(modulus, num_modes):
    # det L = 1 for even m, so S L spans as many vectors as S (code.distance relies on it).
    assert span_order(lambda_matrix(modulus, num_modes)) == modulus**num_modes
