import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfstab.algebra import PfOperator
from pfstab.oracle import (
    DenseRep,
    Monomial,
    clock_ops,
    jw_modes,
    op_matrix,
    relation_report,
)

TOL = 1e-9


def test_clock_ops_pauli_case():
    x, z = clock_ops(2)
    assert np.allclose(x, np.array([[0, 1], [1, 0]]), atol=TOL)
    assert np.allclose(z, np.diag([1, -1]), atol=TOL)


def test_clock_ops_qutrit_diagonal():
    _, z = clock_ops(3)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(z, np.diag([1, w, w**2]), atol=TOL)


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6])
def test_clock_ops_weyl_relation(modulus):
    x, z = clock_ops(modulus)
    omega = np.exp(2j * np.pi / modulus)
    assert np.abs(z @ x - omega * x @ z).max() < TOL
    ident = np.eye(modulus)
    assert np.abs(np.linalg.matrix_power(x, modulus) - ident).max() < TOL
    assert np.abs(np.linalg.matrix_power(z, modulus) - ident).max() < TOL


@pytest.mark.parametrize("modulus", [2, 3, 4, 5])
@pytest.mark.parametrize("num_qudits", [1, 2, 3])
def test_jw_relations(modulus, num_qudits):
    if modulus**num_qudits > 256:
        pytest.skip("keep the dense suite small")
    rep = jw_modes(modulus, num_qudits)
    report = relation_report(rep)
    assert all(report.values()), report


def test_jw_relations_dense_epsilon():
    rep = jw_modes(3, 2)
    omega = np.exp(2j * np.pi / 3)
    mats = [rep.mode_matrix(j) for j in range(1, 5)]
    ident = np.eye(rep.dim)
    for m in mats:
        assert np.abs(m @ m.conj().T - ident).max() < TOL
        assert np.abs(np.linalg.matrix_power(m, 3) - ident).max() < TOL
    for j in range(4):
        for k in range(j + 1, 4):
            assert np.abs(mats[j] @ mats[k] - omega * mats[k] @ mats[j]).max() < TOL


def test_majorana_special_case():
    rep = jw_modes(2, 2)
    mats = [rep.mode_matrix(j) for j in range(1, 5)]
    ident = np.eye(4)
    for j, m in enumerate(mats):
        assert np.abs(m @ m - ident).max() < TOL
        assert np.abs(m - m.conj().T).max() < TOL
        for k in range(j + 1, 4):
            assert np.abs(mats[j] @ mats[k] + mats[k] @ mats[j]).max() < TOL


@pytest.mark.parametrize("modulus,num_qudits", [(2, 2), (3, 2), (4, 2), (5, 2)])
def test_charge_relation(modulus, num_qudits):
    rep = jw_modes(modulus, num_qudits)
    q = rep.charge_monomial()
    rng = np.random.default_rng(modulus)
    for _ in range(20):
        alpha = tuple(int(x) for x in rng.integers(0, modulus, size=2 * num_qudits))
        a = PfOperator(modulus, 2 * num_qudits, 0, alpha)
        lhs = rep.op_monomial(a) @ q
        rhs = (q @ rep.op_monomial(a)).scale(2 * a.charge())
        assert lhs == rhs


def test_op_matrix_identity():
    rep = jw_modes(3, 2)
    ident = PfOperator.identity(3, 4)
    assert np.abs(op_matrix(rep, ident) - np.eye(rep.dim)).max() < TOL


def test_op_matrix_homomorphism_dense():
    rep = jw_modes(3, 2)
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = PfOperator(3, 4, int(rng.integers(0, 6)), tuple(int(x) for x in rng.integers(0, 3, size=4)))
        b = PfOperator(3, 4, int(rng.integers(0, 6)), tuple(int(x) for x in rng.integers(0, 3, size=4)))
        assert np.abs(op_matrix(rep, a) @ op_matrix(rep, b) - op_matrix(rep, a * b)).max() < 1e-8


def test_op_matrix_inverse_is_adjoint():
    rep = jw_modes(4, 2)
    rng = np.random.default_rng(43)
    for _ in range(25):
        a = PfOperator(4, 4, int(rng.integers(0, 8)), tuple(int(x) for x in rng.integers(0, 4, size=4)))
        assert np.abs(op_matrix(rep, a.inverse()) - op_matrix(rep, a).conj().T).max() < TOL


def test_monomial_round_trips_dense():
    rep = jw_modes(3, 2)
    for j in range(1, 5):
        mono = rep.mode_monomial(j)
        dense = mono.matrix()
        assert np.count_nonzero(dense) == rep.dim
        assert np.abs(dense @ dense.conj().T - np.eye(rep.dim)).max() < TOL


def test_monomial_power_and_dagger():
    rep = jw_modes(5, 1)
    g = rep.mode_monomial(2)
    assert g.matrix_power(5) == Monomial.identity(rep.order, rep.dim)
    assert g @ g.dagger() == Monomial.identity(rep.order, rep.dim)


def test_dim_cap_enforced():
    with pytest.raises(ValueError):
        DenseRep(3, 8)


@pytest.mark.parametrize("modulus, qudits", [(1, 2), (0, 1), (3, 0), (2, -1)])
def test_degenerate_representation_rejected(modulus, qudits):
    with pytest.raises(ValueError):
        DenseRep(modulus, qudits)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 2), (5, 1), (6, 2), (7, 1)]),
    data=st.data(),
)
def test_op_monomial_is_product_of_mode_powers(shape, data):
    modulus, qudits = shape
    rep = jw_modes(modulus, qudits)
    alpha = data.draw(st.lists(st.integers(0, modulus - 1), min_size=2 * qudits, max_size=2 * qudits))
    mu = data.draw(st.integers(0, 2 * modulus - 1))
    want = Monomial.identity(rep.order, rep.dim).scale(mu)
    for mode, exponent in enumerate(alpha, start=1):
        want = want @ rep.mode_monomial(mode).matrix_power(exponent)
    assert rep.op_monomial(PfOperator(modulus, 2 * qudits, mu, tuple(alpha))) == want


def test_projector_of_empty_stabilizer_is_identity():
    from pfstab.code import PfCode
    from pfstab.oracle import projector

    rep = jw_modes(3, 2)
    empty = PfCode(3, 4, ())
    p, trace = projector(rep, empty)
    assert np.abs(p - np.eye(rep.dim)).max() < TOL
    assert abs(trace - 9) < 1e-6


def test_projector_rejects_invalid_code():
    from pfstab.code import PfCode
    from pfstab.oracle import projector

    rep = jw_modes(3, 2)
    bad = PfCode(3, 4, (PfOperator.gamma(3, 4, 1),))
    with pytest.raises(ValueError):
        projector(rep, bad)


def test_syndrome_sim_of_stabilizer_and_identity_is_zero():
    from pfstab.builders import code_8_1_3_d3
    from pfstab.oracle import syndrome_sim

    code = code_8_1_3_d3()
    rep = jw_modes(3, 4)
    assert syndrome_sim(rep, code, PfOperator.identity(3, 8)) == (0, 0, 0)
    assert syndrome_sim(rep, code, code.generators[0]) == (0, 0, 0)
