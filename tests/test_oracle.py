import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfstab.algebra import PfOperator
from pfstab.builders import build_clock_chain, code_6_1_3_d7, code_8_1_3_d3
from pfstab.code import PfCode, PhaseAssignmentError, canonical_phases, group_order, syndrome, validate
from pfstab.oracle import (
    DenseRep,
    Monomial,
    clock_ops,
    codewords,
    jw_modes,
    op_matrix,
    projector,
    relation_report,
    syndrome_sim,
)

from oracles import reference_codewords, reference_projector
from test_code import _random_generators

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


@settings(max_examples=120, deadline=None)
@given(shape=st.tuples(st.integers(2, 5), st.integers(1, 3)), data=st.data())
def test_dense_oracle_matches_products_and_commutation(shape, data):
    modulus, qudits = shape
    rep = jw_modes(modulus, qudits)
    exponents = st.lists(st.integers(0, modulus - 1), min_size=2 * qudits, max_size=2 * qudits)
    a, b = (PfOperator(modulus, 2 * qudits, data.draw(st.integers(0, 2 * modulus - 1)), tuple(data.draw(exponents)))
            for _ in range(2))
    ma, mb = rep.op_monomial(a), rep.op_monomial(b)
    assert ma @ mb == rep.op_monomial(a * b)
    # a b = w^{2c} b a with c = a.commutation_exponent(b)
    assert ma @ mb == (mb @ ma).scale(2 * a.commutation_exponent(b))


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
    shape=st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 2), (5, 1), (6, 2), (7, 1), (6, 4), (2, 5)]),
    data=st.data(),
)
def test_op_monomial_is_product_of_mode_powers(shape, data):
    modulus, qudits = shape
    rep = jw_modes(modulus, qudits)
    alpha = data.draw(
        st.just([0] * (2 * qudits))
        | st.lists(st.integers(0, modulus - 1), min_size=2 * qudits, max_size=2 * qudits)
    )
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


def _assert_matches_reference(rep, code, rng):
    p, trace = projector(rep, code)
    want_p, want_trace = reference_projector(rep, code)
    assert np.abs(p - want_p).max() < TOL
    assert abs(trace - want_trace) < TOL
    basis = codewords(rep, code)
    assert basis.shape == reference_codewords(rep, code).shape
    assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() < TOL
    assert np.abs(want_p @ basis - basis).max() < TOL
    d, m = code.modulus, code.num_modes
    for _ in range(4):
        error = PfOperator(d, m, 0, tuple(int(x) for x in rng.integers(0, d, size=m)))
        assert syndrome_sim(rep, code, error) == syndrome(code, error)
    order = group_order(code)
    if order > 1:
        for fn in (projector, codewords, reference_projector):
            with pytest.raises(ValueError, match="cap"):
                fn(rep, code, cap=order - 1)
    assert abs(projector(rep, code, cap=order)[1] - trace) < TOL


SMALL_BUILDER_CODES = {
    "pf_8_1_3_d3": code_8_1_3_d3,
    "pf_6_1_3_d7": code_6_1_3_d7,
    "empty_d3_n2": lambda: PfCode(3, 4, ()),
    **{
        f"chain_d{d}_n{n}": lambda d=d, n=n: build_clock_chain(d, n)
        for d, n in [(2, 2), (2, 5), (3, 3), (3, 6), (4, 3), (5, 4), (6, 3), (9, 3)]
    },
}


@pytest.mark.parametrize("name", sorted(SMALL_BUILDER_CODES))
def test_orbit_oracle_matches_dense_reference_on_builder_codes(name):
    code = SMALL_BUILDER_CODES[name]()
    _assert_matches_reference(jw_modes(code.modulus, code.n), code, np.random.default_rng(len(name)))


@settings(max_examples=60, deadline=None)
@given(
    # D^n <= 256 keeps the reference eigh quick; the builder codes reach 729.
    shape=st.sampled_from([(2, 2), (2, 4), (2, 6), (3, 3), (3, 5), (4, 4), (5, 3), (6, 3), (7, 2), (8, 2), (9, 2)]),
    gens=st.integers(1, 4),
    dependent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_orbit_oracle_matches_dense_reference_on_random_codes(shape, gens, dependent, seed):
    modulus, qudits = shape
    rep = jw_modes(modulus, qudits)
    drawn = _random_generators(modulus, 2 * qudits, gens, True, True, dependent and gens > 1, seed)
    if not validate(drawn).all_ok:
        error = PfOperator.identity(modulus, 2 * qudits)
        for fn in (projector, codewords, reference_projector, lambda r, c: syndrome_sim(r, c, error)):
            with pytest.raises(ValueError, match="validation flags"):
                fn(rep, drawn)
    try:
        code = canonical_phases(drawn)
    except PhaseAssignmentError:
        return
    _assert_matches_reference(rep, code, np.random.default_rng(seed))


def test_kept_codespace_follows_the_code_asked_for():
    codes = [code_8_1_3_d3(), build_clock_chain(3, 4), code_8_1_3_d3()]
    errors = [PfOperator.gamma(3, 8, 1), PfOperator.gamma(3, 8, 5, 2)]
    rep = jw_modes(3, 4)
    for code in codes:
        basis = codewords(rep, code)
        assert not basis.flags.writeable
        assert np.array_equal(basis, codewords(jw_modes(3, 4), code))
        p, trace = projector(rep, code)
        want_p, want_trace = projector(jw_modes(3, 4), code)
        assert np.array_equal(p, want_p) and trace == want_trace
        for error in errors:
            assert syndrome_sim(rep, code, error) == syndrome_sim(jw_modes(3, 4), code, error)


def test_syndrome_sim_rejects_states_outside_one_eigenspace(monkeypatch):
    from pfstab import oracle

    code = code_8_1_3_d3()
    rep = jw_modes(3, 4)
    codeword = oracle.codewords(rep, code)[:, :1]
    flipped = rep.op_monomial(PfOperator.gamma(3, 8, 1)).apply(codeword)  # nonzero syndrome, as d = 3
    no_error = PfOperator.identity(3, 8)
    monkeypatch.setattr(oracle, "codewords", lambda *args, **kwargs: np.hstack([codeword, flipped]))
    with pytest.raises(oracle.DegenerateEigenphaseError, match="differs between codewords"):
        oracle.syndrome_sim(rep, code, no_error)
    monkeypatch.setattr(oracle, "codewords", lambda *args, **kwargs: (codeword + flipped) / np.sqrt(2))
    with pytest.raises(oracle.DegenerateEigenphaseError, match="not an eigenvector"):
        oracle.syndrome_sim(rep, code, no_error)
