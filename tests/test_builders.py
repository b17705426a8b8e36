import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfstab.code
from pfstab.algebra import PfOperator
from pfstab.builders import (
    QuditCheckMatrix,
    ToricSpec,
    build_clock_chain,
    build_toric,
    code_8_1_3_d3,
    double_code_d6,
    double_to_css,
    embed_qudit_code,
    five_qutrit_code,
)
from pfstab.code import (
    InvalidCodeError,
    analyze,
    codespace_dim,
    distance,
    group_order,
    is_logical,
    l_con,
    logical_basis,
    validate,
)
from pfstab.codefile import canonical_json, code_to_payload

from oracles import (
    brute_qudit_distance,
    reference_canonical_phases,
    reference_clock_chain,
    reference_double_d6,
    reference_embedding,
    reference_toric,
)


def assert_row_built(code, reference):
    """``code`` has the product-built reference's exponent rows and, as phases,
    the reference's canonical ones (found by multiplying every constraint out)."""
    assert [g.alpha for g in code.generators] == [g.alpha for g in reference.generators]
    assert code == reference_canonical_phases(reference)


# -- clock chains -----------------------------------------------------------


@pytest.mark.parametrize("modulus,n", [(2, 2), (2, 3), (3, 2), (3, 4), (5, 2)])
def test_clock_chain_parameters(modulus, n):
    code = build_clock_chain(modulus, n)
    assert validate(code).all_ok
    assert codespace_dim(code) == modulus  # k = 1
    assert distance(code).value == 1
    assert l_con(code).value == 2 * n


def test_clock_chain_generator_support_and_phase():
    code = build_clock_chain(2, 2)
    (g,) = code.generators
    assert g.support() == (2, 3)
    assert g.mu == 1  # the i prefactor of the Majorana pair term
    code3 = build_clock_chain(3, 4)
    assert [g.support() for g in code3.generators] == [(2, 3), (4, 5), (6, 7)]
    assert [g.mu for g in code3.generators] == [0, 0, 0]


def test_clock_chain_end_to_end_logicals():
    code = build_clock_chain(3, 4)
    bare_end = PfOperator.gamma(3, 8, 1)
    assert is_logical(code, bare_end)
    joined = PfOperator.from_factors(3, 8, [(1, -1), (8, 1)])
    assert joined.charge() == 0
    assert is_logical(code, joined)
    assert joined.diameter() == 8


@pytest.mark.parametrize("modulus,n", [(2, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
def test_clock_chain_matches_product_reference(modulus, n):
    assert_row_built(build_clock_chain(modulus, n), reference_clock_chain(modulus, n))


def test_clock_chain_rejects_single_site():
    with pytest.raises(ValueError):
        build_clock_chain(3, 1)


# -- qudit check matrices ----------------------------------------------------


def test_five_qudit_code_is_valid_and_distance_three():
    q = five_qutrit_code()
    assert q.commutes()
    assert q.codespace_dim() == 3
    assert q.distance() == 3
    assert q.distance() == brute_qudit_distance(3, 5, np.array([list(r) for r in q.rows]))


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 4, 5]),
    num_qudits=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    # With no kept table both halves of every weight are built in blocks;
    # 2048 bytes keep a few supports and stream the rest.
    table_bytes=st.sampled_from([pfstab.code._TABLE_BYTES, 0, 2048]),
    block_rows=st.sampled_from([pfstab.code._BLOCK_ROWS, 1]),
)
def test_qudit_distance_matches_brute_force(modulus, num_qudits, seed, table_bytes, block_rows):
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    for _ in range(60):
        row = rng.integers(0, modulus, size=2 * num_qudits)
        if len(rows) == num_qudits - 1:
            break
        if all(QuditCheckMatrix(modulus, num_qudits, (r, row)).commutes() for r in rows):
            rows.append(row)
    q = QuditCheckMatrix(modulus, num_qudits, tuple(tuple(r) for r in rows))
    want = brute_qudit_distance(modulus, num_qudits, np.array(rows).reshape(len(rows), -1))
    with patch.object(pfstab.code, "_TABLE_BYTES", table_bytes), patch.object(pfstab.code, "_BLOCK_ROWS", block_rows):
        assert q.distance() == want
        if want is not None and want > 1:
            assert q.distance(max_weight=want - 1) is None


def test_qudit_distance_bounds_its_letter_table():
    # 25e6 letters and their syndromes would take 400 MB; the bound refuses before building them.
    with pytest.raises(ValueError, match="letter table would take 399999984 bytes"):
        QuditCheckMatrix(5000, 1, ()).distance()
    # One qudit with no checks: every nonzero site operator is logical.
    assert QuditCheckMatrix(300, 1, ()).distance() == 1


def test_qudit_distance_cap_reads_as_code_distance_does():
    # None means no logical up to the cap: d = 3 > 2, or k = 0 with no cap.
    assert five_qutrit_code().distance(2) is None
    assert five_qutrit_code().distance(3) == 3
    assert QuditCheckMatrix(3, 2, ((1, 1, 0, 0), (0, 0, 1, 2))).distance() is None
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"max_weight must be at least 1, got {cap}"):
            five_qutrit_code().distance(cap)


def test_qudit_check_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QuditCheckMatrix(3, 2, ((1, 0, 0),))


def test_noncommuting_qudit_rows_detected():
    # X on qudit 1 and Z on qudit 1 do not commute.
    q = QuditCheckMatrix(3, 1, ((1, 0), (0, 1)))
    assert not q.commutes()


# -- qudit -> parafermion embedding ------------------------------------------


def test_embed_single_free_qudit():
    q = QuditCheckMatrix(3, 1, ())
    code = embed_qudit_code(q)
    assert code.num_modes == 4
    assert len(code.generators) == 1
    assert group_order(code) == 3
    assert codespace_dim(code) == 3
    z_like = PfOperator.from_factors(3, 4, [(1, -1), (2, 1)])
    x_like = PfOperator.from_factors(3, 4, [(1, -1), (3, 1)])
    assert z_like.commutation_exponent(x_like) == 1  # embedded Weyl pair
    assert z_like.power(3).is_identity() and x_like.power(3).is_identity()
    assert z_like.charge() == 0 and x_like.charge() == 0
    assert is_logical(code, z_like) and is_logical(code, x_like)


def test_embedded_weyl_pairs_commute_across_sites():
    q = QuditCheckMatrix(3, 2, ())
    code = embed_qudit_code(q)
    z1 = PfOperator.from_factors(3, 8, [(1, -1), (2, 1)])
    x2 = PfOperator.from_factors(3, 8, [(5, -1), (7, 1)])
    assert z1.commutation_exponent(x2) == 0
    z2 = PfOperator.from_factors(3, 8, [(5, -1), (6, 1)])
    assert z2.commutation_exponent(x2) == 1
    for g in code.generators:
        assert g.charge() == 0


def test_embed_five_qubit_code_doubles_distance():
    q = five_qutrit_code(2)
    assert q.distance() == 3
    code = embed_qudit_code(q)
    assert code.num_modes == 20
    assert validate(code).all_ok
    assert codespace_dim(code) == 2  # k = 1
    assert distance(code).value == 6


def test_embedding_does_not_double_distance_in_general():
    q = QuditCheckMatrix(5, 2, [[4, 1, 3, 2]])
    assert q.distance() == 1
    code = embed_qudit_code(q)
    assert codespace_dim(code) == q.codespace_dim() == 5  # k is kept
    assert distance(code).value == 3  # not 2d = 2


@pytest.mark.parametrize(
    "remix",
    [
        np.eye(4, dtype=np.int64),
        np.array([[1, 0, 0, 0], [2, 1, 0, 0], [1, 1, 1, 0], [0, 2, 1, 1]]),
        np.array([[1, 1, 2, 0], [0, 1, 0, 1], [0, 0, 1, 2], [0, 0, 0, 1]]),
    ],
    ids=["five-qutrit", "lower-remix", "upper-remix"],
)
def test_embedding_matches_product_reference(remix):
    rows = (remix @ five_qutrit_code().matrix().array) % 3
    q = QuditCheckMatrix(3, 5, rows.tolist())
    assert_row_built(embed_qudit_code(q), reference_embedding(q))


def test_embed_rejects_noncommuting_input():
    q = QuditCheckMatrix(3, 1, ((1, 0), (0, 1)))
    with pytest.raises(InvalidCodeError):
        embed_qudit_code(q)


# -- CSS doubling -------------------------------------------------------------


def test_double_to_css_known_code():
    css = double_to_css(code_8_1_3_d3())
    assert css.num_qudits == 8
    assert css.commutes()
    assert css.codespace_dim() == 9  # k' = 2k = 2
    assert css.distance(max_weight=4) == 2  # regression value; d' is construction-dependent


def test_double_to_css_empty_stabilizer():
    from pfstab.code import PfCode

    empty = PfCode(3, 4, ())
    css = double_to_css(empty)
    assert css.codespace_dim() == 3**4  # k' = 2n


def test_double_to_css_chain_regression():
    css = double_to_css(build_clock_chain(3, 4))
    assert css.num_qudits == 8
    assert css.codespace_dim() == 9
    assert css.distance(max_weight=3) == 1


def test_css_rows_satisfy_commutation_identity():
    css = double_to_css(code_8_1_3_d3())
    rows = np.array([list(r) for r in css.rows], dtype=np.int64)
    nq = css.num_qudits
    u, v = rows[:, :nq], rows[:, nq:]
    assert not ((u @ v.T - v @ u.T) % 3).any()


# -- D = 6 doubling ------------------------------------------------------------


def test_double_d6_generator_set():
    code6 = double_code_d6(code_8_1_3_d3())
    assert code6.modulus == 6
    assert len(code6.generators) == 7
    alphas = [g.alpha for g in code6.generators]
    assert (3, 3, 0, 0, 0, 0, 0, 0) in alphas
    assert (4, 2, 0, 4, 0, 2, 0, 0) in alphas
    assert validate(code6).all_ok


def test_double_d6_encodes_a_qutrit():
    code6 = double_code_d6(code_8_1_3_d3())
    assert group_order(code6) * codespace_dim(code6) == 6**4
    assert codespace_dim(code6) == 3


def test_double_d6_squared_logicals_have_order_three():
    code6 = double_code_d6(code_8_1_3_d3())
    lx = PfOperator(6, 8, 0, tuple((2 * a) % 6 for a in (2, 1, 1, 0, 0, 0, 1, 0)))
    lz = PfOperator(6, 8, 0, tuple((2 * a) % 6 for a in (0, 2, 2, 0, 0, 1, 0, 0)))
    assert is_logical(code6, lx) and is_logical(code6, lz)
    c = lx.commutation_exponent(lz)
    order = 1
    acc = c
    while acc % 6:
        acc = (acc + c) % 6
        order += 1
    assert order == 3


@pytest.mark.parametrize("source", [code_8_1_3_d3, lambda: build_clock_chain(3, 3)], ids=["8_1_3", "chain"])
def test_double_d6_matches_product_reference(source):
    code3 = source()
    assert_row_built(double_code_d6(code3), reference_double_d6(code3))


def test_double_d6_rejects_wrong_modulus():
    with pytest.raises(ValueError):
        double_code_d6(build_clock_chain(2, 2))


# -- toric construction ---------------------------------------------------------


def test_toric_square_lattice_parameters():
    toric = build_toric(ToricSpec(2, 1, 2, 2))
    code = toric.code
    assert code.modulus == 4
    assert code.num_modes == 32
    assert validate(code).all_ok
    assert codespace_dim(code) == 16  # k = 2
    assert group_order(code) == 4**14


def test_toric_all_logical_charges_zero_on_square_lattice():
    toric = build_toric(ToricSpec(2, 1, 2, 2))
    charges = {op.charge() for op in logical_basis(toric.code)}
    assert charges == {0}
    for op in toric.logicals.values():
        assert op.charge() == 0


def test_toric_rectangular_lattice_has_parity_violating_logical():
    toric = build_toric(ToricSpec(2, 1, 2, 3))
    assert codespace_dim(toric.code) == 16
    charges = {op.charge() for op in logical_basis(toric.code)}
    assert 2 in charges
    assert toric.logicals["horizontal_z"].charge() == (2 * 2) % 4  # a * p^l
    assert toric.logicals["vertical_z"].charge() == (3 * 2) % 4  # b * p^l


def test_toric_designated_loops_are_logical():
    toric = build_toric(ToricSpec(2, 1, 2, 2))
    for name, op in toric.logicals.items():
        assert is_logical(toric.code, op), name
    hz = toric.logicals["horizontal_z"]
    xv = toric.logicals["vertical_x"]
    assert hz.commutation_exponent(xv) != 0  # conjugate pair
    assert hz.commutation_exponent(toric.logicals["horizontal_x"]) == 0


def test_toric_star_plaquette_overlap_commutation():
    toric = build_toric(ToricSpec(2, 1, 2, 2))
    gens = toric.code.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert gens[i].commutation_exponent(gens[j]) == 0


def test_toric_site_stabilizers_preserve_parity():
    toric = build_toric(ToricSpec(2, 1, 3, 2))
    for g in toric.code.generators:
        assert g.charge() == 0


def test_toric_spec_validation():
    with pytest.raises(ValueError):
        ToricSpec(4, 1, 2, 2)
    with pytest.raises(ValueError):
        ToricSpec(2, 0, 2, 2)
    with pytest.raises(ValueError):
        ToricSpec(2, 1, 1, 2)


def test_toric_layout_present():
    toric = build_toric(ToricSpec(2, 1, 2, 2))
    layout = toric.code.mode_layout
    assert layout is not None and len(layout) == 32
    assert all(len(coord) == 2 for coord in layout.values())


@pytest.mark.parametrize("spec", [(2, 1, 2, 2), (2, 1, 2, 3), (2, 1, 3, 3), (3, 1, 2, 2)])
def test_toric_matches_product_reference(spec):
    toric = build_toric(ToricSpec(*spec))
    code, stars, plaquettes, logicals = reference_toric(ToricSpec(*spec))
    assert_row_built(toric.code, code)
    assert [s.alpha for s in toric.stars] == [s.alpha for s in stars]
    assert [p.alpha for p in toric.plaquettes] == [p.alpha for p in plaquettes]
    assert toric.logicals == logicals


@pytest.mark.parametrize("spec", [(2, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 2)])
def test_toric_families_are_the_code_generators(spec):
    toric = build_toric(ToricSpec(*spec))
    sites, cells = 2 * spec[2] * spec[3], spec[2] * spec[3]
    gens = toric.code.generators
    assert gens[sites : sites + cells - 1] == toric.stars[:-1]
    assert gens[sites + cells - 1 :] == toric.plaquettes[:-1]
    assert all(op.mu == 0 for op in (*toric.stars, *toric.plaquettes))


# sha256 of the canonical JSON of built codes that codes/ does not ship.
@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: build_toric(ToricSpec(2, 1, 3, 3)).code, "95bf4de08184c4dd9048db0e5bf7c81506618f7e9e9155a1c483fd33d222c66a"),
        (lambda: build_toric(ToricSpec(2, 1, 3, 4)).code, "9815f6151ad48f7e7946753f9c10b219fff29b37ea997f43cd53bbc480031fa5"),
        (lambda: build_toric(ToricSpec(3, 1, 2, 2)).code, "daa3566544d8711647b739e228c42e7cfd3ed5744253e8be51568796b076c410"),
        (lambda: build_clock_chain(4, 5), "0d241c84c207d330aaa756733d70afd2c2e627fff414cac637585ee003e81a93"),
        (lambda: build_clock_chain(5, 6), "7be70f60da6e5a3c0294926c6346ff1c99489e72f71bcd9246dba0ba688df25c"),
    ],
    ids=["toric_2_1_3_3", "toric_2_1_3_4", "toric_3_1_2_2", "chain_4_5", "chain_5_6"],
)
def test_built_code_payload_is_pinned(build, digest):
    assert hashlib.sha256(canonical_json(code_to_payload(build())).encode()).hexdigest() == digest
