from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pfstab.code
from pfstab.algebra import PfOperator, lambda_matrix
from pfstab.builders import (
    ToricSpec,
    build_clock_chain,
    build_toric,
    code_6_1_3_d7,
    code_8_1_3_d3,
    embed_qudit_code,
    five_qutrit_code,
)
from pfstab.code import (
    InvalidCodeError,
    PfCode,
    PhaseAssignmentError,
    analyze,
    canonical_phases,
    centralizer_basis,
    codespace_dim,
    distance,
    group_order,
    is_logical,
    l_con,
    logical_basis,
    stabilizer_matrix,
    syndrome,
    validate,
)
from pfstab.zmod import ZModMatrix, _howell_basis, kernel_basis, span_order

from oracles import (
    brute_distance,
    brute_lcon,
    reference_canonical_phases,
    reference_distance,
    reference_validate,
)


def op(modulus, alpha, mu=0):
    return PfOperator(modulus, len(alpha), mu, tuple(alpha))


def empty_code(modulus=3, num_modes=8):
    return PfCode(modulus, num_modes, ())


def test_validate_known_code_all_true():
    flags = validate(code_8_1_3_d3())
    assert flags.abelian and flags.parity_ok and flags.phase_ok


def test_validate_charge_violation():
    code = PfCode(3, 4, (PfOperator.gamma(3, 4, 1),))
    flags = validate(code)
    assert not flags.parity_ok


def test_validate_phase_multiple_of_same_operator():
    a = op(3, (2, 1, 0, 0), mu=0)
    b = op(3, (2, 1, 0, 0), mu=2)
    flags = validate(PfCode(3, 4, (a, b)))
    assert flags.abelian and flags.parity_ok and not flags.phase_ok


def test_validate_generator_with_bad_order():
    # A generator whose D-th power is a nontrivial phase.
    bare = op(2, (1, 1))
    assert bare.power(2).mu == 2
    flags = validate(PfCode(2, 2, (bare,)))
    assert not flags.phase_ok
    fixed = canonical_phases(PfCode(2, 2, (bare,)))
    assert validate(fixed).all_ok
    assert fixed.generators[0].mu == 1


def test_group_order_and_codespace_dim_known_code():
    code = code_8_1_3_d3()
    assert group_order(code) == 27
    assert codespace_dim(code) == 3


def test_group_order_empty_code():
    code = empty_code()
    assert group_order(code) == 1
    assert codespace_dim(code) == 81


def test_order_dimension_product_identity():
    code = code_8_1_3_d3()
    assert group_order(code) * codespace_dim(code) == 3**4
    code7 = code_6_1_3_d7()
    assert group_order(code7) * codespace_dim(code7) == 7**3


def test_centralizer_order_known_code():
    code = code_8_1_3_d3()
    assert span_order(centralizer_basis(code)) == 3**5


def test_centralizer_of_empty_code_is_everything():
    assert span_order(centralizer_basis(empty_code())) == 3**8


def test_centralizer_contains_stabilizer_span():
    code = code_8_1_3_d3()
    cent = centralizer_basis(code)
    from pfstab.zmod import span_membership

    for g in code.generators:
        assert span_membership(cent, g.alpha)


def test_is_logical_examples():
    code = code_8_1_3_d3()
    assert is_logical(code, op(3, (0, 2, 2, 0, 0, 1, 0, 0)))
    assert is_logical(code, op(3, (2, 1, 1, 0, 0, 0, 1, 0)))
    for g in code.generators:
        assert not is_logical(code, g)
    assert not is_logical(code, PfOperator.identity(3, 8))


def test_distance_of_known_codes():
    res = distance(code_8_1_3_d3())
    assert res.value == 3
    assert res.certificate is not None and res.certificate.weight() == 3
    assert is_logical(code_8_1_3_d3(), res.certificate)
    res7 = distance(code_6_1_3_d7())
    assert res7.value == 3


def test_distance_matches_brute_force():
    code = code_8_1_3_d3()
    assert distance(code).value == brute_distance(code)
    code7 = code_6_1_3_d7()
    assert distance(code7).value == brute_distance(code7)


def test_distance_cap_reports_bound():
    res = distance(code_8_1_3_d3(), max_weight=2)
    assert res.value is None and res.cap == 2


@pytest.mark.parametrize("cap", [0, -2])
def test_caps_below_one_are_rejected(cap):
    with pytest.raises(ValueError, match="at least 1"):
        distance(code_8_1_3_d3(), max_weight=cap)
    with pytest.raises(ValueError, match="at least 1"):
        l_con(code_8_1_3_d3(), max_diameter=cap)


@pytest.mark.parametrize(
    "build, cap, want",
    [
        (lambda: embed_qudit_code(five_qutrit_code()), None, (6, "g1 g2^2 g5 g7^2 g9 g10^2")),
        (lambda: build_toric(ToricSpec(2, 1, 2, 2)).code, 4, (4, "g1 g2 g5 g6")),
        (lambda: build_toric(ToricSpec(2, 1, 2, 3)).code, 4, (4, "g1 g2 g5 g6")),
        (lambda: build_toric(ToricSpec(2, 1, 3, 3)).code, 3, (None, None)),
    ],
    ids=["embedded_5_1_3", "toric_2_1_2_2", "toric_2_1_2_3", "toric_2_1_3_3"],
)
def test_distance_certificates_are_pinned(build, cap, want):
    res = distance(build(), max_weight=cap)
    assert (res.value, str(res.certificate) if res.certificate else None) == want
    assert res.cap == (cap if cap is not None else 20)


def _random_code(modulus: int, modes: int, gens: int, dense: bool, seed: int) -> PfCode:
    """Commuting parity-zero generators drawn at random, phases solved.

    Dense generators give codes up to d = 3 on eight modes; sparse ones
    (random support sizes) give many low-weight stabilizers.
    """
    rng = np.random.default_rng(seed)
    chosen: list[PfOperator] = []
    for _ in range(200):
        alpha = rng.integers(0, modulus, size=modes)
        if not dense:
            alpha[rng.choice(modes, size=int(rng.integers(0, modes - 1)), replace=False)] = 0
        alpha[-1] = (alpha[-1] - alpha.sum()) % modulus
        g = op(modulus, alpha)
        if any(alpha) and all(c.commutation_exponent(g) == 0 for c in chosen):
            chosen.append(g)
        if len(chosen) == gens:
            break
    return canonical_phases(PfCode(modulus, modes, tuple(chosen)))


@settings(max_examples=100, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 4, 5, 6]),
    modes=st.sampled_from([4, 6, 8]),
    spare=st.integers(1, 2),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    # With no kept tables every weight is built from tails of that length.
    table_bytes=st.sampled_from([pfstab.code._TABLE_BYTES, 0]),
    block_rows=st.sampled_from([pfstab.code._BLOCK_ROWS, 1]),
)
def test_distance_matches_per_support_reference(modulus, modes, spare, dense, seed, table_bytes, block_rows):
    try:
        code = _random_code(modulus, modes, max(1, modes // 2 - spare), dense, seed)
    except PhaseAssignmentError:
        assume(False)
    with patch.object(pfstab.code, "_TABLE_BYTES", table_bytes), patch.object(pfstab.code, "_BLOCK_ROWS", block_rows):
        if span_order(centralizer_basis(code)) == group_order(code):  # k = 0
            with pytest.raises(InvalidCodeError):
                distance(code)
            return
        d, _ = reference_distance(code)
        for cap in (None, *sorted({max(1, d - 1), d, d + 1})):
            res = distance(code, max_weight=cap)
            got = (res.value, str(res.certificate) if res.certificate else None)
            assert got == reference_distance(code, cap), cap


def test_distance_requires_logicals():
    # A 2-mode code whose stabilizer exhausts the parity-zero centralizer.
    code = canonical_phases(PfCode(2, 2, (op(2, (1, 1)),)))
    with pytest.raises(InvalidCodeError):
        distance(code)


def test_distance_invariant_under_generator_rechoice():
    code = code_8_1_3_d3()
    g1, g2, g3 = code.generators
    alt = canonical_phases(code.with_generators((g1 * g2, g2, g3 * g1)))
    assert stabilizer_matrix(alt).num_rows == 3
    assert span_order(stabilizer_matrix(alt)) == span_order(stabilizer_matrix(code))
    assert distance(alt).value == distance(code).value


def test_lcon_matches_brute_force_on_known_code():
    code = code_8_1_3_d3()
    res = l_con(code)
    assert res.value == brute_lcon(code)
    assert res.value is not None and res.value <= 6
    cert = res.certificate
    assert cert is not None and cert.charge() == 0 and is_logical(code, cert)


def test_lcon_cap_reads_as_bound():
    chain = build_clock_chain(2, 2)  # l_con = 4 on a four-mode chain
    capped = l_con(chain, max_diameter=2)
    assert (capped.value, capped.cap) == (None, 2)
    assert capped.to_dict() == {"value": None, "cap": 2, "certificate": None}
    full = l_con(chain, max_diameter=9)
    assert (full.value, full.cap, str(full.certificate)) == (4, None, "g1 g4")


def test_lcon_none_when_no_logical_exists():
    # Two independent generators on four modes at D=3 leave k = 0, so the
    # minimization runs over an empty set.
    code = canonical_phases(PfCode(3, 4, (op(3, (1, 2, 0, 0)), op(3, (0, 0, 1, 2)))))
    assert validate(code).all_ok
    res = l_con(code)
    assert res.value is None and res.certificate is None
    assert res.cap is None


def test_syndrome_of_single_mode_error():
    code = code_8_1_3_d3()
    e3 = PfOperator.gamma(3, 8, 3)
    assert syndrome(code, e3) == (0, 2, 2)


def test_syndrome_trivial_cases():
    code = code_8_1_3_d3()
    assert syndrome(code, PfOperator.identity(3, 8)) == (0, 0, 0)
    for g in code.generators:
        assert syndrome(code, g) == (0, 0, 0)


def test_syndrome_linearity():
    code = code_8_1_3_d3()
    rng = np.random.default_rng(53)
    for _ in range(25):
        e1 = op(3, tuple(int(x) for x in rng.integers(0, 3, size=8)))
        e2 = op(3, tuple(int(x) for x in rng.integers(0, 3, size=8)))
        s12 = syndrome(code, e1 * e2)
        expected = tuple((a + b) % 3 for a, b in zip(syndrome(code, e1), syndrome(code, e2)))
        assert s12 == expected


def test_detection_guarantee_up_to_distance():
    for code in (code_8_1_3_d3(), code_6_1_3_d7()):
        d = distance(code).value
        smat = stabilizer_matrix(code)
        from itertools import combinations, product

        from pfstab.zmod import span_membership

        m, modulus = code.num_modes, code.modulus
        for w in range(1, d):
            for supp in combinations(range(m), w):
                for assign in product(range(1, modulus), repeat=w):
                    alpha = [0] * m
                    for i, a in zip(supp, assign):
                        alpha[i] = a
                    e = op(modulus, tuple(alpha))
                    if span_membership(smat, e.alpha):
                        continue
                    assert any(syndrome(code, e)), f"undetected weight-{w} error {e}"


def test_canonical_phases_on_known_code_regression():
    code = code_8_1_3_d3()
    assert [g.mu for g in code.generators] == [0, 0, 0]
    assert validate(code).all_ok


def test_canonical_phases_unsolvable_phase_generator():
    phase_only = PfOperator(3, 4, 2, (0, 0, 0, 0))
    with pytest.raises(PhaseAssignmentError):
        canonical_phases(PfCode(3, 4, (phase_only,)))


def test_canonical_phases_majorana_pair_needs_i():
    pair = PfCode(2, 4, (op(2, (0, 1, 1, 0)),))
    fixed = canonical_phases(pair)
    assert fixed.generators[0].mu == 1
    assert validate(fixed).all_ok


def _random_generators(
    modulus: int, modes: int, gens: int, parity: bool, commuting: bool, dependent: bool, seed: int
) -> PfCode:
    """Random generators with random phases, parity-zero if ``parity``;
    commuting ones are drawn from the centralizer of those before them, and
    a dependent last row is a combination of the others, so the row kernel
    is nonempty."""
    rng = np.random.default_rng(seed)
    lam = lambda_matrix(modulus, modes).array
    rows = []
    for _ in range(gens - dependent):
        constraints = [np.ones(modes, dtype=np.int64)] if parity else []
        if commuting:
            constraints += [(row @ lam) % modulus for row in rows]
        allowed = np.eye(modes, dtype=np.int64)
        if constraints:
            allowed = kernel_basis(ZModMatrix(modulus, np.array(constraints).T % modulus)).array
        rows.append((rng.integers(0, modulus, size=allowed.shape[0]) @ allowed) % modulus)
    if dependent:
        rows.append((rng.integers(0, modulus, size=len(rows)) @ np.array(rows)) % modulus)
    mus = rng.integers(0, 2 * modulus, size=len(rows))
    return PfCode(modulus, modes, tuple(op(modulus, row, int(mu)) for row, mu in zip(rows, mus)))


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.integers(2, 9),
    modes=st.sampled_from([2, 4, 6, 8, 10]),
    gens=st.integers(1, 4),
    parity=st.booleans(),
    commuting=st.booleans(),
    dependent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_phase_algebra_matches_reference(modulus, modes, gens, parity, commuting, dependent, seed):
    code = _random_generators(modulus, modes, gens, parity, commuting, dependent and gens > 1, seed)
    assert validate(code) == reference_validate(code)
    # The kept basis, cut from the Howell form of [S | I], is the Howell basis of S.
    kept, howell = code._row_forms[0], _howell_basis(stabilizer_matrix(code).array, modulus)
    assert sorted(kept) == sorted(howell)
    assert all(np.array_equal(kept[j], howell[j]) for j in howell)
    try:
        want = reference_canonical_phases(code)
    except PhaseAssignmentError:
        with pytest.raises(PhaseAssignmentError):
            canonical_phases(code)
        return
    fixed = canonical_phases(code)
    assert [g.mu for g in fixed.generators] == [g.mu for g in want.generators]
    assert validate(fixed).phase_ok


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 5, 7]),
    modes=st.sampled_from([2, 4, 6, 8, 10]),
    gens=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_independent_phases_match_canonical_phases(modulus, modes, gens, seed):
    code = _random_generators(modulus, modes, gens, True, True, False, seed)
    assume(span_order(stabilizer_matrix(code)) == modulus**gens)  # independent rows
    fixed = pfstab.code._independent_phases(code)
    assert fixed == canonical_phases(code)
    assert validate(fixed).all_ok


def test_logical_basis_generates_quotient():
    code = code_8_1_3_d3()
    logs = logical_basis(code)
    assert logs, "distance-3 code must have logicals"
    for L in logs:
        assert is_logical(code, L)


def test_analyze_report_known_code():
    report = analyze(code_8_1_3_d3())
    assert report.flags.all_ok
    assert report.group_order == 27
    assert report.codespace_dim == 3
    assert report.k == 1
    assert report.distance.value == 3
    assert report.lcon.value is not None
    d = report.to_dict()
    assert d["D"] == 3 and d["k"] == 1 and d["distance"]["value"] == 3
    table = report.render_table()
    assert "distance" in table and "27" in table


def test_one_howell_form_of_s_and_i_per_code_object(monkeypatch):
    code = PfCode(3, 8, code_8_1_3_d3().generators)
    augmented, calls = pfstab.code._augmented_basis, []

    def counted(matrix):
        calls.append(matrix.num_cols)
        return augmented(matrix)

    monkeypatch.setattr(pfstab.code, "_augmented_basis", counted)
    assert validate(code).all_ok
    assert group_order(code) == 27 and codespace_dim(code) == 3
    logicals = logical_basis(code)
    assert logicals and all(is_logical(code, L) for L in logicals)
    assert distance(code).value == 3
    assert l_con(code).value == 4
    report = analyze(code)
    assert (report.k, report.distance.value, report.lcon.value) == (1, 3, 4)
    assert calls == [8]
    assert validate(code) is validate(code)


def test_analyze_invalid_code_reports_flags_only():
    report = analyze(PfCode(3, 4, (PfOperator.gamma(3, 4, 1),)))
    assert not report.flags.parity_ok
    assert report.group_order is None and report.distance is None


def test_lcon_at_least_distance_when_defined():
    from pfstab.builders import build_clock_chain

    for code in (code_8_1_3_d3(), code_6_1_3_d7(), build_clock_chain(3, 3)):
        d = distance(code).value
        lc = l_con(code).value
        assert lc is not None and lc >= d


def test_lcon_regression_values():
    assert l_con(code_8_1_3_d3()).value == 4
    assert l_con(code_6_1_3_d7()).value == 4
