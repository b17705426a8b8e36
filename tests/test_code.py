import hashlib
import pickle
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pfstab.code
from pfstab.algebra import PfOperator, lambda_matrix
from pfstab.builders import (
    ToricSpec,
    build_clock_chain,
    build_toric,
    code_6_1_3_d7,
    code_8_1_3_d3,
    double_code_d6,
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
    commutation_rows,
    distance,
    group_order,
    is_logical,
    l_con,
    logical_basis,
    stabilizer_matrix,
    support_diameter,
    syndrome,
    validate,
)
from pfstab.repro import corpus
from pfstab.search import SearchSpec, canonical_equivalence_key, find_codes
from pfstab.zmod import ZModMatrix, _howell_basis, _pivot_columns, _step_dtype, howell_form, kernel_basis, span_order

from oracles import (
    brute_distance,
    brute_lcon,
    enumerate_span,
    reference_canonical_phases,
    reference_distance,
    reference_lcon,
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
    # With no kept tables every weight is built from tails of that length;
    # 2048 bytes keep a few supports and stream the rest.
    table_bytes=st.sampled_from([pfstab.code._TABLE_BYTES, 0, 2048]),
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


@settings(max_examples=40, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 4, 5, 6]),
    modes=st.sampled_from([4, 6, 8]),
    seed=st.integers(0, 2**32 - 1),
    table_bytes=st.sampled_from([pfstab.code._TABLE_BYTES, 0, 2048]),
)
def test_distance_certificates_survive_one_hash_bucket(modulus, modes, seed, table_bytes):
    # Every syndrome hashes alike, so only the whole-row comparison tells matches apart.
    try:
        code = _random_code(modulus, modes, max(1, modes // 2 - 1), True, seed)
    except PhaseAssignmentError:
        assume(False)
    assume(span_order(centralizer_basis(code)) != group_order(code))  # k > 0
    def one_bucket(rows):
        return np.zeros(len(rows), dtype=np.uint64)

    with patch.object(pfstab.code, "_row_hashes", one_bucket), patch.object(pfstab.code, "_TABLE_BYTES", table_bytes):
        res = distance(code)
    assert (res.value, str(res.certificate)) == reference_distance(code)


def test_distance_grows_its_kept_table_only_as_far_as_the_scan_reaches():
    # The first logical lies in the first high blocks, so the kept weight-2
    # prefix stays far below all 4,464 rows of that weight.
    sizes = []
    half_table = pfstab.code._half_table

    def spy(rows):
        sizes.append(len(rows))
        return half_table(rows)

    code = build_toric(ToricSpec(2, 1, 2, 2)).code
    with patch.object(pfstab.code, "_BLOCK_ROWS", 64), patch.object(pfstab.code, "_half_table", spy):
        res = distance(code, max_weight=4)
    assert (res.value, str(res.certificate)) == (4, "g1 g2 g5 g6")
    assert max(sizes) <= 200


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


def _remix(code: PfCode, seed: int, planar: bool = False) -> PfCode:
    """The code with its rows replaced by a random unitriangular mix of them
    (the same span), phases solved again; ``planar`` puts the modes at random
    points of a 3 x 3 grid, several modes on a point allowed."""
    rng = np.random.default_rng(seed)
    d, r = code.modulus, len(code.generators)
    mix = np.triu(rng.integers(0, d, size=(r, r)), 1) + np.eye(r, dtype=np.int64)
    rows = (mix @ code._rows) % d
    layout = code.mode_layout
    if planar:
        layout = {mode: tuple(int(x) for x in rng.integers(0, 3, size=2)) for mode in range(1, code.num_modes + 1)}
    return canonical_phases(PfCode(d, code.num_modes, tuple(op(d, row) for row in rows), layout))


_LCON_MODULI = (2, 3, 4, 5, 6, 8, 9, 12)


@pytest.fixture(scope="module")
def search_hits():
    """A few hits of a k = 1, d = 2 search on 4 and on 6 modes for each modulus."""
    return {
        d: [hit for modes, gens in ((4, 1), (6, 2))
            for hit in find_codes(SearchSpec(d, modes, 1, 2, generator_count=gens, max_hits=3), threads=1)[0]]
        for d in _LCON_MODULI
    }


@settings(max_examples=300, deadline=None)
@given(
    source=st.sampled_from(["chain", "hit", "random", "toric"]),
    modulus=st.sampled_from(_LCON_MODULI),
    pick=st.integers(0, 5),
    planar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    cap=st.sampled_from([None, 1, 2, 3]),
    window_bytes=st.sampled_from([pfstab.code._WINDOW_BYTES, 0]),  # 0: one corner per batch
)
# Found by mutation checks: a column whose entries' gcds with 12 do not nest,
# so the pivot needs the extended-gcd combination; a zero column, whose pivot
# row must stay; two corners marked at one column, the later with the smaller
# side.
@example(source="random", modulus=12, pick=1, planar=False, seed=0, cap=None, window_bytes=1 << 22)
@example(source="random", modulus=2, pick=2, planar=True, seed=1618, cap=None, window_bytes=1 << 22)
@example(source="hit", modulus=2, pick=0, planar=True, seed=1, cap=None, window_bytes=1 << 22)
def test_lcon_matches_per_window_reference(search_hits, source, modulus, pick, planar, seed, cap, window_bytes):
    if source == "chain":
        code = build_clock_chain(modulus, 2 + pick % 3)
    elif source == "hit":
        hits = search_hits[modulus]
        code = hits[pick % len(hits)]
    elif source == "random":
        try:
            code = _random_code(modulus, (4, 6, 8)[pick % 3], 1 + pick % 3, pick % 2 == 0, seed)
        except PhaseAssignmentError:
            assume(False)
    else:
        code = build_toric(ToricSpec(2, 1, 2, 2)).code
        planar = False
    code = _remix(code, seed, planar)
    with patch.object(pfstab.code, "_WINDOW_BYTES", window_bytes):
        res = l_con(code, max_diameter=cap)
    assert (res.value, str(res.certificate) if res.certificate else None, res.cap) == reference_lcon(code, cap)


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(["chain", "toric"]), modulus=st.sampled_from([2, 3, 4, 5, 6]), n=st.integers(2, 4),
       data=st.data())
def test_lcon_is_translation_invariant(source, modulus, n, data):
    code = build_toric(ToricSpec(2, 1, 2, 2)).code if source == "toric" else build_clock_chain(modulus, n)
    coords = {mode: code.mode_layout[mode] if code.mode_layout else (mode,) for mode in range(1, code.num_modes + 1)}
    # Per axis, any shift that keeps every coordinate in [-2^31, 2^31).
    offsets = [data.draw(st.integers(-(2**31) - min(axis), 2**31 - 1 - max(axis))) for axis in zip(*coords.values())]
    shifted = PfCode(code.modulus, code.num_modes, code.generators,
                     {mode: tuple(x + o for x, o in zip(c, offsets)) for mode, c in coords.items()})
    want, got = l_con(code), l_con(shifted)
    assert (got.value, str(got.certificate)) == (want.value, str(want.certificate))


@pytest.mark.parametrize(
    "coordinates",
    [
        [(-(2**63) + 1,), (0,), (1,), (2**63 - 1,)],
        [(-(2**62),), (0,), (1,), (2**62,)],
        [(0,), (1,), (2,), (2**63 - 1,)],
        [(0,), (1,), (2,), (2**31,)],
        [(-(2**31) - 1,), (0,), (1,), (2,)],
        [(), (), (), ()],
        [(0.5,), (1,), (2,), (3,)],
        [(0,), (1,), (2,), (True,)],
    ],
    ids=["full-int64", "half-int64", "one-wide", "2^31", "below-2^31", "empty", "float", "bool"],
)
def test_layout_coordinates_must_be_integers_in_the_int32_range(coordinates):
    generators = (PfOperator(3, 4, 0, (1, 2, 0, 0)),)
    with pytest.raises(ValueError, match="mode_layout coordinates must"):
        PfCode(3, 4, generators, dict(enumerate(coordinates, 1)))
    edge = PfCode(3, 4, generators, {1: (-(2**31),), 2: (0,), 3: (1,), 4: (2**31 - 1,)})
    assert str(l_con(edge).certificate) == "g3 g4^2"


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.sampled_from([4, 5, 6, 7, 8, 9, 10, 12]),
    corners=st.integers(1, 3),
    spanning=st.integers(1, 3),
    carried=st.integers(1, 2),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_elimination_matches_span_enumeration(modulus, corners, spanning, carried, width, seed):
    # Column j joins at side j + 1; a corner's window of side s is its first s columns.
    rng = np.random.default_rng(seed)
    block = rng.integers(0, modulus, size=(corners, spanning + carried, width))
    sides = np.tile(np.arange(1, width + 1), (corners, 1))
    want = (width + 1, corners)
    for side in range(1, width + 1):
        for b in range(corners):
            span = enumerate_span(ZModMatrix(modulus, block[b, :spanning, :side]))
            if any(tuple(row.tolist()) not in span for row in block[b, spanning:, :side]):
                want = min(want, (side, b))
    # l_con runs the elimination in the narrow dtype _step_dtype picks (int8 up to D = 8).
    for dtype in (np.int64, _step_dtype(modulus)):
        table = block.transpose(1, 0, 2).astype(dtype, order="C")
        assert pfstab.code._first_window(table, spanning, sides, modulus, (width + 1, corners), 0) == want


@pytest.mark.parametrize("a", [2, 3, 4, 5, 6])
def test_toric_lcon_is_two_a_minus_one(a):
    # The parity-protected toric code on an a x a lattice (D = 4, 8 a^2 modes).
    code = build_toric(ToricSpec(2, 1, a, a)).code
    res = l_con(code)
    assert res.value == 2 * a - 1 and res.cap is None
    assert is_logical(code, res.certificate)
    assert support_diameter(res.certificate, code.mode_layout) == res.value


@pytest.mark.parametrize(
    "builder, cap",
    [(("toric", a), cap) for a in (2, 3, 4, 5) for cap in (None, a)]
    + [(("chain", modulus, n), cap) for modulus, n in ((2, 2), (3, 4), (5, 3), (4, 3), (6, 2)) for cap in (None, 1, 2, 3)],
    ids=str,
)
def test_lcon_drops_finished_corners_and_stays_exact(builder, cap):
    # A corner whose remaining columns are padding cannot tie the scan's sentinel; with and without a
    # cap below the value (no window at all) the value and certificate are the per-window reference's.
    kind, *args = builder
    code = build_toric(ToricSpec(2, 1, args[0], args[0])).code if kind == "toric" else build_clock_chain(*args)
    res = l_con(code, max_diameter=cap)
    assert (res.value, str(res.certificate) if res.certificate else None, res.cap) == reference_lcon(code, cap)


@pytest.mark.parametrize("modulus", [10**6, 30030])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lcon_matches_reference_at_large_moduli(modulus, seed):
    # Remixed rows carry residues whose gcds with 30030 = 2*3*5*7*11*13 do not nest.
    code = _remix(build_clock_chain(modulus, 4), seed, planar=seed == 2)
    start = time.perf_counter()
    res = l_con(code)
    assert time.perf_counter() - start < 1.0
    assert (res.value, str(res.certificate), res.cap) == reference_lcon(code)


def test_kept_centralizer_is_read_only_and_survives_rephasing():
    code = build_clock_chain(3, 4)
    cent = centralizer_basis(code).array
    assert not cent.flags.writeable and centralizer_basis(code).array is cent
    with pytest.raises(ValueError):
        cent[0, 0] = 1
    fixed = canonical_phases(code.with_generators(PfOperator(3, 8, 1, g.alpha) for g in code.generators))
    # canonical_phases hands the kept forms on when the rows are unchanged.
    assert canonical_phases(code)._centralizer is cent
    assert np.array_equal(centralizer_basis(fixed).array, cent)


def test_analyze_computes_one_centralizer_kernel(monkeypatch):
    code = build_toric(ToricSpec(2, 1, 2, 2)).code
    kernel, shapes = pfstab.code.kernel_basis, []

    def counted(matrix):
        shapes.append((matrix.num_rows, matrix.num_cols))
        return kernel(matrix)

    monkeypatch.setattr(pfstab.code, "kernel_basis", counted)
    report = analyze(code, max_weight=4, max_diameter=8)
    assert report.lcon.value == 3 and report.logicals
    assert logical_basis(code) == list(report.logicals) and centralizer_basis(code).num_rows
    # One kernel of the m x r matrix (S L)^T for the centralizer; the only
    # other kernel is that of the window l_con certifies.
    centralizer_kernels = [s for s in shapes if s == (code.num_modes, len(code.generators))]
    assert len(centralizer_kernels) == 1 and len(shapes) == 2


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
    # S L mod D is kept read-only and handed on by canonical_phases.
    rows = commutation_rows(code)
    smat = np.array([g.alpha for g in code.generators], dtype=np.int64)
    assert np.array_equal(rows, (smat @ lambda_matrix(modulus, modes).array) % modulus)
    assert not rows.flags.writeable and commutation_rows(code) is rows
    # The kept basis, cut from the Howell form of [S | I], is the Howell basis of S.
    kept, howell = code._row_forms[0], _howell_basis(stabilizer_matrix(code).array, modulus)
    assert kept.dtype == np.int64 and np.array_equal(kept, howell)
    # The span key format: sha256 of D, m and the Howell form of S, here read off the kept basis.
    raw = f"{modulus}:{modes}:".encode() + howell_form(stabilizer_matrix(code)).array.tobytes()
    assert canonical_equivalence_key(code) == hashlib.sha256(raw).hexdigest()
    try:
        want = reference_canonical_phases(code)
    except PhaseAssignmentError:
        with pytest.raises(PhaseAssignmentError):
            canonical_phases(code)
        return
    fixed = canonical_phases(code)
    assert [g.mu for g in fixed.generators] == [g.mu for g in want.generators]
    # The rows are kept once, read-only, and handed on with the Howell forms.
    assert fixed._rows is code._rows and not code._rows.flags.writeable
    assert commutation_rows(fixed) is rows
    assert code._rows.tolist() == [list(g.alpha) for g in code.generators]
    assert validate(fixed).phase_ok
    assert canonical_equivalence_key(fixed) == canonical_equivalence_key(code)


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.integers(2, 12),
    modes=st.sampled_from([2, 4, 6]),
    gens=st.integers(1, 4),
    scaled=st.booleans(),
    dependent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_basis_read_off_sorted_codes_is_the_howell_basis(modulus, modes, gens, scaled, dependent, seed):
    # Scaling rows by a divisor of D gives pivots other than 1 for composite D;
    # a dependent last row gives spans smaller than D^r.
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, modulus, size=(gens, modes))
    if scaled:
        rows *= rng.choice([f for f in range(1, modulus) if modulus % f == 0], size=(gens, 1))
    if dependent and gens > 1:
        rows[-1] = rng.integers(0, modulus, size=gens - 1) @ rows[:-1]
    rows %= modulus
    # A batch of two spans of one size: the rows' and that of the rows with their columns reversed.
    place = modulus ** np.arange(modes - 1, -1, -1)
    batch = [rows, rows[:, ::-1]]
    codes = np.array([sorted(np.array(v) @ place for v in enumerate_span(ZModMatrix(modulus, r))) for r in batch], dtype=np.int64)
    pivots, basis = pfstab.code._span_bases(codes, modulus, modes)
    assert basis.dtype == np.int64 and basis.flags.c_contiguous
    start = 0
    for found, r in zip(pivots, batch):
        want = _howell_basis(r, modulus)
        assert np.flatnonzero(found).tolist() == _pivot_columns(want).tolist()
        assert np.array_equal(basis[start : start + len(want)], want)
        start += len(want)
    assert start == len(basis)


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.integers(2, 12),
    modes=st.sampled_from([4, 6, 8]),
    gens=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# Even D whose reference phases are nonzero, as [1, 1], [1, 1, 0], [1, 0, 0, 1] and [1, 1].
@example(modulus=2, modes=4, gens=2, seed=1)
@example(modulus=4, modes=6, gens=3, seed=0)
@example(modulus=6, modes=8, gens=4, seed=1)
@example(modulus=10, modes=6, gens=2, seed=0)
def test_closed_form_phases_match_reference_on_independent_rows(modulus, modes, gens, seed):
    rows = np.random.default_rng(seed).integers(0, modulus, size=(gens, modes))
    code = PfCode(modulus, modes, tuple(op(modulus, row) for row in rows))
    assume(span_order(stabilizer_matrix(code)) == modulus**gens)
    mu = pfstab.code._phase_solution(rows, np.zeros((0, gens), dtype=np.int64), modulus)
    assert mu.tolist() == [g.mu for g in reference_canonical_phases(code).generators]


def test_unpickled_code_recomputes_its_kept_forms():
    code = code_8_1_3_d3()
    copy = pickle.loads(pickle.dumps(code))
    assert copy == code and "_row_forms" not in copy.__dict__
    assert not copy._rows.flags.writeable and validate(copy).all_ok


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


# Each construction of repro.corpus(), and the codes it is built from.
_CORPUS_BUILDS = {
    "pf_8_1_3_d3": (code_8_1_3_d3, ()),
    "pf_6_1_3_d7": (code_6_1_3_d7, ()),
    "pf_d6_doubled": (lambda: double_code_d6(code_8_1_3_d3()), (code_8_1_3_d3,)),
    "chain_d2_n2": (lambda: build_clock_chain(2, 2), ()),
    "chain_d3_n4": (lambda: build_clock_chain(3, 4), ()),
    "chain_d5_n3": (lambda: build_clock_chain(5, 3), ()),
    "embedded_5_1_3_d3": (lambda: embed_qudit_code(five_qutrit_code()), ()),
    "toric_p2_l1_a2_b2": (lambda: build_toric(ToricSpec(2, 1, 2, 2)).code, ()),
    "toric_p2_l1_a2_b3": (lambda: build_toric(ToricSpec(2, 1, 2, 3)).code, ()),
}


def test_corpus_builds_cover_the_corpus():
    built = {name: build() for name, (build, _) in _CORPUS_BUILDS.items()}
    assert built == corpus()


@pytest.mark.parametrize("name", sorted(_CORPUS_BUILDS))
def test_building_a_corpus_code_forms_s_and_i_once_per_row_set(monkeypatch, name):
    # Phasing a construction and validating the result share one Howell form
    # of [S | I]; any other form is a Z_2D phase solve, of another matrix.
    build, sources = _CORPUS_BUILDS[name]
    row_sets = [(c.modulus, stabilizer_matrix(c).array.tobytes()) for c in (build(), *(s() for s in sources))]
    augmented, formed = pfstab.code._augmented_basis, []

    def counted(matrix):
        formed.append((matrix.modulus, matrix.array.tobytes()))
        return augmented(matrix)

    monkeypatch.setattr(pfstab.code, "_augmented_basis", counted)
    code = build()
    assert validate(code).all_ok
    assert sorted(f for f in formed if f in row_sets) == sorted(row_sets)


def test_toric_distance_exceeds_four_at_cap_four():
    res = distance(build_toric(ToricSpec(2, 1, 3, 3)).code, max_weight=4)
    assert (res.value, res.cap, res.certificate) == (None, 4, None)


@pytest.mark.slow
def test_toric_distance_is_six_at_cap_six():
    # The non-contractible loops weigh 6, so d <= 6; the scan rules out 1 .. 5.
    code = build_toric(ToricSpec(2, 1, 3, 3)).code
    res = distance(code, max_weight=6)
    assert (res.value, str(res.certificate)) == (6, "g1 g2 g5 g6 g9 g10")
    assert res.certificate.weight() == 6 and is_logical(code, res.certificate)


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


# -- the trusted constructor ------------------------------------------------------


def _assert_normalised(generators, expected) -> None:
    """Equal to the validating constructor's operators, field types included."""
    assert generators == expected
    for got in generators:
        assert type(got.mu) is int and type(got.alpha) is tuple and all(type(a) is int for a in got.alpha)


@settings(max_examples=150, deadline=None)
@given(modulus=st.integers(2, 12), modes=st.sampled_from([2, 4, 6]), count=st.integers(1, 4), data=st.data())
def test_from_forms_builds_the_operators_the_validating_constructor_does(modulus, modes, count, data):
    residues = st.lists(st.integers(0, modulus - 1), min_size=modes, max_size=modes)
    rows = np.array(data.draw(st.lists(residues, min_size=count, max_size=count)), dtype=np.int64)
    mu = np.array(data.draw(st.lists(st.integers(0, 2 * modulus - 1), min_size=count, max_size=count)), dtype=np.int64)
    layout = data.draw(st.sampled_from([None, {i: (i % 2, i // 2) for i in range(1, modes + 1)}]))
    code = PfCode._from_forms(modulus, modes, rows, mu, pfstab.code._row_forms(rows, modulus), layout)
    expected = tuple(PfOperator(modulus, modes, int(x), tuple(row)) for x, row in zip(mu.tolist(), rows.tolist()))
    _assert_normalised(code.generators, expected)
    validated = PfCode(modulus, modes, expected, layout)
    assert code == validated and hash(code) == hash(validated)
    assert code.mode_layout == layout and type(code.generators) is tuple
    copy = pickle.loads(pickle.dumps(code))
    assert copy == code and hash(copy) == hash(code) and copy.mode_layout == layout
    assert validate(copy) == validate(validated)
    for other in (PfOperator(modulus, modes + 2, 0, (0,) * (modes + 2)), PfOperator(modulus + 1, modes, 0, (0,) * modes)):
        with pytest.raises(ValueError, match="does not match"):
            code.with_generators(code.generators + (other,))
    try:
        phased = canonical_phases(PfCode(modulus, modes, expected))
    except PhaseAssignmentError:
        return
    _assert_normalised(phased.generators, tuple(PfOperator(modulus, modes, g.mu, g.alpha) for g in phased.generators))


def test_builders_and_search_hand_the_trusted_constructor_normalised_operators():
    codes = list(corpus().values())
    codes += find_codes(SearchSpec(2, 6, 1, 2, max_hits=0))[0] + find_codes(SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0))[0]
    for code in codes:
        d, m = code.modulus, code.num_modes
        _assert_normalised(code.generators, tuple(PfOperator(d, m, g.mu, g.alpha) for g in code.generators))
