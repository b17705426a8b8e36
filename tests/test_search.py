import hashlib
import re
from contextlib import contextmanager, suppress

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfstab import search
from pfstab.algebra import PfOperator
from pfstab.builders import code_8_1_3_d3
from pfstab.code import PfCode, analyze, codespace_dim, distance, validate
from pfstab.search import (
    BudgetExceededError,
    SearchSpec,
    canonical_equivalence_key,
    find_codes,
)


def test_spec_defaults_generator_count_for_prime():
    spec = SearchSpec(3, 8, 1, 3)
    assert spec.generator_count == 3


def test_spec_requires_generator_count_for_composite():
    with pytest.raises(ValueError):
        SearchSpec(6, 8, 1, 3)
    spec = SearchSpec(6, 8, 1, 3, generator_count=7)
    assert spec.generator_count == 7


def test_spec_round_trips_through_dict():
    spec = SearchSpec(3, 6, 1, 2, mode="randomized", seed=11, samples=50)
    assert SearchSpec.from_dict(spec.to_dict()) == spec


def test_exhaustive_small_majorana_space():
    codes, cert = find_codes(SearchSpec(2, 4, 1, 2, max_hits=0))
    assert cert.exhausted and not cert.early_stopped
    assert len(codes) == 1
    report = analyze(codes[0])
    assert report.k == 1 and report.distance.value == 2


def test_exhaustive_no_distance3_on_four_majorana_modes():
    codes, cert = find_codes(SearchSpec(2, 4, 1, 3, max_hits=0))
    assert codes == [] and cert.exhausted


def test_nonexistence_certificate_six_modes_d3():
    codes, cert = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0))
    assert codes == []
    assert cert.exhausted and not cert.early_stopped and not cert.budget_exceeded
    assert cert.tuples_examined > 0
    assert cert.to_dict(canonical=True)["signature"]


def test_certificates_are_reproducible():
    _, cert1 = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0))
    _, cert2 = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0))
    assert cert1.to_dict(canonical=True) == cert2.to_dict(canonical=True)


def test_soundness_of_hits():
    codes, cert = find_codes(SearchSpec(3, 6, 1, 2, max_hits=3))
    assert codes
    for code in codes:
        assert validate(code).all_ok
        report = analyze(code)
        assert report.k == 1 and report.distance.value == 2
    keys = [canonical_equivalence_key(c) for c in codes]
    assert len(set(keys)) == len(keys)


def test_pruning_differential_small_space():
    pruned, cert_p = find_codes(SearchSpec(2, 6, 1, 2, max_hits=0, symmetry_reduction=True))
    plain, cert_u = find_codes(SearchSpec(2, 6, 1, 2, max_hits=0, symmetry_reduction=False))
    assert cert_p.exhausted and cert_u.exhausted
    assert {canonical_equivalence_key(c) for c in pruned} == {
        canonical_equivalence_key(c) for c in plain
    }
    assert cert_p.tuples_examined <= cert_u.tuples_examined


def test_equivalence_key_invariants():
    code = code_8_1_3_d3()
    g1, g2, g3 = code.generators
    products = code.with_generators((g1 * g2, g2, g3))
    permuted = code.with_generators((g3, g1, g2))
    assert canonical_equivalence_key(code) == canonical_equivalence_key(products)
    assert canonical_equivalence_key(code) == canonical_equivalence_key(permuted)
    other = code.with_generators((g1, g2))
    assert canonical_equivalence_key(code) != canonical_equivalence_key(other)


def test_randomized_mode_reproducible_and_never_exhaustive():
    spec = SearchSpec(2, 4, 1, 2, mode="randomized", seed=5, samples=500, max_hits=0)
    codes1, cert1 = find_codes(spec)
    codes2, cert2 = find_codes(spec)
    assert not cert1.exhausted
    assert cert1.to_dict(canonical=True) == cert2.to_dict(canonical=True)
    assert codes1, "sampling 500 tuples over 7 candidates must find the code"
    for code in codes1:
        assert validate(code).all_ok


def test_budget_exceeded_is_explicit():
    codes, cert = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0, max_tuples=100))
    assert cert.budget_exceeded and not cert.exhausted


def test_parallel_matches_serial():
    serial, cert_s = find_codes(SearchSpec(3, 6, 1, 2, max_hits=0), threads=1)
    parallel, cert_p = find_codes(SearchSpec(3, 6, 1, 2, max_hits=0), threads=3)
    assert [canonical_equivalence_key(c) for c in serial] == [
        canonical_equivalence_key(c) for c in parallel
    ]
    assert cert_s.exhausted and cert_p.exhausted
    assert cert_s.tuples_examined == cert_p.tuples_examined


def _canonical_without_threads(cert) -> dict:
    payload = cert.to_dict(canonical=True)
    del payload["threads"], payload["signature"]
    return payload


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(3, 6, 1, 2, max_hits=0, max_tuples=100),
        SearchSpec(3, 6, 1, 2, max_hits=0, max_tuples=3000),
        SearchSpec(3, 6, 1, 2, max_hits=2, max_tuples=3000),
        SearchSpec(3, 6, 1, 2, max_hits=3, max_tuples=48),
        SearchSpec(3, 6, 1, 2, max_hits=0, max_tuples=47),  # a hit on the last node allowed
        # Composite D: the last block repeats spans that earlier blocks found.
        SearchSpec(4, 4, 1, 2, generator_count=1, max_hits=0),
        SearchSpec(4, 4, 1, 2, generator_count=1, max_hits=0, max_tuples=50),
        SearchSpec(4, 4, 1, 2, generator_count=1, max_hits=3),
        SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=2),
    ],
    ids=lambda spec: f"D{spec.modulus}_g{spec.generator_count}_hits{spec.max_hits}_budget{spec.max_tuples}",
)
def test_budget_and_max_hits_stop_at_the_serial_tuple(spec):
    _, serial = find_codes(spec, threads=1)
    _, parallel = find_codes(spec, threads=3)
    assert _canonical_without_threads(parallel) == _canonical_without_threads(serial)
    # The serial certificate is the one enumeration that stops itself.
    engine = search._Engine(SearchSpec.from_dict(serial.spec))
    with suppress(BudgetExceededError):
        engine.run()
    assert serial.tuples_examined == engine.nodes
    assert _keys(serial) == [key for _, key, _ in engine.hits]
    assert serial.budget_exceeded == (engine.nodes > spec.max_tuples)


def test_tuple_budget_examines_one_tuple_past_it():
    _, cert = find_codes(SearchSpec(3, 6, 1, 2, max_hits=0, max_tuples=100), threads=3)
    assert cert.tuples_examined == 101 and cert.budget_exceeded and not cert.exhausted


def _keys(cert) -> list[str]:
    return [h["key"] for h in cert.hits]


def _sha_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Node counts and hit keys below were recorded with the non-incremental
# canonical-prefix test; the incremental one must walk the same tree.
EIGHT_MODE_KEY = "788b2bf19d54117e41b4174303ecd12a666621fe59a498b86caaaeb0b87b8ba9"
D2_ALL_HITS_SHA = "ad76f851cf33c265f9adc909f87eacee444e6ca593fc219cf68e49bce97089a1"
D4_KEYS = [
    "154c8691810b5b8aa02eda0611bc5608f1b9b5d981ffc2c2b16538e53446f39a",
    "94fdd097127f88f737733a6f2c21b85eee3c158d4acaf33b9b22539b571075c2",
    "0cae492a35c63818005d22d8e722f5b1273ed5bc9ac47aa5f009183857bab133",
    "c22e2d6ad04dda2dfecf7defea85ca15feb40085d696b0903c431705bc7bfca9",
]


def test_search_tree_pinned_six_modes_d3():
    _, cert = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0))
    assert cert.tuples_examined == 6242 and _keys(cert) == []


def test_search_tree_pinned_eight_modes_d2_all_hits():
    _, cert = find_codes(SearchSpec(2, 8, 1, 2, max_hits=0))
    assert cert.tuples_examined == 20836 and cert.exhausted
    keys = _keys(cert)
    assert len(keys) == 735 and _sha_lines(keys) == D2_ALL_HITS_SHA


def test_search_tree_pinned_eight_modes_d3_first_hit():
    _, cert = find_codes(SearchSpec(3, 8, 1, 3, max_hits=1))
    assert cert.tuples_examined == 22229 and _keys(cert) == [EIGHT_MODE_KEY]


def test_search_tree_pinned_composite_modulus():
    spec = SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0)
    assert spec.symmetry_reduction  # find_codes turns it off for composite D
    _, cert = find_codes(spec)
    assert cert.spec["symmetry_reduction"] is False
    assert cert.tuples_examined == 623 and _keys(cert) == D4_KEYS


@contextmanager
def _accepted_spans():
    """Collect the span key of every tuple the engine hands to ``_accept``."""
    spans: list[str] = []
    original = search._Engine._accept

    def spy(engine, chosen):
        d, m = engine.spec.modulus, engine.spec.num_modes
        gens = tuple(PfOperator(d, m, 0, tuple(int(x) for x in engine.cand[i])) for i in chosen)
        spans.append(canonical_equivalence_key(PfCode(d, m, gens)))
        original(engine, chosen)

    search._Engine._accept = spy
    try:
        yield spans
    finally:
        search._Engine._accept = original


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from([(2, 4), (2, 6), (3, 4), (3, 6), (5, 4)]),
    gens=st.integers(1, 2),
    target_d=st.integers(1, 3),
)
def test_canonical_augmentation_visits_each_span_once(shape, gens, target_d):
    modulus, modes = shape
    # Unreduced, these call _accept on thousands of tuples: over ten seconds each.
    assume(not (shape == (3, 6) and gens == 2 and target_d < 3))
    spec = dict(num_modes=modes, target_k=modes // 2 - gens, target_d=target_d, generator_count=gens, max_hits=0)
    with _accepted_spans() as spans:
        _, reduced = find_codes(SearchSpec(modulus, symmetry_reduction=True, **spec), threads=1)
    _, plain = find_codes(SearchSpec(modulus, symmetry_reduction=False, **spec), threads=1)
    assert len(set(spans)) == len(spans)
    keys = _keys(reduced)
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(_keys(plain))
    assert reduced.tuples_examined <= plain.tuples_examined


@pytest.mark.slow
def test_exhaustive_finds_distance3_code_on_eight_modes():
    codes, cert = find_codes(SearchSpec(3, 8, 1, 3, max_hits=1))
    assert cert.early_stopped and len(codes) == 1
    report = analyze(codes[0])
    assert report.k == 1 and report.distance.value == 3


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(2, 8, 1, 2, max_hits=0),
        SearchSpec(3, 6, 1, 2, max_hits=0),
        SearchSpec(3, 8, 1, 3, mode="randomized", seed=2024, samples=5000, max_hits=0),
    ],
    ids=["d2_8modes_all", "d3_6modes_all", "d3_8modes_randomized"],
)
def test_every_hit_is_valid_with_target_k_and_d(spec):
    # _accept checks neither validity, k nor d for prime D; the public
    # functions, which check them from scratch, must agree on every hit.
    codes, _ = find_codes(spec, threads=1)
    assert codes
    for code in codes:
        assert validate(code).all_ok
        assert codespace_dim(code) == spec.modulus**spec.target_k
        assert distance(code).value == spec.target_d


def test_prime_accept_skips_phase_solve_validation_k_and_distance(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the prime-D accept path")

    for name in ("canonical_phases", "validate", "_codespace_dim", "_group_order", "_distance"):
        monkeypatch.setattr(search, name, forbidden)
    _, cert = find_codes(SearchSpec(3, 6, 1, 2, max_hits=0), threads=1)
    assert len(cert.hits) == 220


@pytest.mark.parametrize(
    "spec, nodes",
    [
        # n = 3: one generator gives k = 2, two give k = 1.
        (SearchSpec(3, 6, 1, 2, generator_count=1, max_hits=0), 242),
        (SearchSpec(3, 6, 2, 2, generator_count=2, max_hits=0), 6242),
    ],
)
def test_prime_generator_count_off_target_k_finds_nothing(spec, nodes):
    _, cert = find_codes(spec, threads=1)
    assert cert.tuples_examined == nodes and cert.exhausted and cert.hits == []
    # The same tree with the matching target_k has hits.
    matching = SearchSpec.from_dict({**spec.to_dict(), "target_k": 3 - spec.generator_count})
    _, cert = find_codes(matching, threads=1)
    assert cert.tuples_examined == nodes and cert.hits


def test_composite_search_accepts_each_span_once():
    spec = SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0)
    with _accepted_spans() as spans:
        _, cert = find_codes(spec, threads=1)
    assert spans and len(set(spans)) == len(spans)
    assert cert.tuples_examined == 623 and _keys(cert) == D4_KEYS


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"modulus": 1, "generator_count": 1}, "D (modulus) must be an integer >= 2"),
        ({"modulus": "3"}, "D (modulus)"),
        ({"num_modes": 6.0}, "num_modes"),
        ({"target_k": -1}, "target_k"),
        ({"samples": -1}, "samples"),
        ({"samples": "x"}, "samples"),
        ({"max_hits": -1}, "max_hits"),
        ({"max_tuples": -1}, "max_tuples"),
        ({"seed": -1}, "seed"),
        ({"target_d": True}, "target_d"),
        ({"symmetry_reduction": 1}, "symmetry_reduction"),
        ({"generator_count": 0}, "generator_count"),
        ({"mode": "randomized", "generator_count": 27}, "candidate vectors"),  # 3^3 - 1 = 26
    ],
)
def test_spec_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SearchSpec(**{"modulus": 3, "num_modes": 4, "target_k": 1, "target_d": 2, **fields})


def test_spec_allows_randomized_generator_count_up_to_the_candidates():
    assert SearchSpec(3, 4, 1, 2, mode="randomized", generator_count=26).generator_count == 26
    # An oversized candidate space is left to the search, which raises BudgetExceededError.
    spec = SearchSpec(3, 16, 1, 3, mode="randomized", generator_count=10**6)
    with pytest.raises(BudgetExceededError):
        find_codes(spec)
