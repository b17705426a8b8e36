import hashlib
import itertools
import json
import multiprocessing
import re
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager, suppress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _reference_engine_class, reference_floyd_sample, reference_search

import pfstab.code
import pfstab.zmod
from pfstab import search
from pfstab.algebra import PfOperator
from pfstab.builders import code_8_1_3_d3
from pfstab.code import PfCode, analyze, codespace_dim, distance, stabilizer_matrix, validate
from pfstab.search import (
    BudgetExceededError,
    SearchSpec,
    canonical_equivalence_key,
    find_codes,
)
from pfstab.zmod import howell_form

CODES = Path(__file__).resolve().parent.parent / "codes"


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
        assert "_row_forms" in code.__dict__  # the code the search phased, not a rebuilt one
        # The kept basis, a slice of the batch's basis array, is the Howell form of the rows.
        kept = code._row_forms[0]
        assert kept.dtype == np.int64 and np.array_equal(kept, howell_form(stabilizer_matrix(code)).array)
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
        # The two composite specs of codes/: repeated spans in walk order, and a budget stop
        # below a level-1 node whose children are leaf-parents.
        SearchSpec(8, 4, 1, 1, generator_count=2, max_hits=0),
        SearchSpec(4, 6, 1, 2, generator_count=3, max_hits=0, max_tuples=20_000),
        # Both stop between the hits at nodes 177, 179, 181 and 183, which one _leaves call decides.
        SearchSpec(2, 8, 1, 2, max_hits=8),
        SearchSpec(2, 8, 1, 2, max_hits=0, max_tuples=180),
    ],
    ids=lambda spec: f"D{spec.modulus}_g{spec.generator_count}_hits{spec.max_hits}_budget{spec.max_tuples}",
)
def test_budget_and_max_hits_stop_at_the_serial_tuple(spec):
    _, serial = find_codes(spec, threads=1)
    if spec.modulus == 2:
        name, nodes = STOP_CERTIFICATES[spec.max_hits, spec.max_tuples]
        assert serial.to_dict(canonical=True) == json.loads((CODES / f"{name}.cert.json").read_text())
        assert serial.tuples_examined == nodes and len(serial.hits) == 8
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


# The two stops inside one _leaves call: the codes/ file that pins each serial canonical
# certificate, and its tuple count.
STOP_CERTIFICATES = {
    (8, search.DEFAULT_TUPLE_BUDGET): ("search_d2_8modes_hits8", 179),
    (0, 180): ("search_d2_8modes_budget180", 181),
}


def _keys(cert) -> list[str]:
    return [h["key"] for h in cert.hits]


def _sha_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Node counts and hit keys below were recorded with the non-incremental
# canonical-prefix test; the incremental one must walk the same tree.
EIGHT_MODE_KEY = "788b2bf19d54117e41b4174303ecd12a666621fe59a498b86caaaeb0b87b8ba9"
D2_ALL_HITS_SHA = "ad76f851cf33c265f9adc909f87eacee444e6ca593fc219cf68e49bce97089a1"
# Recorded with the coset-minimum canonical test; the pivot-column test must walk the same trees.
D5_ALL_HITS_SHA = "f0dc0efe5c2b8489f03fa0a62b6343153367cdad92bc920294eed478eb4b8891"
TEN_MODE_KEY = "c8a0c414cac7b6275d5c4e7b176694c6e9dec5b4690da6b71d7493265a330dd0"
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


def test_search_tree_pinned_six_modes_d5_all_hits():
    _, cert = find_codes(SearchSpec(5, 6, 1, 3, max_hits=0))
    assert cert.tuples_examined == 368164 and cert.exhausted
    keys = _keys(cert)
    assert len(keys) == 50 and _sha_lines(keys) == D5_ALL_HITS_SHA


def test_search_tree_pinned_ten_modes_d3_first_hit():
    _, cert = find_codes(SearchSpec(3, 10, 1, 3, max_hits=1))
    assert cert.tuples_examined == 66682 and _keys(cert) == [TEN_MODE_KEY]


def test_search_pinned_eight_modes_d3_k2_all_hits():
    # 13,244 hits: the accept path's keys, phases and operators, pinned as one signature.
    _, cert = find_codes(SearchSpec(3, 8, 2, 2, max_hits=0), threads=1)
    assert cert.tuples_examined == 499046 and len(cert.hits) == 13244 and cert.exhausted
    assert cert.to_dict(canonical=True)["signature"] == "189e50a15c5ba60b9c33a497f6973574aec28268fa1a3e5c2b1fccc2b6e7a7df"


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

    def spy(engine, chosen, codes):
        d, m = engine.spec.modulus, engine.spec.num_modes
        gens = tuple(PfOperator(d, m, 0, tuple(int(x) for x in engine.cand[i])) for i in chosen)
        spans.append(canonical_equivalence_key(PfCode(d, m, gens)))
        original(engine, chosen, codes)

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
    spec = dict(num_modes=modes, target_k=modes // 2 - gens, target_d=target_d, generator_count=gens, max_hits=0)
    with _accepted_spans() as spans:
        _, reduced = find_codes(SearchSpec(modulus, symmetry_reduction=True, **spec), threads=1)
    _, plain = find_codes(SearchSpec(modulus, symmetry_reduction=False, **spec), threads=1)
    assert len(set(spans)) == len(spans)
    keys = _keys(reduced)
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(_keys(plain))
    assert reduced.tuples_examined <= plain.tuples_examined


def _coset_minimum_test(engine, span: np.ndarray, j: int) -> bool:
    """Brute force: cand[j] is the least element of span + c*cand[j] over c = 1 .. D-1."""
    d = engine.spec.modulus
    cosets = (span[None] + np.arange(1, d)[:, None, None] * engine.cand[j]) % d
    return int((cosets @ engine.place).min()) == int(engine.cand[j] @ engine.place)


def _span_elements(rows: np.ndarray, modulus: int) -> np.ndarray:
    coefficients = pfstab.code._lex_digits(np.arange(modulus ** len(rows)), modulus, len(rows))
    return (coefficients @ rows) % modulus


@settings(max_examples=80, deadline=None)
@given(modulus=st.sampled_from([2, 3, 5, 7]), modes=st.sampled_from([2, 4, 6]), data=st.data())
def test_pivot_column_test_matches_the_coset_minimum(modulus, modes, data):
    engine = search._Engine(SearchSpec(modulus, modes, 0, 1, generator_count=1))
    index = st.integers(0, engine.count - 1)
    rows = engine.cand[data.draw(st.lists(index, max_size=3))].reshape(-1, modes)
    span = _span_elements(rows, modulus)
    pivots = sum(1 << j for j in pfstab.zmod._pivot_columns(pfstab.zmod._howell_basis(rows, modulus)).tolist())
    probes = range(engine.count) if engine.count <= 300 else data.draw(st.lists(index, min_size=1, max_size=40))
    for j in probes:
        fresh = bool(engine.lead_one[j]) and not int(engine.support[j]) & pivots
        assert fresh == _coset_minimum_test(engine, span, j), (rows.tolist(), j)
    # Along a canonical tuple the leading columns are the span's pivot columns.
    chosen, span = [], _span_elements(rows[:0], modulus)
    for j in sorted(set(data.draw(st.lists(index, max_size=6)))):
        if _coset_minimum_test(engine, span, j):
            chosen.append(j)
            span = _span_elements(engine.cand[chosen], modulus)
    leads = sum(int(engine.lead_bit[j]) for j in chosen)
    basis = pfstab.zmod._howell_basis(engine.cand[chosen].reshape(-1, modes), modulus)
    assert leads == sum(1 << j for j in pfstab.zmod._pivot_columns(basis).tolist())


@pytest.mark.parametrize("modulus", range(2, 13))
@settings(max_examples=15, deadline=None)
@given(modes=st.sampled_from([2, 4, 6]), data=st.data())
def test_grown_rows_count_each_elements_copies_by_their_zero_codes(modulus, modes, data):
    """The walk's one multiplicity rule: a grown row's zero codes count every element's copies,
    and its first D |S| / count rows are S + <g>, each element once."""
    engine = search._Engine(SearchSpec(modulus, modes, 0, 1, generator_count=1))
    index = st.integers(0, engine.count - 1)
    picks = engine.cand[data.draw(st.lists(index, min_size=1, max_size=3))]
    g = data.draw(index)
    span = np.unique(_span_elements(picks, modulus), axis=0)  # distinct, the zero row first
    rows, codes = engine._grown(span.astype(engine.digit_dtype), np.array([g]))
    copies = int(np.count_nonzero(codes[0] == 0))
    assert set(np.unique(codes[0], return_counts=True)[1].tolist()) == {copies}
    first = codes[0, : modulus * len(span) // copies]
    assert len(np.unique(first)) == len(first)
    grown = _span_elements(np.vstack([picks, engine.cand[g]]), modulus) @ engine.place
    assert sorted(first.tolist()) == np.unique(grown).tolist()
    assert (rows[0, : len(first)] @ engine.place).tolist() == first.tolist()


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(3, 6, 1, 2, max_hits=0),
        SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0),
        SearchSpec(3, 8, 1, 3, mode="randomized", seed=3, samples=2000, max_hits=0),
    ],
    ids=["prime", "composite", "randomized"],
)
def test_fmod_fallback_decides_as_the_divisibility_table(spec):
    _, table = find_codes(spec, threads=1)
    with mock.patch.object(search, "_DIVISIBLE_TABLE", 0):
        assert search._Engine(spec).divisible is None
        _, fallback = find_codes(spec, threads=1)
    assert fallback.to_dict(canonical=True) == table.to_dict(canonical=True) and table.hits


def test_a_modulus_too_large_for_the_divisibility_table_still_searches():
    spec = SearchSpec(1451, 2, 0, 1, max_hits=0)  # products reach 2 * 1450^2 > _DIVISIBLE_TABLE
    assert search._Engine(spec).divisible is None
    _, cert = find_codes(spec, threads=1)
    assert cert.exhausted and cert.tuples_examined == 1450 and not cert.hits


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
        SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0),
        SearchSpec(6, 4, 1, 2, generator_count=2, max_hits=0),
        SearchSpec(9, 4, 1, 2, generator_count=2, max_hits=0),
        SearchSpec(4, 6, 1, 2, mode="randomized", seed=5, samples=1000, generator_count=2, max_hits=0),
    ],
    ids=["d2_8modes_all", "d3_6modes_all", "d3_8modes_randomized", "d4_4modes_all", "d6_4modes_all",
         "d9_4modes_all", "d4_6modes_randomized"],
)
def test_every_hit_is_valid_with_target_k_and_d(spec):
    # _accept checks neither validity, k nor d for any modulus; the public
    # functions, which check them from scratch, must agree on every hit.
    codes, _ = find_codes(spec, threads=1)
    assert codes
    for code in codes:
        assert validate(code).all_ok
        assert codespace_dim(code) == spec.modulus**spec.target_k
        assert distance(code).value == spec.target_d


def test_accept_skips_validation_k_and_distance(monkeypatch):
    # For every modulus the span size fixes k, the prefilters fix d and the
    # phases decide validity.  Prime-D tuples are independent, so their rows
    # have a trivial kernel and no Z_2D phase solve runs.
    def forbidden(*args, **kwargs):
        raise AssertionError("called on the accept path")

    for name in ("codespace_dim", "group_order", "distance", "validate"):
        monkeypatch.setattr(pfstab.code, name, forbidden)
        monkeypatch.setattr(search, name, forbidden, raising=False)
    _, cert = find_codes(SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0), threads=1)
    assert _keys(cert) == D4_KEYS
    monkeypatch.setattr(pfstab.code, "_solve_front", forbidden)
    _, cert = find_codes(SearchSpec(3, 6, 1, 2, max_hits=0), threads=1)
    assert len(cert.hits) == 220


def test_unreduced_search_accepts_each_span_once():
    # Without symmetry reduction each span reaches _leaf once per generating
    # tuple (5,280 tuples for these 220 spans); only the first goes further.
    with _accepted_spans() as spans:
        _, cert = find_codes(SearchSpec(3, 6, 1, 2, max_hits=0, symmetry_reduction=False), threads=1)
    assert len(spans) == len(set(spans)) == len(cert.hits) == 220


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
        ({"target_k": 2}, "target_k must be below n = 2"),  # no default generator count: n - k = 0
    ],
)
def test_spec_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SearchSpec(**{"modulus": 3, "num_modes": 4, "target_k": 1, "target_d": 2, **fields})


def test_spec_from_dict_rejects_unknown_fields():
    base = {"D": 3, "num_modes": 6, "target_k": 1, "target_d": 2}
    with pytest.raises(ValueError, match="unknown search spec field 'maxhits'"):
        SearchSpec.from_dict({**base, "maxhits": 0})
    # Every to_dict key loads, and so does modulus in place of D.
    spec = SearchSpec(4, 4, 1, 2, mode="randomized", seed=3, samples=9, generator_count=2, max_hits=0)
    assert SearchSpec.from_dict(spec.to_dict()) == spec
    payload = spec.to_dict()
    payload["modulus"] = payload.pop("D")
    assert SearchSpec.from_dict(payload) == spec


def test_spec_allows_randomized_generator_count_up_to_the_candidates():
    assert SearchSpec(3, 4, 1, 2, mode="randomized", generator_count=26).generator_count == 26
    # An oversized candidate space is left to the search, which raises BudgetExceededError.
    spec = SearchSpec(3, 16, 1, 3, mode="randomized", generator_count=10**6)
    with pytest.raises(BudgetExceededError):
        find_codes(spec)


# -- batched engine against the one-node-at-a-time walk -------------------------

# Nodes the probe run may visit; keeps each example well under a second.
_PROBE_NODES = 400


def _batched_search(spec: SearchSpec) -> dict:
    """``reference_search``'s record, from the batched engine."""
    if spec.symmetry_reduction and not search._is_prime(spec.modulus):
        spec = SearchSpec.from_dict({**spec.to_dict(), "symmetry_reduction": False})
    engine = search._Engine(spec)
    budget = False
    try:
        engine.run()
    except BudgetExceededError:
        budget = True
    return {
        "hits": [(node, key) for node, key, _ in engine.hits],
        "tuples_examined": engine.nodes,
        "budget_exceeded": budget,
        "stopped": engine.stopped,
    }


def _chunk_ends(spec: SearchSpec) -> list[int]:
    """The node count after each step of the batched engine's counter."""
    engine = search._Engine(spec)
    ends: list[int] = []
    advance = engine._advance

    def spy(count):
        try:
            advance(count)
        finally:
            ends.append(engine.nodes)

    engine._advance = spy
    with suppress(BudgetExceededError):
        engine.run()
    return ends


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    modulus=st.sampled_from([2, 3, 4, 5, 6]),
    modes=st.sampled_from([4, 6]),
    gens=st.integers(1, 3),
    target_d=st.integers(1, 3),
    reduction=st.booleans(),
    block_rows=st.sampled_from([1, 5, 64, search._BLOCK_ROWS]),
)
def test_batched_engine_matches_the_per_node_walk(data, modulus, modes, gens, target_d, reduction, block_rows):
    base = dict(num_modes=modes, target_k=max(0, modes // 2 - gens), target_d=target_d,
                generator_count=gens, symmetry_reduction=reduction)
    probe = SearchSpec(modulus, max_hits=0, max_tuples=_PROBE_NODES, **base)
    with mock.patch.object(search, "_BLOCK_ROWS", block_rows):
        hit_nodes = [node for node, _ in reference_search(probe)["hits"]]
        ends = _chunk_ends(SearchSpec.from_dict({**probe.to_dict(), "symmetry_reduction": reduction and search._is_prime(modulus)}))
        # A budget on a hit node, one past it, on a chunk end, or none to speak of.
        choices = {"chunk end": ends, "none": [_PROBE_NODES]}
        if hit_nodes:
            choices.update({"hit": hit_nodes, "past hit": [n + 1 for n in hit_nodes]})
        budget = data.draw(st.sampled_from(choices[data.draw(st.sampled_from(sorted(choices)))]))
        max_hits = data.draw(st.integers(0, len(hit_nodes) + 1))
        spec = SearchSpec(modulus, max_hits=max_hits, max_tuples=budget, **base)
        batched = _batched_search(spec)
        assert batched == reference_search(spec)
    _, cert = find_codes(spec, threads=1)
    assert cert.tuples_examined == batched["tuples_examined"]
    assert [h["key"] for h in cert.hits] == [key for _, key in batched["hits"]]
    assert cert.budget_exceeded == batched["budget_exceeded"]


def _walk_with_leaf_parents(spec: SearchSpec) -> tuple[list[int], list[list[int]]]:
    """Hit nodes of the per-node walk, and the node of every leaf-parent it visits, one list per grandparent."""
    groups: defaultdict[tuple, list[int]] = defaultdict(list)

    class Recording(_reference_engine_class()):
        def _visit(self, chosen, comm_ok, span, codes, j):
            if len(chosen) + 2 == self.spec.generator_count:
                groups[tuple(chosen)].append(self.nodes + 1)
            super()._visit(chosen, comm_ok, span, codes, j)

    engine = Recording(spec)
    with suppress(BudgetExceededError):
        engine.run()
    return [node for node, _, _ in engine.hits], list(groups.values())


# Nodes the probe walks of the grandparent test visit.
_PROBE_NODES_GRANDPARENT = 3000


@pytest.mark.parametrize("reduction", [True, False])
@pytest.mark.parametrize(
    "modulus, modes, gens, target_d",
    [
        # Two generators: the root's children are the leaf-parents.
        (2, 6, 2, 2),
        (3, 6, 2, 2),
        (4, 4, 2, 2),
        (6, 4, 2, 1),
        # Three generators: each first generator's children are.
        (2, 8, 3, 2),
        (3, 8, 3, 2),
        (4, 6, 3, 1),
        (6, 6, 3, 1),
    ],
)
def test_grandparent_pass_matches_the_per_node_walk(modulus, modes, gens, target_d, reduction):
    """A node whose children are leaf-parents decides all their full tuples at once; it must
    count, stop and accept as the per-node walk does, with stops between two of its leaf-parents."""
    base = dict(num_modes=modes, target_k=1, target_d=target_d, generator_count=gens, symmetry_reduction=reduction)
    # Composite D runs without symmetry reduction (``find_codes``), so the probe walk does too.
    probe = SearchSpec(modulus, max_hits=0, max_tuples=_PROBE_NODES_GRANDPARENT,
                       **{**base, "symmetry_reduction": reduction and search._is_prime(modulus)})
    hit_nodes, groups = _walk_with_leaf_parents(probe)
    # Hits with a leaf-parent of the same grandparent on either side; the middle one stops both runs.
    inside = [i for i, node in enumerate(hit_nodes) if any(g[0] < node < g[-1] for g in groups)]
    assert inside
    stop = inside[len(inside) // 2]
    specs = [
        SearchSpec(modulus, max_hits=stop + 1, max_tuples=_PROBE_NODES_GRANDPARENT, **base),
        SearchSpec(modulus, max_hits=0, max_tuples=hit_nodes[stop], **base),
    ]
    # 300, 1000 and 4000 cut chunks inside one leaf-parent's full tuples and across several.
    for block_rows in (1, 300, 1000, 4000, search._BLOCK_ROWS):
        with mock.patch.object(search, "_BLOCK_ROWS", block_rows):
            for spec in specs:
                reference = reference_search(spec)
                assert reference["hits"][-1][0] == hit_nodes[stop]
                assert _batched_search(spec) == reference


_EXHAUSTIVE_CORPUS = sorted(
    path for path in CODES.glob("search_*.json")
    if not path.name.endswith(".cert.json") and json.loads(path.read_text())["mode"] == "exhaustive"
)


@pytest.mark.parametrize("path", _EXHAUSTIVE_CORPUS, ids=lambda path: path.stem)
def test_exhaustive_corpus_specs_agree_across_thread_counts(path):
    _, cert = find_codes(SearchSpec.from_dict(json.loads(path.read_text())), threads=2)
    pinned = json.loads(path.with_name(f"{path.stem}.cert.json").read_text())
    del pinned["threads"], pinned["signature"]
    assert _canonical_without_threads(cert) == pinned


@settings(max_examples=30, deadline=None)
@given(
    modulus=st.sampled_from([2, 3, 4, 5]),
    modes=st.sampled_from([4, 6]),
    gens=st.integers(1, 3),
    target_d=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    samples=st.integers(0, 300),
    max_hits=st.integers(0, 3),
    chunk=st.sampled_from([1, 7, None]),
)
def test_chunked_sampling_matches_one_sample_at_a_time(modulus, modes, gens, target_d, seed, samples, max_hits, chunk):
    spec = SearchSpec(modulus, modes, max(0, modes // 2 - gens), target_d, mode="randomized", seed=seed,
                      samples=samples, generator_count=gens, max_hits=max_hits)
    # A chunk holds _BLOCK_ROWS // (r m) samples, one at least; None keeps the default size.
    block_rows = search._BLOCK_ROWS if chunk is None else chunk * gens * modes
    sizes = []
    draw = search._floyd_draw

    def recording(bits, count, r, size):
        sizes.append(size)
        return draw(bits, count, r, size)

    with mock.patch.object(search, "_BLOCK_ROWS", block_rows), mock.patch.object(search, "_floyd_draw", recording):
        _, cert = find_codes(spec)
    if sizes:  # the chunk is the size that was asked for
        assert sizes[0] == min(block_rows // (gens * modes), samples)
    reference = reference_search(spec)
    assert [h["key"] for h in cert.hits] == [key for _, key in reference["hits"]]
    assert cert.tuples_examined == reference["tuples_examined"]
    assert cert.early_stopped == reference["stopped"]


def test_randomized_span_table_is_bounded_and_skipped_when_no_sample_can_pass():
    # 2^7 <= 8^3 <= 8^7: an independent sample could have the target span
    # size, but its 8^7-row coefficient table is refused before any draw.
    with pytest.raises(BudgetExceededError, match="span table"):
        find_codes(SearchSpec(8, 6, 0, 1, mode="randomized", generator_count=7, samples=1))
    # 26 independent generators mod 3 would span 3^26 elements, not 3^1: no span is built.
    spec = SearchSpec(3, 4, 1, 2, mode="randomized", seed=1, samples=50, generator_count=26, max_hits=0)
    assert search._span_table(search._Engine(spec)) is None
    _, cert = find_codes(spec)
    assert cert.tuples_examined == reference_search(spec)["tuples_examined"] == 50 and not cert.hits


def test_a_stop_inside_a_sample_chunk_counts_the_samples_up_to_it():
    spec = SearchSpec(3, 8, 1, 3, mode="randomized", seed=7, samples=20_000, max_hits=2)
    _, cert = find_codes(spec)
    assert cert.early_stopped and cert.tuples_examined == 335
    assert cert.tuples_examined % max(1, search._BLOCK_ROWS // (3 * 8))  # not a multiple of the chunk


# (D, modes) pairs whose full vector space the reference's prefilters enumerate quickly.
_REFERENCE_SHAPES = [(d, m) for d in range(2, 8) for m in (4, 6, 8) if d**m <= 7**6]


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(_REFERENCE_SHAPES),
    gens=st.integers(1, 3),
    target_d=st.integers(1, 3),
    reduction=st.booleans(),
    randomized=st.booleans(),
    seed=st.integers(0, 2**16),
    budget=st.integers(0, 1500),
    max_hits=st.integers(0, 3),
)
def test_two_stage_prefilter_decides_as_the_per_node_reference(shape, gens, target_d, reduction, randomized, seed,
                                                               budget, max_hits):
    """The weight-(< d) stage, then the weight-d stage on what passed it, accept exactly the reference's
    tuples, in both modes and under both stops (d = 1 has no weight-(< d) vector)."""
    modulus, modes = shape
    mode = dict(mode="randomized", seed=seed, samples=budget // 4) if randomized else dict(max_tuples=budget)
    spec = SearchSpec(modulus, modes, max(0, modes // 2 - gens), target_d, generator_count=gens,
                      symmetry_reduction=reduction, max_hits=max_hits, **mode)
    _, cert = find_codes(spec)
    reference = reference_search(spec)
    assert [h["key"] for h in cert.hits] == [key for _, key in reference["hits"]]
    assert cert.tuples_examined == reference["tuples_examined"]
    assert cert.budget_exceeded == reference["budget_exceeded"]
    assert cert.early_stopped == reference["stopped"]


@settings(max_examples=150, deadline=None)
@given(modulus=st.integers(2, 12), modes=st.sampled_from([4, 6]), r=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_per_generator_commutation_matches_the_stacked_pair_test(modulus, modes, r, seed):
    """Generator a against generators a+1 .. r of the rows still commuting finds the rows whose
    r x r pairing products are all divisible by D (r = 1 has no pair)."""
    if modulus ** (modes - 1) > search.MAX_CANDIDATES:
        modes = 4
    engine = search._Engine(SearchSpec(modulus, modes, 0, 1, mode="randomized", generator_count=r))
    rng = np.random.default_rng(seed)
    # Sums of vectors (a, -a) on mode pairs (1, 2), (3, 4), ... pairwise commute; mix them with
    # arbitrary candidates so that rows fail at every pair, or at none.
    cand = engine.cand
    pool = np.flatnonzero(((cand[:, 0::2] + cand[:, 1::2]) % modulus == 0).all(axis=1))
    idx = np.where(rng.random((300, r)) < 0.8, rng.choice(pool, (300, r)), rng.integers(0, engine.count, (300, r)))
    stacked = engine._divisible(engine.pairing[idx] @ engine.cand_t[:, idx].transpose(1, 0, 2)).all(axis=(1, 2))
    assert np.array_equal(engine._commuting(idx), np.flatnonzero(stacked))
    assert r == 1 or 0 < stacked.sum() < len(idx) or len(pool) < 2


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 400),
    data=st.data(),
    seed=st.integers(0, 2**32),
    first=st.integers(0, 40),
    second=st.integers(0, 40),
)
def test_floyd_draw_rows_are_sorted_distinct_and_split_freely(count, data, seed, first, second):
    r = data.draw(st.integers(1, min(count, 12)))
    whole = search._floyd_draw(np.random.PCG64(seed), count, r, first + second)
    assert whole.shape == (first + second, r)
    assert (np.diff(whole, axis=1) > 0).all() and (whole >= 0).all() and (whole < count).all()
    bits = np.random.PCG64(seed)
    split = np.vstack([search._floyd_draw(bits, count, r, first), search._floyd_draw(bits, count, r, second)])
    assert np.array_equal(whole, split)
    bits = np.random.PCG64(seed)
    assert whole.tolist() == [reference_floyd_sample(bits, count, r) for _ in range(first + second)]


def test_floyd_draw_is_uniform_over_the_35_triples_of_seven():
    draws = search._floyd_draw(np.random.PCG64(20_240_617), 7, 3, 35 * 400)
    subsets = sorted(itertools.combinations(range(7), 3))
    counts = Counter(map(tuple, draws.tolist()))
    assert sorted(counts) == subsets
    expected = len(draws) / len(subsets)
    chi_square = sum((counts[s] - expected) ** 2 / expected for s in subsets)
    assert chi_square < 65.25  # the 0.999 quantile of chi-square with 34 degrees of freedom


def test_randomized_certificate_records_its_sampler_and_exhaustive_ones_do_not():
    _, cert = find_codes(SearchSpec(2, 4, 1, 2, mode="randomized", seed=5, samples=20, max_hits=0))
    payload = cert.to_dict(canonical=True)
    assert payload["sampler"] == search.SAMPLER == "floyd-pcg64-raw-v1"
    unsigned = {k: v for k, v in payload.items() if k != "signature"}
    assert payload["signature"] == hashlib.sha256(json.dumps(unsigned, sort_keys=True).encode()).hexdigest()
    _, cert = find_codes(SearchSpec(2, 4, 1, 2, max_hits=0))
    assert "sampler" not in cert.to_dict(canonical=True)


# -- primality ------------------------------------------------------------------


def test_is_prime_matches_trial_division_below_1e5():
    def trial(p):
        return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))

    assert [p for p in range(10**5) if search._is_prime(p)] == [p for p in range(10**5) if trial(p)]


def test_is_prime_needs_the_base_41():
    # The smallest strong pseudoprime to every prime base 2 .. 37.
    assert not search._is_prime(318665857834031151167461)
    assert search._is_prime(10**16 + 61) and search._is_prime(2**89 - 1)
    assert not search._is_prime((2**31 - 1) * (2**61 - 1))


def test_huge_prime_spec_reaches_the_candidate_space_error_quickly():
    start = time.perf_counter()
    spec = SearchSpec(10**16 + 61, 2, 0, 1)  # about 0.1 ms; trial division took 10 s
    assert time.perf_counter() - start < 0.1
    assert spec.generator_count == 1
    with pytest.raises(BudgetExceededError, match="candidate space"):
        find_codes(spec)
    # A composite D past the candidate bound exits the same way, needing no primality answer.
    with pytest.raises(BudgetExceededError, match="candidate space"):
        find_codes(SearchSpec(10**16 + 62, 2, 0, 1))


def test_engine_setup_keeps_no_candidate_by_weight_vector_table():
    tracemalloc.start()
    try:
        search._Engine(SearchSpec(3, 10, 1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # 19,682 candidates by 4,520 weight vectors took 593 MiB


# -- threads ----------------------------------------------------------------------


def test_threaded_first_hit_search_stops_with_the_serial_replay():
    spec = SearchSpec(3, 8, 1, 3, max_hits=1)
    _, serial = find_codes(spec, threads=1)
    start = time.perf_counter()
    _, parallel = find_codes(spec, threads=3)
    elapsed = time.perf_counter() - start
    assert _canonical_without_threads(parallel) == _canonical_without_threads(serial)
    # Each first-generator block used to run to its own first hit or its end: 3.5 s.
    assert elapsed < 2.0


class _InlineWorkers:
    """Stands in for ``search._BlockWorkers``: records its size and every block started, and runs each in this process."""

    sizes: list[int] = []
    started: list[int] = []

    def __init__(self, spec, size):
        self.spec = spec
        self.sizes.append(size)
        self.idle = [None] * size
        self.done: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def start(self, index, bounds):
        assert self.idle, "no idle worker"
        self.idle.pop()
        self.started.append(index)
        self.done.append((index, (True, search._run_block(self.spec, bounds))))

    def finished(self):
        self.idle.append(None)
        return self.done.pop(0)


@pytest.mark.parametrize(
    "modulus, modes, threads, cpus, want",
    [
        (3, 6, 5000, 64, 64),  # 242 candidates: 242 blocks, so the CPUs bound the pool
        (3, 6, 5000, None, 1),  # an unknown CPU count gives one worker
        (2, 4, 5000, 64, 7),  # 7 candidates: at most one worker per block
        (3, 6, 10**12, 64, 64),  # the block cut stops at one candidate per block
    ],
)
def test_pool_size_is_bounded_by_blocks_and_cpus(monkeypatch, modulus, modes, threads, cpus, want):
    monkeypatch.setattr(_InlineWorkers, "sizes", [])
    monkeypatch.setattr(_InlineWorkers, "started", [])
    monkeypatch.setattr(search, "_BlockWorkers", _InlineWorkers)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    spec = SearchSpec(modulus, modes, 1, 2, max_hits=0)
    _, parallel = find_codes(spec, threads=threads)
    assert _InlineWorkers.sizes == [want]
    assert parallel.threads == threads  # the certificate records the request, not the pool
    _, serial = find_codes(spec, threads=1)
    assert _canonical_without_threads(parallel) == _canonical_without_threads(serial)


def test_a_stopped_replay_leaves_no_block_queued(monkeypatch):
    # A block starts only on an idle worker, so when the replay stops every block that
    # started and was not replayed is one a worker holds: none waits in a queue.
    monkeypatch.setattr(_InlineWorkers, "sizes", [])
    monkeypatch.setattr(_InlineWorkers, "started", [])
    monkeypatch.setattr(search, "_BlockWorkers", _InlineWorkers)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    spec = SearchSpec(2, 8, 1, 2, max_hits=8)
    results = search._run_blocks(spec, search._candidate_count(2, 8), threads=3)
    assert _InlineWorkers.sizes == [3]
    assert len(results) < 12  # the replay stops before the last of the 12 blocks
    assert _InlineWorkers.started == list(range(len(_InlineWorkers.started)))
    assert len(_InlineWorkers.started) - len(results) <= 3
    _, parallel = find_codes(spec, threads=3)
    assert parallel.to_dict(canonical=True)["hits"] == find_codes(spec, threads=1)[1].to_dict(canonical=True)["hits"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the workers must inherit the patched engine")
def test_a_failed_block_raises_in_the_parent_and_leaves_no_child_process(monkeypatch):
    run = search._Engine.run

    def failing(engine, lo=0, hi=None):
        if lo > 0:
            raise ValueError(f"block {lo} failed")
        run(engine, lo, hi)

    monkeypatch.setattr(search._Engine, "run", failing)
    with pytest.raises(ValueError, match="block .* failed"):
        find_codes(SearchSpec(3, 6, 1, 2, max_hits=0), threads=3)
    assert multiprocessing.active_children() == []


def test_parallel_search_leaves_no_child_process():
    _, cert = find_codes(SearchSpec(3, 8, 1, 3, max_hits=1), threads=3)
    assert cert.early_stopped and cert.threads == 3
    assert multiprocessing.active_children() == []
