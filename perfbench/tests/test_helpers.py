"""Tests for the benchmark's own helpers: run with ``python3 -m pytest perfbench/tests``."""

import json
from itertools import count

import numpy as np
import pytest

import inputs as gen
import run
import spans
import workloads
import pfstab.algebra
import pfstab.code
import pfstab.search
import pfstab.zmod
from pfstab.code import codespace_dim, distance, group_order, l_con, validate
from pfstab.search import SearchSpec
from pfstab.zmod import howell_form

ORACLES = gen.load_test_oracles()
SMALL = ("pf_8_1_3_d3", "chain_d2_n2", "chain_d3_n4", "chain_d5_n3", "pf_6_1_3_d7")


def _build(name):
    return workloads._builders()[workloads.PARAMS_CODES[name][0]]()


@pytest.mark.parametrize("seed", [0, 1, 2024])
@pytest.mark.parametrize("name", ["pf_8_1_3_d3", "pf_d6_doubled", "chain_d5_n3", "embedded_5_1_3_d3",
                                  "toric_p2_l1_a2_b2"])
def test_remix_keeps_span_and_every_invariant(name, seed):
    code = _build(name)
    mixed = workloads._remixed(code, seed, name)
    assert all(g.mu == 0 for g in gen.remix_code(code, np.eye(len(code.generators), dtype=np.int64)).generators)
    assert validate(mixed).all_ok
    assert howell_form(pfstab.code.stabilizer_matrix(mixed)) == howell_form(pfstab.code.stabilizer_matrix(code))
    assert group_order(mixed) == group_order(code)
    assert codespace_dim(mixed) == codespace_dim(code)
    cap = workloads.PARAMS_CODES[name][1]
    assert distance(mixed, max_weight=cap) == distance(code, max_weight=cap)
    assert l_con(mixed) == l_con(code)


def test_unitriangular_mix_is_invertible_and_seeded():
    a = gen.unitriangular_mix(gen.rng_for(5, "x"), 6, 4)
    assert round(np.linalg.det(a)) % 4 in (1, 3)
    assert np.array_equal(a, gen.unitriangular_mix(gen.rng_for(5, "x"), 6, 4))
    assert not np.array_equal(a, gen.unitriangular_mix(gen.rng_for(6, "x"), 6, 4))


@pytest.mark.parametrize("name", SMALL)
def test_expected_params_match_brute_force_oracles(name):
    code = _build(name)
    _, _, (d, _), (lcon, _) = workloads.PARAMS_CODES[name]
    assert ORACLES.brute_distance(code) == d
    assert ORACLES.brute_lcon(code) == lcon
    assert gen.brute_k_d(code.modulus, code.num_modes, [g.alpha for g in code.generators], ORACLES)[1] == d


@pytest.mark.parametrize("name", ["pf_8_1_3_d3", "pf_6_1_3_d7", "chain_d3_n4", "chain_d4_n5"])
def test_expected_group_orders_match_span_enumeration(name):
    builder, order, dim, _ = workloads.VERIFY_CODES[name]
    code = workloads._builders()[builder]()
    span = ORACLES.enumerate_span(pfstab.code.stabilizer_matrix(code))
    assert len(span) == order and code.modulus**code.n == order * dim


def test_reference_syndrome_matches_commutation_exponent():
    rng = gen.rng_for(3, "syndrome")
    for (mu_a, a), (mu_b, b) in gen.random_pairs(rng, 5, 6, 50):
        x = pfstab.algebra.PfOperator(5, 6, mu_a, a)
        y = pfstab.algebra.PfOperator(5, 6, mu_b, b)
        assert gen.pairing(a, b, 5) == x.commutation_exponent(y)


@pytest.mark.parametrize("name, cap", [("pf_8_1_3_d3", None), ("chain_d3_n4", None), ("pf_6_1_3_d7", None),
                                       ("embedded_5_1_3_d3", 2), ("toric_p2_l1_a2_b2", 2)])
def test_distance_supports_formula_matches_counted_enumeration(monkeypatch, name, cap):
    code = _build(name)
    original = pfstab.code._colex_combinations
    scanned = [0]

    def counting(universe, size):
        for support in original(universe, size):
            scanned[0] += 1
            yield support

    monkeypatch.setattr(pfstab.code, "_colex_combinations", counting)
    result = distance(code, max_weight=cap)
    assert scanned[0] == spans.distance_supports(code.num_modes, result)


def test_colex_rank_orders_supports():
    from itertools import combinations

    ordered = sorted(combinations(range(7), 3), key=lambda c: c[::-1])
    assert [spans.colex_rank(c) for c in ordered] == list(range(len(ordered)))


def test_self_times_of_nested_spans():
    # root 0 [0, 10]; child 1 [1, 5] with grandchild 2 [2, 3]; child 3 [6, 9]
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 4.0, 1.0, 3.0])
    assert spans.self_times(parent, duration).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_tracer_records_nesting_and_outermost_time(monkeypatch):
    clock = count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    tracer = spans.Tracer()
    outer, inner = tracer._name_id("code.validate"), tracer._name_id("zmod.kernel_basis")
    tracer.recording = True
    a = tracer._open(outer)       # t=0
    b = tracer._open(outer)       # t=1, nested call to the same function
    c = tracer._open(inner)       # t=2
    tracer._close(c)              # t=3
    tracer._close(b)              # t=4
    tracer._close(a)              # t=5
    summary = tracer.summary()
    assert summary["calls"]["code.validate"] == 2
    assert summary["self_s"]["code.validate"] == 4.0   # (5 - 0 - 3) + (4 - 1 - 1)
    assert summary["self_s"]["zmod.kernel_basis"] == 1.0
    assert summary["inclusive"]["code.validate"] == 5.0  # the nested call is not counted twice
    assert summary["inclusive"]["zmod"] == 1.0
    assert summary["root_s"] == 5.0


def test_tracer_patches_aliases_and_restores_them():
    originals = {
        (pfstab.search, "distance"): pfstab.code.distance,
        (pfstab.search, "validate"): pfstab.code.validate,
        (pfstab.search, "canonical_phases"): pfstab.code.canonical_phases,
        (pfstab.search, "codespace_dim"): pfstab.code.codespace_dim,
        (pfstab.code, "_howell_basis"): pfstab.zmod._howell_basis,
        (pfstab.code, "_reduce_against"): pfstab.zmod._reduce_against,
        (pfstab.code, "kernel_basis"): pfstab.zmod.kernel_basis,
    }
    methods = {name: pfstab.algebra.PfOperator.__dict__[name] for name in ("__mul__", "power", "from_factors")}
    accept = pfstab.search._Engine.__dict__["_accept"]
    with spans.Tracer():
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
        for name, raw in methods.items():
            assert pfstab.algebra.PfOperator.__dict__[name] is not raw
        assert pfstab.search._Engine.__dict__["_accept"] is not accept
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    for name, raw in methods.items():
        assert pfstab.algebra.PfOperator.__dict__[name] is raw
    assert pfstab.search._Engine.__dict__["_accept"] is accept


def test_traced_search_counts_nodes_and_classifies_every_accept():
    spec = SearchSpec(2, 4, 1, 2, max_hits=0)
    with spans.Tracer() as tracer:
        with tracer.record():
            codes, cert = pfstab.search.find_codes(spec, threads=1)
        pfstab.algebra.PfOperator.identity(2, 4) * pfstab.algebra.PfOperator.identity(2, 4)  # not recorded
    summary = tracer.summary()
    counters = summary["counters"]
    assert counters["search.nodes"] == cert.tuples_examined
    assert counters["search.hits"] == len(codes)
    rejects = sum(counters[f"search.reject.{r}"] for r in spans.REJECT_REASONS)
    assert counters["search.accept_calls"] == counters["search.hits"] + rejects == summary["calls"][spans.ACCEPT]
    assert summary["calls"]["search.find_codes"] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(v) for v in range(1, 26)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 60.0


def test_end_to_end_times_are_scaled_by_their_own_pass_speed():
    result = {"times": {"a": [1.0, 4.0], "b": [3.0, 12.0]}, "walls": [4.0, 16.0], "speeds": [2.0, 0.5],
              "attempted": 4, "failures": []}
    metrics, _ = run.end_to_end(result, [(1.0, 0.5), (3.0, 1.0), (2.0, 1.0)])
    assert metrics["wall_s"] == 8.0
    assert metrics["op_p50_ms"] == 4000.0 and metrics["op_tail_ms"] == 6000.0
    assert metrics["setup_s"] == 2.0


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    config = json.loads((gen.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
