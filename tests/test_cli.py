import copy
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pfstab.builders import build_clock_chain
from pfstab.cli import main
from pfstab.codefile import canonical_json, code_to_payload, save_code

REPO_CODES = Path(__file__).resolve().parent.parent / "codes"
REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_validate_good_file(capsys):
    status, out, _ = run(capsys, "validate", REPO_CODES / "pf_8_1_3_d3.json")
    assert status == 0
    assert json.loads(out.splitlines()[0]) == {"abelian": True, "parity_ok": True, "phase_ok": True}


def test_validate_charge_violation_exits_1(capsys, tmp_path):
    payload = {
        "format_version": 1,
        "D": 3,
        "num_modes": 4,
        "generators": [{"mu": 0, "alpha": [1, 0, 0, 0]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(payload))
    status, _, err = run(capsys, "validate", path)
    assert status == 1
    assert "parity" in err


def test_validate_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": 1}')
    status, _, err = run(capsys, "validate", path)
    assert status == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["validate", "embed"])
def test_file_that_is_not_utf8_exits_2(capsys, tmp_path, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"D": \xff}')
    status, _, err = run(capsys, command, path)
    assert status == 2
    assert err.splitlines() == [f"error: {path} is not UTF-8 text: byte 6"]


def test_params_reports_known_parameters(capsys):
    status, out, _ = run(capsys, "params", REPO_CODES / "pf_8_1_3_d3.json")
    assert status == 0
    assert "distance d       : 3" in out
    assert "|S|              : 27" in out


def test_params_json_mode(capsys):
    status, out, _ = run(capsys, "params", "--json", REPO_CODES / "pf_6_1_3_d7.json")
    assert status == 0
    payload = json.loads(out)
    assert payload["k"] == 1 and payload["distance"]["value"] == 3


@pytest.mark.parametrize("flag, cap", [("--max-weight", "0"), ("--max-weight", "-2"), ("--max-diameter", "0")])
def test_params_cap_below_one_exits_2(capsys, flag, cap):
    status, out, err = run(capsys, "params", REPO_CODES / "pf_8_1_3_d3.json", flag, cap)
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_params_capped_lcon_reads_as_bound(capsys):
    status, out, _ = run(capsys, "params", REPO_CODES / "chain_d2_n2.json", "--max-diameter", "2")
    assert status == 0
    assert "l_con            : > 2" in out
    status, out, _ = run(capsys, "params", "--json", REPO_CODES / "chain_d2_n2.json", "--max-diameter", "2")
    assert status == 0
    assert json.loads(out)["l_con"] == {"value": None, "cap": 2, "certificate": None}


# ``pfstab params --json`` on every parafermion code file under codes/,
# uncapped and at --max-weight 4 --max-diameter 8 (the qudit file is no
# ``params`` input).  The output is canonical: making distance or l_con
# faster must leave these bytes alone.  Where the output is the file
# codes/<name>.params.json (every uncapped run of a code below the 20-mode
# limit, and two capped runs), it is compared with that file, which
# ``demos/regenerate_corpus.py`` writes; the other outputs are pinned by
# their sha256 digests.
PARAMS_JSON_IN_CODES = {
    *((name, False) for name in ("chain_d2_n2", "chain_d3_n4", "chain_d5_n3", "embedded_5_1_3_d3",
                                 "pf_6_1_3_d7", "pf_8_1_3_d3", "pf_d6_doubled")),
    ("chain_d2_n2", True),
    ("toric_p2_l1_a2_b2", True),
}
PARAMS_JSON_SHA256 = {
    ("chain_d3_n4", True): "424f3f36e02e114be8493c0c306397720ceb99670af31ed6bec17b94bfe2cdef",
    ("chain_d5_n3", True): "3be6acf771fd445321a49acd701d7fbb1229634bd8959eb7a331c347babd41db",
    ("embedded_5_1_3_d3", True): "4155ae9d7594d2985c26e4e432154644adba4cbb0e1b8ff129d00c358c47c93a",
    ("pf_6_1_3_d7", True): "4835537e393de90fec9755b657a7046d00377e6c3c7c9e34679294cde0dc87d6",
    ("pf_8_1_3_d3", True): "e700eeb8359993ebfbfa77b76292219779ab64646156845f397fd5dacb83ce37",
    ("pf_d6_doubled", True): "a332f326a043e907b7c3873ae56755e37fd7a9675b70a571ae913768c4186730",
    ("toric_p2_l1_a2_b2", False): "d423ceb8837d3421d0f3fe9e6645456d1617bb82064754d6b4a4b4e3d8c9855f",
    ("toric_p2_l1_a2_b3", False): "3d8e002fc4a3213301ed0ee85374f9630ec6f63a7fda613f9a956dec439809ee",
    ("toric_p2_l1_a2_b3", True): "d92ce84a4d957de26ce0a1870d520b2bc515125e777d78ffac82aceb50250df5",
}


@pytest.mark.parametrize("name, capped", sorted(PARAMS_JSON_IN_CODES | PARAMS_JSON_SHA256.keys()))
def test_params_json_is_pinned(capsys, name, capped):
    caps = ["--max-weight", "4", "--max-diameter", "8"] if capped else []
    status, out, _ = run(capsys, "params", "--json", REPO_CODES / f"{name}.json", *caps)
    assert status == 0
    if (name, capped) in PARAMS_JSON_IN_CODES:
        assert out.encode() == (REPO_CODES / f"{name}.params.json").read_bytes()
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == PARAMS_JSON_SHA256[name, capped]


def test_pinned_params_cover_every_code_file():
    files = {p.stem for p in REPO_CODES.glob("*.json") if "generators" in json.loads(p.read_text())}
    assert not PARAMS_JSON_IN_CODES & PARAMS_JSON_SHA256.keys()
    assert PARAMS_JSON_IN_CODES | PARAMS_JSON_SHA256.keys() == {(name, capped) for name in files for capped in (False, True)}


def test_syndrome_command(capsys):
    status, out, _ = run(capsys, "syndrome", REPO_CODES / "pf_8_1_3_d3.json", "--error", "g3")
    assert status == 0
    assert json.loads(out) == {"error": "g3", "syndrome": [0, 2, 2]}


def test_syndrome_bad_operator_exits_2(capsys):
    status, _, err = run(capsys, "syndrome", REPO_CODES / "pf_8_1_3_d3.json", "--error", "q9")
    assert status == 2
    assert "error" in err


def test_chain_and_double_pipeline(capsys, tmp_path):
    chain_file = tmp_path / "chain.json"
    status, _, _ = run(capsys, "chain", "--D", 3, "--n", 4, "--out", chain_file)
    assert status == 0
    doubled_file = tmp_path / "css.json"
    status, _, _ = run(capsys, "double", chain_file, "--out", doubled_file)
    assert status == 0
    payload = json.loads(doubled_file.read_text())
    assert payload["num_qudits"] == 8 and len(payload["rows"]) == 6


def test_double_d6_command(capsys, tmp_path):
    out_file = tmp_path / "d6.json"
    status, _, _ = run(capsys, "double-d6", REPO_CODES / "pf_8_1_3_d3.json", "--out", out_file)
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert payload["D"] == 6 and len(payload["generators"]) == 7


def test_double_d6_wrong_modulus_exits_1(capsys, tmp_path):
    src = tmp_path / "chain2.json"
    save_code(src, build_clock_chain(2, 2))
    status, _, err = run(capsys, "double-d6", src)
    assert status == 1


def test_embed_command(capsys, tmp_path):
    out_file = tmp_path / "embedded.json"
    status, _, _ = run(capsys, "embed", REPO_CODES / "qudit_5_1_3_d3.json", "--out", out_file)
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert payload["num_modes"] == 20 and len(payload["generators"]) == 9


@pytest.mark.parametrize("command", ["params", "validate"])
def test_qudit_file_given_as_a_code_names_embed(capsys, command):
    status, out, err = run(capsys, command, REPO_CODES / "qudit_5_1_3_d3.json")
    assert status == 2 and out == ""
    assert err.splitlines() == [
        "error: this file holds a qudit code (it has 'num_qudits'); `pfstab embed` turns it into a parafermion code"
    ]


def test_embed_on_a_parafermion_code_file_says_so(capsys):
    status, out, err = run(capsys, "embed", REPO_CODES / "pf_8_1_3_d3.json")
    assert status == 2 and out == ""
    assert err.splitlines() == [
        "error: this file holds a parafermion code (it has 'num_modes'); `pfstab embed` reads a qudit code file"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--D", 3, "--n", 2],
        ["toric", "--p", 2, "--l", 1, "--a", 2, "--b", 2],
        ["params", REPO_CODES / "pf_8_1_3_d3.json", "--json"],
        ["search", REPO_CODES / "search_d3_6modes.json"],
        ["embed", REPO_CODES / "qudit_5_1_3_d3.json"],
        ["double", REPO_CODES / "pf_8_1_3_d3.json"],
        ["double-d6", REPO_CODES / "pf_8_1_3_d3.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_path_exits_2_with_one_error_line(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    status, out, err = run(capsys, "--threads", 1, *argv, "--out", target)
    assert status == 2 and out == ""
    lines = [line for line in err.splitlines() if not line.startswith("candidate vectors:")]  # search's header
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_toric_command_output_round_trips(capsys, tmp_path):
    out_file = tmp_path / "toric.json"
    status, _, _ = run(capsys, "toric", "--p", 2, "--l", 1, "--a", 2, "--b", 2, "--out", out_file)
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert payload["D"] == 4 and payload["num_modes"] == 32
    assert payload["provenance"]["parameters"] == {"p": 2, "l": 1, "a": 2, "b": 2}


def test_toric_rejects_nonprime(capsys):
    status, _, err = run(capsys, "toric", "--p", 4, "--l", 1, "--a", 2, "--b", 2)
    assert status == 2
    assert "prime" in err


def test_builder_outputs_are_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "chain", "--D", 5, "--n", 3, "--out", f1)
    run(capsys, "chain", "--D", 5, "--n", 3, "--out", f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_search_command_with_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({
        "D": 2, "num_modes": 4, "target_k": 1, "target_d": 2, "max_hits": 0,
    }))
    out_file = tmp_path / "cert.json"
    status, _, err = run(capsys, "search", spec_file, "--canonical", "--out", out_file)
    assert status == 0
    cert = json.loads(out_file.read_text())
    assert cert["exhausted"] and len(cert["hits"]) == 1
    assert "wall_time_s" not in cert
    assert "candidate vectors" in err


def test_search_budget_exit_code(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({
        "D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "max_hits": 0, "max_tuples": 10,
    }))
    status, out, _ = run(capsys, "search", spec_file)
    assert status == 3


def test_search_budget_certificate_is_independent_of_threads(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({
        "D": 3, "num_modes": 6, "target_k": 1, "target_d": 2, "max_hits": 0, "max_tuples": 100,
    }))
    certs = []
    for threads in (1, 3):
        out_file = tmp_path / f"cert_{threads}.json"
        status, _, _ = run(capsys, "--threads", threads, "search", spec_file, "--canonical", "--out", out_file)
        assert status == 3
        cert = json.loads(out_file.read_text())
        assert cert.pop("threads") == threads
        del cert["signature"]
        certs.append(cert)
    assert certs[0] == certs[1]
    assert certs[0]["tuples_examined"] == 101 and certs[0]["budget_exceeded"]


def test_threads_default_reads_the_environment_on_each_call(capsys, tmp_path, monkeypatch):
    # The parser is built once per process; PFSTAB_THREADS is still read per call.
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({
        "D": 3, "num_modes": 6, "target_k": 1, "target_d": 2, "max_hits": 0, "max_tuples": 100,
    }))
    out_file = tmp_path / "cert.json"
    for value, threads in (("2", 2), (None, 1), ("3", 3)):
        if value is None:
            monkeypatch.delenv("PFSTAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("PFSTAB_THREADS", value)
        assert run(capsys, "search", spec_file, "--canonical", "--out", out_file)[0] == 3
        assert json.loads(out_file.read_text())["threads"] == threads


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--threads", "0"], None, "threads must be a positive integer, not 0"),
        (["--threads", "-3"], None, "threads must be a positive integer, not -3"),
        ([], "abc", "PFSTAB_THREADS must be a positive integer, not 'abc'"),
        ([], "0", "PFSTAB_THREADS must be a positive integer, not '0'"),
    ],
    ids=["flag_0", "flag_negative", "env_abc", "env_0"],
)
def test_bad_thread_count_exits_2(capsys, tmp_path, monkeypatch, argv, env, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "max_hits": 0}))
    if env is None:
        monkeypatch.delenv("PFSTAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("PFSTAB_THREADS", env)
    status, out, err = run(capsys, *argv, "search", spec_file)
    assert status == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: {message}"
    assert "Traceback" not in err


def test_empty_thread_variable_counts_as_unset(capsys, tmp_path, monkeypatch):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 2, "max_hits": 0, "max_tuples": 100}))
    monkeypatch.setenv("PFSTAB_THREADS", "")
    out_file = tmp_path / "cert.json"
    assert run(capsys, "search", spec_file, "--canonical", "--out", out_file)[0] == 3
    assert json.loads(out_file.read_text())["threads"] == 1


def test_search_oversize_candidate_space_exits_3(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({"D": 3, "num_modes": 16, "target_k": 1, "target_d": 3}))
    status, out, err = run(capsys, "search", spec_file)
    assert status == 3
    assert out == ""
    assert err.splitlines()[-1].startswith("error: candidate space")
    assert "Traceback" not in err


def test_search_huge_mode_count_exits_3_without_printing_the_count(capsys, tmp_path):
    # 3^19999 has more decimal digits than Python converts to a string by default.
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(canonical_json({"D": 3, "num_modes": 20000, "target_k": 1, "target_d": 3}))
    status, out, err = run(capsys, "search", spec_file)
    assert status == 3 and out == ""
    assert err.splitlines() == ["error: candidate space 3^19999 exceeds the supported size 400000"]


def test_search_huge_prime_modulus_exits_3_quickly(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"D": 10**16 + 61, "num_modes": 2, "target_k": 0, "target_d": 1}))
    start = time.perf_counter()
    status, out, err = run(capsys, "search", spec_file)
    assert time.perf_counter() - start < 1.0  # trial division took 10 s
    assert status == 3 and out == ""
    assert err.splitlines() == ["error: candidate space 10000000000000061^1 exceeds the supported size 400000"]


def traced_run(capsys, *argv):
    """``run`` and the peak of the memory Python allocated meanwhile, in MiB."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        return (*result, tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


def test_search_d6_eight_modes_runs_to_its_budget(capsys, tmp_path):
    # 279,935 candidates: the prefilter tables used to ask for 14.6 GiB before the first node.
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "D": 6, "num_modes": 8, "target_k": 1, "target_d": 3, "generator_count": 3, "max_tuples": 2000,
    }))
    out_file = tmp_path / "cert.json"
    status, _, _, peak = traced_run(capsys, "--threads", 1, "search", spec_file, "--canonical", "--out", out_file)
    assert status == 3
    cert = json.loads(out_file.read_text())
    assert cert["budget_exceeded"] and cert["tuples_examined"] == 2001 and cert["hits"] == []
    assert peak < 256


def test_search_too_many_prefilter_vectors_exits_3_before_allocating(capsys, tmp_path):
    # 73^3 - 1 candidates fit, but weights 1..4 hold about 28 million vectors.
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"D": 73, "num_modes": 4, "target_k": 1, "target_d": 4}))
    status, out, err, peak = traced_run(capsys, "search", spec_file)
    assert status == 3 and out == ""
    assert err.splitlines()[-1] == (
        "error: prefilter space of 28398240 vectors of weight <= 4 exceeds the supported size 400000"
    )
    assert peak < 16


def test_search_target_d_above_the_mode_count_exhausts_with_no_hits(capsys, tmp_path):
    # No support has more than num_modes modes, so no weight-d vector exists to allocate.
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"D": 3, "num_modes": 4, "target_k": 1, "target_d": 1000, "max_hits": 0}))
    out_file = tmp_path / "cert.json"
    status, _, _, peak = traced_run(capsys, "search", spec_file, "--canonical", "--out", out_file)
    assert status == 0
    cert = json.loads(out_file.read_text())
    assert cert["exhausted"] and cert["hits"] == []
    assert peak < 16


# `search --canonical --out` on these specs writes the certificate that codes/
# pins for the same search (first recorded with the non-incremental
# canonical-prefix test).
CANONICAL_CERTS = {
    "d3_6modes": ({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "max_hits": 0}, "search_d3_6modes"),
    "d3_8modes_first": ({"D": 3, "num_modes": 8, "target_k": 1, "target_d": 3, "max_hits": 1}, "search_d3_8modes"),
    "d4_4modes": (
        {"D": 4, "num_modes": 4, "target_k": 1, "target_d": 2, "generator_count": 2, "max_hits": 0},
        "search_d4_4modes",
    ),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CERTS))
def test_search_canonical_certificate_is_pinned(capsys, tmp_path, name):
    spec, pinned = CANONICAL_CERTS[name]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "cert.json"
    status, _, _ = run(capsys, "search", spec_file, "--canonical", "--out", out_file)
    assert status == 0
    assert out_file.read_bytes() == (REPO_CODES / f"{pinned}.cert.json").read_bytes()


def test_search_bad_spec_exits_2(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"D": 3}')
    status, _, err = run(capsys, "search", spec_file)
    assert status == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ([3, 6, 1, 3], "JSON object"),
        ({"D": 1, "num_modes": 4, "target_k": 1, "target_d": 2, "generator_count": 1}, "D (modulus) must be"),
        ({"D": 2, "num_modes": 2, "target_k": 0, "target_d": 1, "mode": "randomized", "generator_count": 2},
         "candidate vectors"),
        ({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "samples": "x"}, "samples"),
        ({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "max_hits": -1}, "max_hits"),
        ({"D": 3, "num_modes": 6, "target_k": -1, "target_d": 3, "generator_count": 2}, "target_k"),
        ({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "samples": -1}, "samples"),
        ({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "mode": "randomized", "sampler": "floyd-pcg64-raw-v1"},
         "not a search setting"),
        # A misspelled max_hits used to be dropped: exit 0 with one hit.
        ({"D": 3, "num_modes": 6, "target_k": 1, "target_d": 2, "maxhits": 0}, "unknown search spec field 'maxhits'"),
        # modulus beside D used to be dropped: a D=3 search, exit 0.
        ({"D": 3, "modulus": 5, "num_modes": 6, "target_k": 1, "target_d": 2}, "both 'D' and 'modulus'"),
        # A missing field used to surface as a bare KeyError: "bad search spec: 'num_modes'".
        ({"D": 3, "target_k": 1, "target_d": 2}, "missing search spec field 'num_modes'"),
    ],
)
def test_search_rejects_bad_spec_fields_with_one_error_line(capsys, tmp_path, spec, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    status, out, err = run(capsys, "search", spec_file)
    assert status == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: bad search spec:") and message in err


_SPEC_VALUES = {
    # Valid values stay small (at most 4 modes, D <= 6), so every search is quick.
    "D": st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 6, "3", 2.5, True, None, [3]]),
    "num_modes": st.sampled_from([-2, 0, 1, 2, 3, 4, "4", 4.0, None]),
    "target_k": st.sampled_from([-1, 0, 1, 2, "1", None]),
    "target_d": st.sampled_from([-1, 0, 1, 2, 3, "2", 2.0]),
    "samples": st.sampled_from([-1, 0, 1, 40, "x", None, 2.5]),
}
_OPTIONAL_SPEC_VALUES = {
    "mode": st.sampled_from(["exhaustive", "randomized", "other", 1, None]),
    "seed": st.sampled_from([-1, 0, 7, "s", 1.5]),
    "generator_count": st.sampled_from([-1, 0, 1, 2, "2", None]),
    "symmetry_reduction": st.sampled_from([True, False, 1, "yes", None]),
    "max_hits": st.sampled_from([-1, 0, 1, 2, "x"]),
    "max_tuples": st.sampled_from([-1, 0, 1, 100, "x"]),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    document=st.one_of(
        st.fixed_dictionaries(_SPEC_VALUES, optional=_OPTIONAL_SPEC_VALUES).map(json.dumps),
        st.fixed_dictionaries({}, optional={**_SPEC_VALUES, **_OPTIONAL_SPEC_VALUES}).map(json.dumps),
        st.one_of(st.lists(st.integers(), max_size=4), st.integers(), st.text(max_size=8), st.none()).map(json.dumps),
        st.text(max_size=12),
    ),
)
def test_search_spec_fuzz_never_raises(capsys, tmp_path, document):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(document)
    status, _, err = run(capsys, "--threads", 1, "search", spec_file)
    assert status in (0, 2, 3)
    assert "Traceback" not in err


def test_oracle_command(capsys):
    status, out, _ = run(capsys, "oracle", "--D", 3, "--n", 2)
    assert status == 0
    assert "PASS" in out and "FAIL" not in out


def test_oracle_with_code_file(capsys):
    status, out, _ = run(capsys, "oracle", "--D", 3, "--n", 4, "--file", REPO_CODES / "pf_8_1_3_d3.json")
    assert status == 0
    assert "projector trace" in out and "FAIL" not in out


def test_oracle_invalid_code_file_exits_1(capsys, tmp_path):
    payload = json.loads((REPO_CODES / "chain_d2_n2.json").read_text())
    payload["generators"][0]["mu"] = 0
    path = tmp_path / "unphased.json"
    path.write_text(canonical_json(payload))
    status, _, validate_err = run(capsys, "validate", path)
    assert status == 1
    status, out, err = run(capsys, "oracle", "--D", 2, "--n", 2, "--file", path)
    assert status == 1
    assert out == ""
    assert err == validate_err
    assert err.startswith("invalid:") and "Traceback" not in err


@pytest.mark.parametrize("modulus, qudits", [(1, 2), (3, 0)])
def test_oracle_degenerate_representation_exits_2(capsys, modulus, qudits):
    status, out, err = run(capsys, "oracle", "--D", modulus, "--n", qudits)
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_on_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# A fresh copy per draw: a junk list written into a document can itself be
# overwritten later, which must not change (or make circular) the shared value.
_JUNK = st.sampled_from([-1, 0, 1, 2, 9, True, False, "1", 1.5, None, [], {}, [0, 1], "\u00b2", "\u0661",
                         2**31, -(2**31) - 1, 2**63 - 1, 10**20]).map(copy.deepcopy)


@st.composite
def _code_documents(draw) -> str:
    """A valid small code file, then up to three fields replaced by junk."""
    modulus, modes = draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([2, 4]))
    digit = st.integers(0, modulus - 1)
    payload = {
        "format_version": 1,
        "D": modulus,
        "num_modes": modes,
        "generators": [
            {"mu": draw(st.integers(0, 2 * modulus - 1)), "alpha": draw(st.lists(digit, min_size=modes, max_size=modes))}
            for _ in range(draw(st.integers(0, 2)))
        ],
    }
    if draw(st.booleans()):
        payload["mode_layout"] = {str(mode): [mode - 1, 0] for mode in range(1, modes + 1)}
    for _ in range(draw(st.integers(0, 3))):
        # Overwrite an entry at one level of the document, or add a key there.
        gens = payload["generators"] if isinstance(payload["generators"], list) else []
        layout = payload.get("mode_layout")
        levels = {
            "top": [payload],
            "generator": [g for g in gens if isinstance(g, dict)],
            "alpha": [g["alpha"] for g in gens if isinstance(g, dict) and isinstance(g.get("alpha"), list)],
            "layout": [layout] if isinstance(layout, dict) else [],
            "coordinates": [c for c in layout.values() if isinstance(c, list)] if isinstance(layout, dict) else [],
        }
        node = draw(st.sampled_from(draw(st.sampled_from([v for v in levels.values() if any(v)]))))
        if isinstance(node, dict):
            key = draw(st.one_of(st.sampled_from(list(node) or ["x"]), st.sampled_from(["x", "0", "9", "\u00b2", "\u0661"])))
        elif node:
            key = draw(st.integers(0, len(node) - 1))
        else:
            continue
        node[key] = draw(st.one_of(_JUNK, st.just([0, 0])))
    return json.dumps(payload)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["validate", "params", "double", "double-d6"]),
    document=st.one_of(
        _code_documents(),
        st.one_of(st.lists(st.integers(), max_size=4), st.integers(), st.text(max_size=8), st.none()).map(json.dumps),
        st.text(max_size=12),
    ),
)
def test_code_file_fuzz_never_raises(capsys, tmp_path, command, document):
    path = tmp_path / "code.json"
    path.write_text(document)
    status, _, err = run(capsys, command, path)
    assert status in (0, 1, 2)
    assert "Traceback" not in err


_TORIC_FILES = sorted(path for path in REPO_CODES.glob("toric_*.json") if not path.name.endswith(".params.json"))


@st.composite
def _one_field_layout_documents(draw) -> str:
    """A toric code file of the corpus (it has a mode_layout) with exactly one field replaced: a layout
    coordinate or a generator exponent, by junk or a small integer, or a layout key, renamed.  A
    coordinate is as often an integer just past the int32 or int64 range, which only the header check
    keeps from the scan."""
    payload = json.loads(draw(st.sampled_from(_TORIC_FILES)).read_text())
    layout = payload["mode_layout"]
    value = st.one_of(_JUNK, st.integers(-3, 9))
    field = draw(st.sampled_from(["coordinate", "exponent", "key"]))
    if field == "coordinate":
        coords = layout[draw(st.sampled_from(sorted(layout)))]
        edge = st.sampled_from([2**31, -(2**31) - 1, 2**63, -(2**63) - 1, 10**20])
        coords[draw(st.integers(0, len(coords) - 1))] = draw(st.one_of(value, edge))
    elif field == "exponent":
        alpha = draw(st.sampled_from(payload["generators"]))["alpha"]
        alpha[draw(st.integers(0, len(alpha) - 1))] = draw(value)
    else:
        key = draw(st.sampled_from(sorted(layout)))
        layout[draw(st.sampled_from(["0", "x", "01", "\u00b2", "\u0661", str(len(layout) + 1), *sorted(layout)]))] = layout.pop(key)
    return json.dumps(payload)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_one_field_layout_documents())
def test_one_field_layout_fuzz_reaches_lcon_and_never_raises(capsys, tmp_path, document):
    path = tmp_path / "code.json"
    path.write_text(document)
    status, out, err = run(capsys, "params", "--max-weight", 2, "--max-diameter", 4, path)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 0:  # a valid code: the report went through the l_con window scan
        assert "l_con" in out


def test_import_pfstab_leaves_multiprocessing_out():
    # Only a search with threads > 1 starts worker processes; the package import must not pay for them.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_SRC), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, pfstab, pfstab.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


@st.composite
def _qudit_documents(draw) -> str:
    """A small qudit check file, commuting or not, then up to two fields replaced by junk."""
    modulus, qudits = draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, 3))
    digits = st.lists(st.integers(0, modulus - 1), min_size=qudits, max_size=qudits)
    payload = {
        "format_version": 1,
        "D": modulus,
        "num_qudits": qudits,
        "rows": [{"x": draw(digits), "z": draw(digits)} for _ in range(draw(st.integers(0, 3)))],
    }
    for _ in range(draw(st.integers(0, 2))):
        rows = [r for r in payload["rows"] if isinstance(r, dict)] if isinstance(payload["rows"], list) else []
        node = draw(st.sampled_from([payload, *rows]))
        node[draw(st.sampled_from(list(node)))] = draw(_JUNK)
    return json.dumps(payload)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_qudit_documents())
def test_qudit_file_fuzz_never_raises(capsys, tmp_path, document):
    path = tmp_path / "qudit.json"
    path.write_text(document)
    status, _, err = run(capsys, "embed", path, "--out", tmp_path / "embedded.json")
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status:
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["embed", "double"])
def test_invalid_input_exits_1_with_one_error_line(capsys, tmp_path, command):
    path = tmp_path / "input.json"
    if command == "embed":  # X and Z on the same qudit do not commute
        path.write_text(json.dumps({"format_version": 1, "D": 3, "num_qudits": 1, "rows": [
            {"x": [1], "z": [0]}, {"x": [0], "z": [1]}]}))
    else:  # a generator of charge 1
        path.write_text(json.dumps({"format_version": 1, "D": 3, "num_modes": 2, "generators": [
            {"mu": 0, "alpha": [1, 0]}]}))
    status, out, err = run(capsys, command, path)
    assert status == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_layout_coordinates_reject_booleans(capsys, tmp_path):
    payload = code_to_payload(build_clock_chain(2, 2))
    payload["mode_layout"] = {"1": [0], "2": [1], "3": [True], "4": [3]}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    status, _, err = run(capsys, "validate", path)
    assert status == 2
    assert "mode_layout[3] must be a list of integers" in err


# int64 differences of these coordinates wrap (the first two), or the coordinate
# itself does not fit (the third); coordinates need a dimension (the fourth).
@pytest.mark.parametrize(
    "coordinates",
    [
        [-(2**63) + 1, 0, 1, 2**63 - 1],
        [-(2**62), 0, 1, 2**62],
        [0, 1, 2, 2**63 - 1],
        None,
    ],
    ids=["full-int64", "half-int64", "one-wide", "empty"],
)
def test_wide_or_empty_layout_exits_2(capsys, tmp_path, coordinates):
    payload = {"format_version": 1, "D": 3, "num_modes": 4, "generators": [{"mu": 0, "alpha": [1, 2, 0, 0]}]}
    payload["mode_layout"] = {str(mode): [] if coordinates is None else [coordinates[mode - 1]] for mode in range(1, 5)}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    status, out, err = run(capsys, "params", path)
    assert status == 2 and out == ""
    assert err.startswith("error: mode_layout coordinates") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, builder",
    [(["chain", "--D", "3", "--n", "100000"], "build_clock_chain"),
     (["toric", "--p", "2", "--l", "1", "--a", "1000", "--b", "1000"], "build_toric")],
)
@pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array with shape (99999, 200000)", ""])
def test_running_out_of_memory_exits_3(capsys, monkeypatch, argv, builder, message):
    def exhausted(*_):
        raise MemoryError(message)

    monkeypatch.setattr(f"pfstab.cli.{builder}", exhausted)  # never allocates for real
    status, out, err = run(capsys, *argv)
    assert status == 3 and out == ""
    assert err == f"error: {message or 'out of memory'}\n"


# str.isdigit accepts the first two, int() the last three; code files write str(mode) only.
@pytest.mark.parametrize("key", ["\u00b2", "\u0661", "04", "01"])
def test_layout_keys_must_be_ascii_mode_numbers(capsys, tmp_path, key):
    payload = code_to_payload(build_clock_chain(2, 2))
    # "01" beside "1" names mode 1 twice; the later key used to win silently.
    layouts = {"01": {"1": [0], "2": [1], "3": [2], "4": [3], "01": [4]}}
    payload["mode_layout"] = layouts.get(key, {"1": [0], "2": [1], "3": [2], key: [3]})
    path = tmp_path / "code.json"
    path.write_text(json.dumps(payload))
    status, _, err = run(capsys, "validate", path)
    assert status == 2
    assert err.startswith("error: mode_layout key") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--D", 4294967311, "--n", 2],
        ["chain", "--D", 3037000507, "--n", 2],
        ["chain", "--D", 2**70, "--n", 2],
        ["toric", "--p", 2, "--l", 40, "--a", 2, "--b", 2],
    ],
)
def test_modulus_beyond_exact_int64_arithmetic_exits_2(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err.startswith("error: modulus") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, big",
    [
        pytest.param("validate", 4294967311, id="validate"),
        pytest.param("params", 4294967311, id="params"),
        pytest.param("embed", 4294967311, id="embed"),
        # One qudit passes the qudit-level range check; its four embedded modes do not.
        pytest.param("embed", 10**9, id="embed-modes-only"),
    ],
)
def test_file_with_modulus_beyond_exact_int64_arithmetic_exits_2(capsys, tmp_path, command, big):
    path = tmp_path / "input.json"
    if command == "embed":
        path.write_text(json.dumps({"format_version": 1, "D": big, "num_qudits": 1, "rows": [{"x": [1], "z": [0]}]}))
    else:
        path.write_text(json.dumps({"format_version": 1, "D": big, "num_modes": 4, "generators": [
            {"mu": 0, "alpha": [0, big - 1, 1, 0]}]}))
    status, out, err = run(capsys, command, path)
    assert status == 2 and out == ""
    assert err.startswith("error: modulus") and err.count("\n") == 1


def test_largest_chain_modulus_builds_a_valid_code(capsys, tmp_path):
    largest = 379625062  # the largest D with (2 * 4 * D)^2 < 2^63
    path = tmp_path / "chain.json"
    assert run(capsys, "chain", "--D", largest, "--n", 2, "--out", path)[0] == 0
    status, out, _ = run(capsys, "validate", path)
    assert status == 0
    assert json.loads(out) == {"abelian": True, "parity_ok": True, "phase_ok": True}
    assert run(capsys, "chain", "--D", largest + 1, "--n", 2)[0] == 2


def _address_space_limit():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_params_refuses_an_oversized_distance_letter_table(tmp_path):
    # A valid 4-mode chain whose distance letter table would take 8 * 4 * (D - 1) bytes, 3.2 GB.
    # The child runs under a 2 GiB address-space limit, so a scan that allocated it would fail there.
    path = tmp_path / "chain.json"
    save_code(path, build_clock_chain(100000007, 2))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "pfstab.cli", "params", str(path)],
        capture_output=True, text=True, env=env, preexec_fn=_address_space_limit, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: the distance scan's letter table") and proc.stderr.count("\n") == 1
