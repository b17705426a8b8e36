import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfstab.algebra import PfOperator, lambda_matrix
from pfstab.builders import ToricSpec, build_clock_chain, build_toric, five_qutrit_code
from pfstab.code import PfCode, PhaseAssignmentError, canonical_phases
from pfstab.codefile import (
    CodeFileError,
    canonical_json,
    code_from_payload,
    code_to_payload,
    load_code,
    load_qudit_code,
    qudit_from_payload,
    qudit_to_payload,
    save_code,
    save_qudit_code,
)
from pfstab.zmod import ZModMatrix, kernel_basis

REPO_CODES = Path(__file__).resolve().parent.parent / "codes"


def test_round_trip_chain(tmp_path):
    code = build_clock_chain(3, 4)
    path = tmp_path / "chain.json"
    save_code(path, code, {"builder": "chain", "parameters": {"D": 3, "n": 4}})
    loaded, provenance = load_code(path)
    assert loaded == code
    assert provenance["builder"] == "chain"


def test_round_trip_with_layout(tmp_path):
    toric = build_toric(ToricSpec(2, 1, 2, 2))
    path = tmp_path / "toric.json"
    save_code(path, toric.code)
    loaded, _ = load_code(path)
    assert loaded == toric.code
    assert loaded.mode_layout == toric.code.mode_layout


def test_serialization_is_byte_stable(tmp_path):
    code = build_clock_chain(3, 4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_code(a, code)
    save_code(b, code)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_negative_exponent():
    payload = code_to_payload(build_clock_chain(3, 2))
    payload["generators"][0]["alpha"][0] = -1
    with pytest.raises(CodeFileError):
        code_from_payload(payload)


def test_rejects_out_of_range_residue():
    payload = code_to_payload(build_clock_chain(3, 2))
    payload["generators"][0]["alpha"][0] = 3
    with pytest.raises(CodeFileError):
        code_from_payload(payload)


def test_rejects_wrong_lengths_and_versions():
    payload = code_to_payload(build_clock_chain(3, 2))
    bad = dict(payload, format_version=99)
    with pytest.raises(CodeFileError):
        code_from_payload(bad)
    bad = json.loads(json.dumps(payload))
    bad["generators"][0]["alpha"].append(0)
    with pytest.raises(CodeFileError):
        code_from_payload(bad)


def _set_entry(path: tuple, value):
    def edit(payload):
        *keys, last = path
        for key in keys:
            payload = payload[key]
        if last is None:
            payload.append(value)
        else:
            payload[last] = value
    return edit


@pytest.mark.parametrize(
    "load, edit, message",
    [
        (code_from_payload, _set_entry(("generators", 1, "alpha", 2), True),
         "field 'generators[1].alpha[2]' must be an integer"),
        (code_from_payload, _set_entry(("generators", 1, "alpha", 2), 3),
         "generators[1].alpha[2] must lie in [0, 3)"),
        (code_from_payload, _set_entry(("generators", 1, "alpha", None), 0),
         "generators[1].alpha must have 6 entries"),
        (qudit_from_payload, _set_entry(("rows", 1, "z", 2), False),
         "field 'rows[1].z[2]' must be an integer"),
        (qudit_from_payload, _set_entry(("rows", 1, "z", 2), -1),
         "rows[1].z[2] must lie in [0, 3)"),
        (qudit_from_payload, _set_entry(("rows", 1, "z", None), 0),
         "rows[1].z must be a list of 5 entries"),
    ],
    ids=["code-bool", "code-range", "code-length", "qudit-bool", "qudit-range", "qudit-length"],
)
def test_bad_entry_messages_name_the_entry(load, edit, message):
    source = code_to_payload(build_clock_chain(3, 3)) if load is code_from_payload else qudit_to_payload(five_qutrit_code())
    payload = json.loads(json.dumps(source))
    edit(payload)
    with pytest.raises(CodeFileError) as err:
        load(payload)
    assert str(err.value) == message


def test_load_errors_carry_diagnostics(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(CodeFileError):
        load_code(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CodeFileError) as err:
        load_code(bad)
    assert "line" in str(err.value)


def test_qudit_round_trip(tmp_path):
    q = five_qutrit_code()
    path = tmp_path / "qudit.json"
    save_qudit_code(path, q)
    assert load_qudit_code(path) == q


def test_qudit_payload_validation():
    payload = qudit_to_payload(five_qutrit_code())
    payload["rows"][0]["x"][0] = 7
    with pytest.raises(CodeFileError):
        qudit_from_payload(payload)


def test_canonical_json_has_sorted_keys():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_regenerating_the_corpus_reproduces_codes(tmp_path, monkeypatch):
    """``demos/regenerate_corpus.py`` writes exactly the files of codes/, byte for byte, so
    every canonical output that codes/ holds is pinned by its file."""
    script = REPO_CODES.parent / "demos" / "regenerate_corpus.py"
    loader = importlib.util.spec_from_file_location("regenerate_corpus", script)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(path.name for path in REPO_CODES.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (REPO_CODES / name).read_bytes(), name


def test_shipped_corpus_files_parse_and_match_builders():
    from pfstab.repro import corpus

    built = corpus()
    for name, code in built.items():
        path = REPO_CODES / f"{name}.json"
        assert path.exists(), f"missing corpus file {path.name}"
        loaded, provenance = load_code(path)
        assert loaded == code, f"shipped {path.name} diverges from its builder"
        assert provenance is not None


def _random_valid_code(modulus: int, modes: int, gens: int, seed: int):
    """Commuting parity-zero generators drawn from the centralizer of the ones
    before them, phases solved; None when the phases cannot be solved."""
    rng = np.random.default_rng(seed)
    lam = lambda_matrix(modulus, modes).array
    rows = []
    for _ in range(gens):
        constraints = np.array([np.ones(modes, dtype=np.int64)] + [(row @ lam) % modulus for row in rows])
        allowed = kernel_basis(ZModMatrix(modulus, constraints.T % modulus)).array
        row = (rng.integers(0, modulus, size=len(allowed)) @ allowed) % modulus
        if row.any():
            rows.append(row)
    ops = tuple(PfOperator(modulus, modes, 0, tuple(int(x) for x in row)) for row in rows)
    try:
        return canonical_phases(PfCode(modulus, modes, ops))
    except PhaseAssignmentError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    modulus=st.integers(2, 12),
    modes=st.sampled_from([2, 4, 6, 8]),
    gens=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([None, 1, 2]),
    provenance=st.sampled_from([None, {"builder": "random", "parameters": {"seed": 7}}]),
)
def test_code_files_round_trip(tmp_path_factory, modulus, modes, gens, seed, dims, provenance):
    code = _random_valid_code(modulus, modes, gens, seed)
    assume(code is not None)
    if dims is not None:
        rng = np.random.default_rng(seed)
        points = rng.integers(-3, 4, size=(modes, dims))
        code = PfCode(code.modulus, code.num_modes, code.generators,
                      {mode: tuple(int(x) for x in points[mode - 1]) for mode in range(1, modes + 1)})
    path = tmp_path_factory.mktemp("round_trip") / "code.json"
    save_code(path, code, provenance)
    loaded, loaded_provenance = load_code(path)
    assert loaded == code and loaded.mode_layout == code.mode_layout
    assert loaded_provenance == provenance
    assert [g.mu for g in loaded.generators] == [g.mu for g in code.generators]
    assert canonical_json(code_to_payload(loaded, loaded_provenance)) == path.read_text()
