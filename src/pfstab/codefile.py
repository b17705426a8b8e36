"""On-disk JSON formats: code files, qudit check files, canonical dumps.

Code file (format_version 1):

    {
      "format_version": 1,
      "D": 3,
      "num_modes": 8,
      "generators": [{"mu": 0, "alpha": [2, 1, 0, 2, 0, 1, 0, 0]}, ...],
      "mode_layout": {"1": [0, 0], ...},          # optional
      "provenance": {"builder": ..., "parameters": {...}}   # optional
    }

Adjoints are encoded as the exponent D-1; negative residues are rejected.
Serialization is canonical (sorted keys, fixed separators), so identical
codes produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import PfOperator
from .builders import QuditCheckMatrix
from .code import PfCode
from .zmod import _is_int

__all__ = [
    "CodeFileError",
    "canonical_json",
    "code_to_payload",
    "code_from_payload",
    "load_code",
    "save_code",
    "qudit_to_payload",
    "qudit_from_payload",
    "load_qudit_code",
    "save_qudit_code",
]

FORMAT_VERSION = 1


class CodeFileError(ValueError):
    """A file that cannot be read, parsed or written: carries a one-line diagnostic."""


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CodeFileError(message)


def _expect_int(value, name: str) -> int:
    _expect(_is_int(value), f"field {name!r} must be an integer")
    return value


def _expect_residues(values: list, bound: int, name: str) -> None:
    """Every entry a plain int in [0, bound), else the first bad one named (one pass when all are good)."""
    if all(type(v) is int for v in values) and min(values, default=0) >= 0 and max(values, default=0) < bound:
        return
    for pos, entry in enumerate(values):
        value = _expect_int(entry, f"{name}[{pos}]")
        _expect(0 <= value < bound, f"{name}[{pos}] must lie in [0, {bound})")


def _expect_header(payload, size: str, other: str, other_kind: str) -> int:
    """The D of a payload, checked with its object, format and version; one
    with the ``other`` format's size field and not ``size`` holds ``other_kind``."""
    _expect(isinstance(payload, dict), "top level must be a JSON object")
    _expect(other not in payload or size in payload, other_kind)
    version = _expect_int(payload.get("format_version"), "format_version")
    _expect(version == FORMAT_VERSION, f"unsupported format_version {version}")
    modulus = _expect_int(payload.get("D"), "D")
    _expect(modulus >= 2, "D must be >= 2")
    return modulus


def code_to_payload(code: PfCode, provenance: dict | None = None) -> dict:
    """The code file payload; the generators are written from the code's
    phase and row arrays, so a code that has not built its operators does not build them."""
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "D": code.modulus,
        "num_modes": code.num_modes,
        "generators": [{"mu": mu, "alpha": alpha} for mu, alpha in zip(code._mu.tolist(), code._rows.tolist())],
    }
    if code.mode_layout is not None:
        payload["mode_layout"] = {str(m): list(c) for m, c in sorted(code.mode_layout.items())}
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def code_from_payload(payload: dict) -> PfCode:
    modulus = _expect_header(payload, "num_modes", "num_qudits",
                             "this file holds a qudit code (it has 'num_qudits'); `pfstab embed` turns it into a parafermion code")
    num_modes = _expect_int(payload.get("num_modes"), "num_modes")
    _expect(num_modes >= 2 and num_modes % 2 == 0, "num_modes must be even and >= 2")
    raw_gens = payload.get("generators")
    _expect(isinstance(raw_gens, list), "field 'generators' must be a list")
    gens = []
    for idx, item in enumerate(raw_gens):
        _expect(isinstance(item, dict), f"generators[{idx}] must be an object")
        mu = _expect_int(item.get("mu"), f"generators[{idx}].mu")
        _expect(0 <= mu < 2 * modulus, f"generators[{idx}].mu must lie in [0, {2 * modulus})")
        alpha = item.get("alpha")
        _expect(isinstance(alpha, list), f"generators[{idx}].alpha must be a list")
        _expect(len(alpha) == num_modes, f"generators[{idx}].alpha must have {num_modes} entries")
        _expect_residues(alpha, modulus, f"generators[{idx}].alpha")
        gens.append((mu, tuple(alpha)))
    layout = None
    if "mode_layout" in payload:
        raw_layout = payload["mode_layout"]
        _expect(isinstance(raw_layout, dict), "mode_layout must be an object")
        layout = {}
        for key, coords in raw_layout.items():
            _expect(key.isascii() and key.isdigit() and key == str(int(key)),  # "01" beside "1" names mode 1 twice
                    f"mode_layout key {key!r} must be a mode number without leading zeros")
            _expect(isinstance(coords, list) and all(_is_int(c) for c in coords),
                    f"mode_layout[{key}] must be a list of integers")
            layout[int(key)] = tuple(coords)
    try:
        ops = tuple(PfOperator(modulus, num_modes, mu, alpha) for mu, alpha in gens)
        return PfCode(modulus, num_modes, ops, mode_layout=layout)
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise CodeFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CodeFileError(f"{path} is not UTF-8 text: byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise CodeFileError(f"{path} is not valid JSON: line {exc.lineno}, column {exc.colno}") from exc


def load_code(path: str | Path) -> tuple[PfCode, dict | None]:
    payload = _read_json(path)
    return code_from_payload(payload), payload.get("provenance")


def save_code(path: str | Path, code: PfCode, provenance: dict | None = None) -> None:
    Path(path).write_text(canonical_json(code_to_payload(code, provenance)))


def qudit_to_payload(q: QuditCheckMatrix, provenance: dict | None = None) -> dict:
    payload: dict = {
        "format_version": FORMAT_VERSION,
        "D": q.modulus,
        "num_qudits": q.num_qudits,
        "rows": [
            {"x": list(r[: q.num_qudits]), "z": list(r[q.num_qudits :])}
            for r in q.rows
        ],
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def qudit_from_payload(payload: dict) -> QuditCheckMatrix:
    modulus = _expect_header(payload, "num_qudits", "num_modes",
                             "this file holds a parafermion code (it has 'num_modes'); `pfstab embed` reads a qudit code file")
    num_qudits = _expect_int(payload.get("num_qudits"), "num_qudits")
    _expect(num_qudits >= 1, "num_qudits must be >= 1")
    raw_rows = payload.get("rows")
    _expect(isinstance(raw_rows, list), "field 'rows' must be a list")
    rows = []
    for idx, item in enumerate(raw_rows):
        _expect(isinstance(item, dict), f"rows[{idx}] must be an object")
        for part in ("x", "z"):
            vec = item.get(part)
            _expect(isinstance(vec, list) and len(vec) == num_qudits,
                    f"rows[{idx}].{part} must be a list of {num_qudits} entries")
            _expect_residues(vec, modulus, f"rows[{idx}].{part}")
        rows.append(tuple(item["x"]) + tuple(item["z"]))
    try:
        return QuditCheckMatrix(modulus, num_qudits, tuple(rows))
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc


def load_qudit_code(path: str | Path) -> QuditCheckMatrix:
    return qudit_from_payload(_read_json(path))


def save_qudit_code(path: str | Path, q: QuditCheckMatrix, provenance: dict | None = None) -> None:
    Path(path).write_text(canonical_json(qudit_to_payload(q, provenance)))
