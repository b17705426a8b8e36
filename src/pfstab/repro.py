"""End-to-end verification battery: rebuild every known code and check it.

Each check returns rows of (name, computed, expected, passed); the CLI
renders them as a table and the acceptance tests assert every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PfOperator
from .builders import (
    ToricSpec,
    build_clock_chain,
    build_toric,
    code_6_1_3_d7,
    code_8_1_3_d3,
    double_code_d6,
    double_to_css,
    embed_qudit_code,
    five_qutrit_code,
)
from .code import (
    PfCode,
    _weight_rows,
    analyze,
    codespace_dim,
    distance,
    group_order,
    l_con,
    logical_basis,
    syndrome,
    validate,
)
from .oracle import DEFAULT_DIM_CAP, jw_modes, projector, relation_report, syndrome_sim
from .search import SearchSpec, find_codes

__all__ = ["CheckRow", "corpus", "run_all_checks", "CHECKS"]


@dataclass(frozen=True)
class CheckRow:
    check: str
    computed: str
    expected: str

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


def _row(check: str, computed, expected) -> CheckRow:
    return CheckRow(check, str(computed), str(expected))


def corpus() -> dict[str, PfCode]:
    """Every code shipped with the repository, rebuilt from its constructor."""
    return {
        "pf_8_1_3_d3": code_8_1_3_d3(),
        "pf_6_1_3_d7": code_6_1_3_d7(),
        "pf_d6_doubled": double_code_d6(code_8_1_3_d3()),
        "chain_d2_n2": build_clock_chain(2, 2),
        "chain_d3_n4": build_clock_chain(3, 4),
        "chain_d5_n3": build_clock_chain(5, 3),
        "embedded_5_1_3_d3": embed_qudit_code(five_qutrit_code()),
        "toric_p2_l1_a2_b2": build_toric(ToricSpec(2, 1, 2, 2)).code,
        "toric_p2_l1_a2_b3": build_toric(ToricSpec(2, 1, 2, 3)).code,
    }


def check_smallest_d3_code() -> list[CheckRow]:
    code = code_8_1_3_d3()
    flags = validate(code)
    return [
        _row("[[8,1,3]]_3 validation flags", flags.to_dict(), {"abelian": True, "parity_ok": True, "phase_ok": True}),
        _row("[[8,1,3]]_3 k", analyze(code, with_lcon=False).k, 1),
        _row("[[8,1,3]]_3 distance", distance(code).value, 3),
    ]


def check_minimality_search(threads: int = 1) -> list[CheckRow]:
    none_found, cert6 = find_codes(SearchSpec(3, 6, 1, 3, max_hits=0), threads=threads)
    found, cert8 = find_codes(SearchSpec(3, 8, 1, 3, max_hits=1), threads=threads)
    rows = [
        _row("six-mode D=3 exhaustive search hits", len(none_found), 0),
        _row("six-mode search exhausted", cert6.exhausted, True),
        _row("eight-mode D=3 search finds a code", len(found), 1),
    ]
    if found:
        report = analyze(found[0], with_lcon=False)
        rows.append(_row("eight-mode hit parameters (k, d)", (report.k, report.distance.value), (1, 3)))
    return rows


def check_six_mode_d7_code() -> list[CheckRow]:
    code = code_6_1_3_d7()
    report = analyze(code, with_lcon=False)
    return [
        _row("[[6,1,3]]_7 validation", validate(code).all_ok, True),
        _row("[[6,1,3]]_7 (k, d)", (report.k, report.distance.value), (1, 3)),
    ]


def check_d6_doubling() -> list[CheckRow]:
    code6 = double_code_d6(code_8_1_3_d3())
    lx = PfOperator(6, 8, 0, tuple((2 * a) % 6 for a in (2, 1, 1, 0, 0, 0, 1, 0)))
    lz = PfOperator(6, 8, 0, tuple((2 * a) % 6 for a in (0, 2, 2, 0, 0, 1, 0, 0)))
    c = lx.commutation_exponent(lz)
    order, acc = 1, c
    while acc % 6:
        acc = (acc + c) % 6
        order += 1
    return [
        _row("D=6 doubled generator count", len(code6.generators), 7),
        _row("D=6 doubled validation", validate(code6).all_ok, True),
        _row("D=6 doubled codespace dimension", codespace_dim(code6), 3),
        _row("D=6 squared-logical commutation order", order, 3),
    ]


def check_order_dimension_identity() -> list[CheckRow]:
    rows = []
    for name, code in corpus().items():
        total = code.modulus**code.n
        rows.append(
            _row(f"|S| * |C_S| = D^n for {name}", group_order(code) * codespace_dim(code), total)
        )
        if code.modulus**code.n <= DEFAULT_DIM_CAP:
            rep = jw_modes(code.modulus, code.n)
            _, trace = projector(rep, code)
            ok = abs(trace - codespace_dim(code)) < 1e-6
            rows.append(_row(f"projector trace matches |C_S| for {name}", ok, True))
    return rows


def check_qudit_embedding() -> list[CheckRow]:
    q = five_qutrit_code()
    embedded = embed_qudit_code(q)
    report = analyze(embedded, with_lcon=False, with_distance=False)
    return [
        _row("five-qutrit input distance", q.distance(), 3),
        _row("five-qutrit input codespace", q.codespace_dim(), 3),
        _row("embedded code modes", embedded.num_modes, 20),
        _row("embedded code k", report.k, 1),
        _row("embedded code distance", distance(embedded).value, 6),
    ]


def check_css_doubling() -> list[CheckRow]:
    css = double_to_css(code_8_1_3_d3())
    return [
        _row("doubled CSS qudit count", css.num_qudits, 8),
        _row("doubled CSS codespace (k'=2)", css.codespace_dim(), 9),
        _row("doubled CSS rows commute", css.commutes(), True),
    ]


def check_toric_codes() -> list[CheckRow]:
    square = build_toric(ToricSpec(2, 1, 2, 2))
    rect = build_toric(ToricSpec(2, 1, 2, 3))
    square_charges = {op.charge() for op in logical_basis(square.code)}
    rect_charges = {op.charge() for op in logical_basis(rect.code)}
    return [
        _row("toric(2,1,2,2) validation", validate(square.code).all_ok, True),
        _row("toric(2,1,2,2) codespace (k=2)", codespace_dim(square.code), 16),
        _row("toric(2,1,2,2) logical charges", sorted(square_charges), [0]),
        _row("toric(2,1,2,3) codespace (k=2)", codespace_dim(rect.code), 16),
        _row("toric(2,1,2,3) has a charge-2 logical", 2 in rect_charges, True),
    ]


def check_clock_chains() -> list[CheckRow]:
    rows = []
    for modulus in (2, 3, 5):
        for n in (2, 3, 4):
            code = build_clock_chain(modulus, n)
            report = (
                analyze(code, with_lcon=False, with_distance=False).k,
                distance(code).value,
                l_con(code).value,
            )
            rows.append(_row(f"chain D={modulus} n={n} (k, d, l_con)", report, (1, 1, 2 * n)))
    return rows


def check_oracle_suite() -> list[CheckRow]:
    rows = []
    rng = np.random.default_rng(2718)
    for modulus in (2, 3, 4, 5):
        for n in (1, 2, 3):
            if modulus**n > DEFAULT_DIM_CAP:
                continue
            rep = jw_modes(modulus, n)
            rows.append(_row(f"mode relations D={modulus} n={n}", all(relation_report(rep).values()), True))
            mismatches = 0
            for _ in range(1000):
                a = PfOperator(
                    modulus, 2 * n,
                    int(rng.integers(0, 2 * modulus)),
                    tuple(int(x) for x in rng.integers(0, modulus, size=2 * n)),
                )
                b = PfOperator(
                    modulus, 2 * n,
                    int(rng.integers(0, 2 * modulus)),
                    tuple(int(x) for x in rng.integers(0, modulus, size=2 * n)),
                )
                if rep.op_monomial(a) @ rep.op_monomial(b) != rep.op_monomial(a * b):
                    mismatches += 1
            rows.append(_row(f"product homomorphism D={modulus} n={n} (1000 samples)", mismatches, 0))
    code = code_8_1_3_d3()
    rep = jw_modes(3, 4)
    errors = [PfOperator(3, 8, 0, tuple(alpha)) for alpha in _weight_rows(3, 8, 1, 2).tolist()]
    disagreements = sum(syndrome_sim(rep, code, err) != syndrome(code, err) for err in errors)
    rows.append(_row(f"syndrome agreement on {len(errors)} low-weight errors", disagreements, 0))
    return rows


CHECKS = [
    ("smallest D=3 code", check_smallest_d3_code),
    ("minimality search", check_minimality_search),
    ("six-mode D=7 code", check_six_mode_d7_code),
    ("D=6 doubling", check_d6_doubling),
    ("order-dimension identity", check_order_dimension_identity),
    ("qudit embedding", check_qudit_embedding),
    ("CSS doubling", check_css_doubling),
    ("toric construction", check_toric_codes),
    ("clock chains", check_clock_chains),
    ("oracle suite", check_oracle_suite),
]


def run_all_checks(threads: int = 1) -> list[CheckRow]:
    rows: list[CheckRow] = []
    for name, fn in CHECKS:
        if fn is check_minimality_search:
            rows.extend(fn(threads))
        else:
            rows.extend(fn())
    return rows
