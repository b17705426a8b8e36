"""The three benchmark workloads: their seeded inputs, operations and expected outputs.

``setup(workload, seed, workdir)`` imports pfstab, builds the workload's
inputs and returns its cases.  A case is one user-visible operation
(one search, one ``distance`` or ``l_con`` query, one code verified, one
oracle check): ``run()`` calls pfstab and returns its output, and
``check(output)`` compares that output with a value fixed in this file or
computed by an independent reference in ``inputs.py``.  Every expected
value below is independent of the seed: remixing the generators keeps
their span, so |S|, k, d with its certificate, l_con and the search hit
keys cannot change.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import inputs as gen

WORKLOADS = ("search", "params", "verify")

EXCLUDED = {
    "distance of toric (2,1,3,3), cap 4": "about 43 s; too long to repeat in every run",
    "search D=5, 6 modes, d=3, all hits": "about 81 s; too long to repeat in every run",
    "search D=3, 8 modes, k=2, all hits": "about 126 s; too long to repeat in every run",
    "--threads scaling": "two shared cores would measure the scheduler, not the program",
    "search D=3, 10 modes": "waits for the incremental search core (ROADMAP item 2)",
}


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    import pfstab.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = pfstab.cli.main(argv)
    return code, out.getvalue()


# -- search -------------------------------------------------------------------

SIX_MODE_SPEC = {"D": 3, "num_modes": 6, "target_k": 1, "target_d": 3, "max_hits": 0}
EIGHT_MODE_KEY = "788b2bf19d54117e41b4174303ecd12a666621fe59a498b86caaaeb0b87b8ba9"
D2_ALL_HITS = (735, "ad76f851cf33c265f9adc909f87eacee444e6ca593fc219cf68e49bce97089a1")
RANDOMIZED_SAMPLES = 20_000


def _search_cases(seed: int, workdir) -> list[Case]:
    import pfstab.search as ps

    oracles = gen.load_test_oracles()
    spec_path = workdir / "search_d3_6modes.json"
    spec_path.write_text(json.dumps(SIX_MODE_SPEC))
    cert_path = workdir / "search_d3_6modes.cert.json"
    random_seed = int(gen.rng_for(seed, "randomized").integers(0, 2**31))

    def six_mode_cli():
        code, _ = _quiet_cli(["--threads", "1", "search", str(spec_path), "--canonical", "--out", str(cert_path)])
        cert = json.loads(cert_path.read_text())
        return code, [h["key"] for h in cert["hits"]], cert["exhausted"]

    def exhaustive(spec):
        def run():
            _, cert = ps.find_codes(spec, threads=1)
            return [h["key"] for h in cert.hits], cert.exhausted
        return run

    def randomized():
        spec = ps.SearchSpec(3, 8, 1, 3, mode="randomized", seed=random_seed, samples=RANDOMIZED_SAMPLES, max_hits=0)
        _, cert = ps.find_codes(spec)
        return [(h["key"], [g["alpha"] for g in h["generators"]]) for h in cert.hits]

    verified: dict[str, bool] = {}

    def check_randomized(hits) -> bool:
        # Each hit must be a distinct [[8,1,3]]_3 code by brute force.
        keys = [key for key, _ in hits]
        for key, alphas in hits:
            if key not in verified:
                verified[key] = gen.brute_k_d(3, 8, alphas, oracles) == (1, 3)
        return len(set(keys)) == len(keys) and all(verified[k] for k in keys)

    return [
        Case("search_d3_6modes_cli", six_mode_cli, lambda out: out == (0, [], True)),
        Case("search_d2_8modes_all", exhaustive(ps.SearchSpec(2, 8, 1, 2, max_hits=0)),
             lambda out: out[1] and (len(out[0]), _sha(out[0])) == D2_ALL_HITS),
        Case("search_d3_8modes_first", exhaustive(ps.SearchSpec(3, 8, 1, 3, max_hits=1)),
             lambda out: out == ([EIGHT_MODE_KEY], False)),
        Case("search_d3_8modes_randomized", randomized, check_randomized),
    ]


# -- params -------------------------------------------------------------------

# name: (builder, distance cap, (d, certificate), (l_con, certificate)).
# d and l_con for the codes on at most 8 modes agree with the brute-force
# oracles of tests/oracles.py (checked by perfbench/tests); the others are
# the values the README and the paper state: d = 6 for the embedded
# five-qutrit code, d = 4 for the toric codes, and "d > 3" (None) for the
# 72-mode toric code at cap 3.
PARAMS_CODES = {
    "pf_8_1_3_d3": ("code_8_1_3_d3", None, (3, "g1 g2 g5^2"), (4, "g4 g5^2 g6 g7^2")),
    "pf_6_1_3_d7": ("code_6_1_3_d7", None, (3, "g1 g2^6 g3^4"), (4, "g1 g2^4 g3^6 g4^3")),
    "pf_d6_doubled": ("d6_doubled", None, (3, "g1 g2 g5^2"), (4, "g4^2 g5 g6^5 g7^4")),
    "chain_d2_n2": ("chain_2_2", None, (1, "g1"), (4, "g1 g4")),
    "chain_d3_n4": ("chain_3_4", None, (1, "g1"), (8, "g1 g8^2")),
    "chain_d5_n3": ("chain_5_3", None, (1, "g1"), (6, "g1 g6^4")),
    "embedded_5_1_3_d3": ("embedded", None, (6, "g1 g2^2 g5 g7^2 g9 g10^2"), (8,
        "g3 g4^2 g6^2 g7^2 g8^2 g9^2 g10")),
    "toric_p2_l1_a2_b2": ("toric_2_2", 4, (4, "g1 g2 g5 g6"), (3,
        "g1 g4^3 g11 g12 g15^3 g16^3 g18^3 g19^3 g20^2")),
    "toric_p2_l1_a2_b3": ("toric_2_3", 4, (4, "g1 g2 g5 g6"), (3, "g9 g11 g14^3 g15^2 g16")),
    "toric_p2_l1_a3_b3": ("toric_3_3", 3, (None, None), (5,
        "g1 g4^3 g15 g16 g19^3 g20^3 g26^3 g28^3 g38 g39 g40^2 g42 g43^3 g46 g47^2 g48^3 g50^3 g51")),
}
# Qudit codes and their distances: the cyclic [[5,1,3]]_3 code, and the
# block CSS double of [[8,1,3]]_3.
QUDIT_CODES = {"five_qutrit": ("five_qutrit", 3), "css_double_8_1_3": ("css_double", 2)}


def _builders():
    """Constructors by name; each looks its pfstab function up when called, so tracing sees it."""
    import pfstab.builders as pb

    return {
        "code_8_1_3_d3": lambda: pb.code_8_1_3_d3(),
        "code_6_1_3_d7": lambda: pb.code_6_1_3_d7(),
        "d6_doubled": lambda: pb.double_code_d6(pb.code_8_1_3_d3()),
        "chain_2_2": lambda: pb.build_clock_chain(2, 2),
        "chain_3_4": lambda: pb.build_clock_chain(3, 4),
        "chain_5_3": lambda: pb.build_clock_chain(5, 3),
        "chain_4_5": lambda: pb.build_clock_chain(4, 5),
        "chain_5_6": lambda: pb.build_clock_chain(5, 6),
        "embedded": lambda: pb.embed_qudit_code(pb.five_qutrit_code()),
        "toric_2_2": lambda: pb.build_toric(pb.ToricSpec(2, 1, 2, 2)).code,
        "toric_2_3": lambda: pb.build_toric(pb.ToricSpec(2, 1, 2, 3)).code,
        "toric_3_3": lambda: pb.build_toric(pb.ToricSpec(2, 1, 3, 3)).code,
        "toric_3_4": lambda: pb.build_toric(pb.ToricSpec(2, 1, 3, 4)).code,
        "five_qutrit": lambda: pb.five_qutrit_code(),
        "css_double": lambda: pb.double_to_css(pb.code_8_1_3_d3()),
    }


def _remixed(code, seed: int, label: str):
    """The seeded remix of a code with its phases solved again."""
    import pfstab.code as pc

    mix = gen.unitriangular_mix(gen.rng_for(seed, label), len(code.generators), code.modulus)
    return pc.canonical_phases(gen.remix_code(code, mix))


def _params_cases(seed: int, workdir) -> list[Case]:
    import pfstab.code as pc

    build = _builders()
    cases = []
    for name, (builder, cap, dist, lcon) in PARAMS_CODES.items():
        code = _remixed(build[builder](), seed, name)

        def run_distance(code=code, cap=cap):
            r = pc.distance(code, max_weight=cap)
            return r.value, str(r.certificate) if r.certificate else None

        def run_lcon(code=code):
            r = pc.l_con(code)
            return r.value, str(r.certificate) if r.certificate else None

        cases.append(Case(f"distance:{name}", run_distance, lambda out, want=dist: out == want))
        cases.append(Case(f"l_con:{name}", run_lcon, lambda out, want=lcon: out == want))
    for name, (builder, want) in QUDIT_CODES.items():
        q = build[builder]()
        mix = gen.unitriangular_mix(gen.rng_for(seed, name), len(q.rows), q.modulus)
        q = gen.remix_qudit(q, mix)
        cases.append(Case(f"qudit_distance:{name}", lambda q=q: q.distance(), lambda out, want=want: out == want))
    return cases


# -- verify -------------------------------------------------------------------

# name: (builder, |S|, |C_S|, sha256 of the logical basis).  |C_S| = D^k with
# k from the README and the paper; |S| = D^n / |C_S|.  The logical basis is a
# canonical function of the stabilizer span (Howell rows reduced to coset
# minima), so it cannot depend on the seed.
VERIFY_CODES = {
    "pf_8_1_3_d3": ("code_8_1_3_d3", 27, 3,
        "9f7862b3e36cba82c12a28d55ff19b60630a05bc609a89e8526d80728a717d23"),
    "pf_6_1_3_d7": ("code_6_1_3_d7", 49, 7,
        "dc3696461e0ae79b2c695a19eb63299db36108e3b55ae60787f1e4da9fedb00f"),
    "pf_d6_doubled": ("d6_doubled", 432, 3,
        "9a537b5ff232c00d1cfae304e88bb19c8401d1f9e281c0478972636414e762c2"),
    "chain_d3_n4": ("chain_3_4", 27, 3,
        "6cc0baea29af9e02b349588f140a41ef6240378c790716de931bc2f3d85c9d02"),
    "chain_d4_n5": ("chain_4_5", 256, 4,
        "0738f28557d668928d6b2e63e42796c6717eea9ca2b5e0173de9620308023aaf"),
    "chain_d5_n6": ("chain_5_6", 3125, 5,
        "d69f2e5766e4b99a92e9571653bd5a964cfeeeb232110ba8feab1df124ca6bde"),
    "embedded_5_1_3_d3": ("embedded", 19683, 3,
        "827554735dc8d7668ecfbf7e24d2e0f7b5feb975dd30af464d421d0611460a2f"),
    "toric_p2_l1_a2_b2": ("toric_2_2", 4**16 // 16, 16,
        "61cff66f5a4e6ebd474e70d7f4f6d55fae2bc503ab4a8c53d5e33b7491e8e4a2"),
    "toric_p2_l1_a2_b3": ("toric_2_3", 4**24 // 16, 16,
        "6094962936b1cd6110d3ee597ea1cc606cd849ffdc4d8bc0d2f7c761a04a6d57"),
    "toric_p2_l1_a3_b3": ("toric_3_3", 4**36 // 16, 16,
        "41bb607b49e02b47af5f47ffe5574343ec2def4dff011c144df2eb3bba6151b9"),
    "toric_p2_l1_a3_b4": ("toric_3_4", 4**48 // 16, 16,
        "b3dcdfc51a010716a0d25df5b1cd66fe6e2bc5d1636fd721d3cd50d092ce9d2c"),
}
# The block CSS double of [[8,1,3]]_3 encodes k' = 2 qutrits on 8 qudits.
CSS_DOUBLE = (3**8 // 9, 9)
# (D, n) of each dense Jordan-Wigner representation whose product
# homomorphism is checked on seeded operator pairs.
HOMOMORPHISM_REPS = ((2, 3), (3, 3), (4, 3), (5, 3), (3, 4), (7, 3), (6, 4), (2, 5))
HOMOMORPHISM_PAIRS = 200
PROJECTOR_CODES = ("pf_8_1_3_d3", "pf_6_1_3_d7", "pf_d6_doubled", "chain_d3_n4", "chain_d4_n5")
SYNDROME_SIM_CODES = ("pf_8_1_3_d3", "pf_6_1_3_d7", "chain_d3_n4")
ERRORS_PER_CODE = 8


def _verify_cases(seed: int, workdir) -> list[Case]:
    import pfstab.algebra as pa
    import pfstab.builders as pb
    import pfstab.code as pc
    import pfstab.codefile as pf
    import pfstab.oracle as po

    build = _builders()
    cases = []
    remixed = {}
    for name, (builder, order, dim, logical_sha) in VERIFY_CODES.items():
        code = build[builder]()
        d, m = code.modulus, code.num_modes
        rng = gen.rng_for(seed, name)
        mix = gen.unitriangular_mix(rng, len(code.generators), d)
        errors = gen.random_errors(rng, d, m, ERRORS_PER_CODE, 3)
        rows = gen.remixed_rows([g.alpha for g in code.generators], mix, d)
        want_syndromes = [gen.reference_syndrome(rows, e, d) for e in errors]
        remixed[name] = (pc.canonical_phases(gen.remix_code(code, mix)), dim, want_syndromes, errors)
        path = workdir / f"verify_{name}.json"

        def run(builder=build[builder], mix=mix, errors=errors, path=path):
            fixed = pc.canonical_phases(gen.remix_code(builder(), mix))
            flags = pc.validate(fixed)
            out = {
                "valid": flags.all_ok,
                "order": pc.group_order(fixed),
                "dim": pc.codespace_dim(fixed),
                "logicals": _sha(str(op) for op in pc.logical_basis(fixed)),
                "syndromes": [pc.syndrome(fixed, pa.PfOperator(fixed.modulus, fixed.num_modes, 0, e)) for e in errors],
            }
            pf.save_code(path, fixed)
            loaded, _ = pf.load_code(path)
            out["round_trip"] = loaded == fixed and loaded.mode_layout == fixed.mode_layout
            out["cli_validate"] = _quiet_cli(["validate", str(path)])
            return out

        want = {
            "valid": True, "order": order, "dim": dim, "logicals": logical_sha,
            "syndromes": want_syndromes, "round_trip": True,
            "cli_validate": (0, json.dumps({"abelian": True, "parity_ok": True, "phase_ok": True}) + "\n"),
        }
        cases.append(Case(f"verify:{name}", run, lambda out, want=want: out == want))

    css_rows = len(build["css_double"]().rows)
    css_mix = gen.unitriangular_mix(gen.rng_for(seed, "css_double"), css_rows, 3)

    def css_double():
        css = gen.remix_qudit(pb.double_to_css(pb.code_8_1_3_d3()), css_mix)
        return css.commutes(), css.group_order(), css.codespace_dim()

    cases.append(Case("verify:css_double_8_1_3", css_double, lambda out: out == (True, *CSS_DOUBLE)))

    for d, n in HOMOMORPHISM_REPS:
        pairs = gen.random_pairs(gen.rng_for(seed, f"pairs_{d}_{n}"), d, 2 * n, HOMOMORPHISM_PAIRS)

        def homomorphism(d=d, n=n, pairs=pairs):
            rep = po.jw_modes(d, n)
            mismatches = 0
            for (mu_a, a), (mu_b, b) in pairs:
                x = pa.PfOperator(d, 2 * n, mu_a, a)
                y = pa.PfOperator(d, 2 * n, mu_b, b)
                mismatches += rep.op_monomial(x) @ rep.op_monomial(y) != rep.op_monomial(x * y)
            return mismatches

        cases.append(Case(f"homomorphism:D{d}_n{n}", homomorphism, lambda out: out == 0))

    for name in PROJECTOR_CODES:
        fixed, dim, _, _ = remixed[name]

        def trace(fixed=fixed):
            return po.projector(po.jw_modes(fixed.modulus, fixed.n), fixed)[1]

        cases.append(Case(f"projector:{name}", trace, lambda out, dim=dim: abs(out - dim) < 1e-6))

    for name in SYNDROME_SIM_CODES:
        fixed, _, want_syndromes, errors = remixed[name]

        def simulate(fixed=fixed, errors=errors):
            rep = po.jw_modes(fixed.modulus, fixed.n)
            return [po.syndrome_sim(rep, fixed, pa.PfOperator(fixed.modulus, fixed.num_modes, 0, e)) for e in errors]

        cases.append(Case(f"syndrome_sim:{name}", simulate, lambda out, want=want_syndromes: out == want))
    return cases


def setup(workload: str, seed: int, workdir) -> list[Case]:
    """Import pfstab and build the workload's seeded inputs; returns its cases."""
    import pfstab  # noqa: F401  (the import is part of set-up time)

    workdir.mkdir(parents=True, exist_ok=True)
    return {"search": _search_cases, "params": _params_cases, "verify": _verify_cases}[workload](seed, workdir)
