"""Regenerate every JSON artifact in codes/ from its constructor.

Output is canonical (sorted keys, no timestamps), so rerunning this script
on an unchanged library must leave the directory byte-identical.  Each
shipped search spec ``search_*.json`` comes with ``search_*.cert.json``, the
certificate ``pfstab --threads 1 search <spec> --canonical`` writes for it,
so a change to the search's hits or node counts, or to the randomized
sampling stream, shows up in codes/ too.
"""

from pathlib import Path

from pfstab import (
    SearchSpec,
    ToricSpec,
    build_clock_chain,
    build_toric,
    code_6_1_3_d7,
    code_8_1_3_d3,
    double_code_d6,
    embed_qudit_code,
    find_codes,
    five_qutrit_code,
    save_code,
    save_qudit_code,
)
from pfstab.codefile import canonical_json

OUT = Path(__file__).resolve().parent.parent / "codes"


def main() -> None:
    OUT.mkdir(exist_ok=True)

    save_code(OUT / "pf_8_1_3_d3.json", code_8_1_3_d3(), {"builder": "code_8_1_3_d3", "parameters": {}})
    save_code(OUT / "pf_6_1_3_d7.json", code_6_1_3_d7(), {"builder": "code_6_1_3_d7", "parameters": {}})
    save_code(
        OUT / "pf_d6_doubled.json",
        double_code_d6(code_8_1_3_d3()),
        {"builder": "double-d6", "parameters": {"source": "pf_8_1_3_d3"}},
    )
    for modulus, n in [(2, 2), (3, 4), (5, 3)]:
        save_code(
            OUT / f"chain_d{modulus}_n{n}.json",
            build_clock_chain(modulus, n),
            {"builder": "chain", "parameters": {"D": modulus, "n": n}},
        )
    qudit = five_qutrit_code()
    save_qudit_code(OUT / "qudit_5_1_3_d3.json", qudit, {"builder": "five_qutrit_code", "parameters": {"D": 3}})
    save_code(
        OUT / "embedded_5_1_3_d3.json",
        embed_qudit_code(qudit),
        {"builder": "embed", "parameters": {"source": "qudit_5_1_3_d3"}},
    )
    for a, b in [(2, 2), (2, 3)]:
        toric = build_toric(ToricSpec(2, 1, a, b))
        save_code(
            OUT / f"toric_p2_l1_a{a}_b{b}.json",
            toric.code,
            {"builder": "toric", "parameters": {"p": 2, "l": 1, "a": a, "b": b}},
        )
    for name, spec in [
        ("search_d3_8modes", SearchSpec(3, 8, 1, 3, max_hits=1)),
        ("search_d3_6modes", SearchSpec(3, 6, 1, 3, max_hits=0)),
        ("search_d3_8modes_randomized", SearchSpec(3, 8, 1, 3, mode="randomized", seed=1, samples=2000, max_hits=0)),
        # Even D: half of these hits need a nonzero phase.
        ("search_d2_6modes", SearchSpec(2, 6, 1, 2, max_hits=0)),
        # Composite D, two generators where n - k = 1: dependent tuples, phases by a Z_2D solve.
        ("search_d4_4modes", SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0)),
        # Two stops inside one leaf block: the hits at nodes 177, 179, 181 and 183 share it.
        ("search_d2_8modes_hits8", SearchSpec(2, 8, 1, 2, max_hits=8)),
        ("search_d2_8modes_budget180", SearchSpec(2, 8, 1, 2, max_hits=0, max_tuples=180)),
    ]:
        (OUT / f"{name}.json").write_text(canonical_json(spec.to_dict()))
        _, cert = find_codes(spec, threads=1)
        (OUT / f"{name}.cert.json").write_text(canonical_json(cert.to_dict(canonical=True)))
    print(f"wrote {len(list(OUT.glob('*.json')))} files to {OUT}")


if __name__ == "__main__":
    main()
