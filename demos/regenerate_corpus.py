"""Regenerate every JSON artifact in codes/ from its constructor.

Output is canonical (sorted keys, no timestamps), so rerunning this script
on an unchanged library must leave the directory byte-identical.  Each
shipped search spec ``search_*.json`` comes with ``search_*.cert.json``, the
certificate ``pfstab --threads 1 search <spec> --canonical`` writes for it,
so a change to the search's hits or node counts, or to the randomized
sampling stream, shows up in codes/ too.  Each parafermion code file
``<name>.json`` comes with ``<name>.params.json``, the bytes
``pfstab params <file> --json`` prints for it (the two toric codes, above
the 20-mode limit of the uncapped scans, with ``--max-weight 4
--max-diameter 4``), so d, ``l_con``, their certificates and the logical
bases are pinned too.
"""

import json
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
from pfstab.cli import main as pfstab_main
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
    for path in sorted(OUT.glob("*.json")):
        if "generators" in json.loads(path.read_text()):
            caps = ["--max-weight", "4", "--max-diameter", "4"] if path.name.startswith("toric_") else []
            if pfstab_main(["params", str(path), "--json", "--out", str(OUT / f"{path.stem}.params.json"), *caps]):
                raise SystemExit(f"pfstab params failed on {path.name}")
    for name, spec in [
        ("search_d3_8modes", SearchSpec(3, 8, 1, 3, max_hits=1)),
        ("search_d3_6modes", SearchSpec(3, 6, 1, 3, max_hits=0)),
        ("search_d3_8modes_randomized", SearchSpec(3, 8, 1, 3, mode="randomized", seed=1, samples=2000, max_hits=0)),
        # Even D: half of these hits need a nonzero phase.
        ("search_d2_6modes", SearchSpec(2, 6, 1, 2, max_hits=0)),
        # Composite D, two generators where n - k = 1: dependent tuples, phases by a Z_2D solve.
        ("search_d4_4modes", SearchSpec(4, 4, 1, 2, generator_count=2, max_hits=0)),
        # Composite D without symmetry reduction: spans repeat, so the repeat test sees them in walk order.
        ("search_d8_4modes", SearchSpec(8, 4, 1, 1, generator_count=2, max_hits=0)),
        # Three generators where n - k = 2: dependent tuples, and a budget stop below the root's children.
        ("search_d4_6modes_budget20000", SearchSpec(4, 6, 1, 2, generator_count=3, max_hits=0, max_tuples=20_000)),
        # Two stops between the hits at nodes 177, 179, 181 and 183: they lie below one leaf-parent,
        # and one _leaves call decides them with the other full tuples of its block of leaf-parents.
        ("search_d2_8modes_hits8", SearchSpec(2, 8, 1, 2, max_hits=8)),
        ("search_d2_8modes_budget180", SearchSpec(2, 8, 1, 2, max_hits=0, max_tuples=180)),
        # Four generators, three levels of blocks above the full tuples: a max_hits stop at node 1,390
        # and a budget stop at node 1,501 after 42 hits.
        ("search_d2_10modes_hits40", SearchSpec(2, 10, 1, 2, max_hits=40)),
        ("search_d2_10modes_budget1500", SearchSpec(2, 10, 1, 2, max_hits=0, max_tuples=1_500)),
        # Composite D, two generators and d = 3: the root's children are the leaf-parents, so every
        # weight vector is a prefilter column while only the weight-(< d) ones size a _leaves block.
        ("search_d6_6modes_gc2_budget100000",
         SearchSpec(6, 6, 1, 3, generator_count=2, max_hits=0, max_tuples=100_000)),
        # Composite D, randomized, r > n - k: 9 of its 51 commuting samples are dependent, and the
        # others list each element of their span 1, 2, 4 or 8 times.
        ("search_d4_6modes_randomized_gc3",
         SearchSpec(4, 6, 1, 2, mode="randomized", seed=5, samples=2000, generator_count=3, max_hits=0)),
    ]:
        (OUT / f"{name}.json").write_text(canonical_json(spec.to_dict()))
        _, cert = find_codes(spec, threads=1)
        (OUT / f"{name}.cert.json").write_text(canonical_json(cert.to_dict(canonical=True)))
    print(f"wrote {len(list(OUT.glob('*.json')))} files to {OUT}")


if __name__ == "__main__":
    main()
