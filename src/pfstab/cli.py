"""Command-line interface.

Exit codes: 0 success / valid, 1 invalid code or failed check, 2 usage,
file-format or ``--out`` write error, 3 enumeration budget exceeded or
out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .algebra import PfOperator, parse_operator
from .builders import (
    ToricSpec,
    build_clock_chain,
    build_toric,
    double_code_d6,
    double_to_css,
    embed_qudit_code,
)
from .code import InvalidCodeError, PhaseAssignmentError, analyze, codespace_dim, syndrome, validate
from .codefile import (
    CodeFileError,
    canonical_json,
    code_to_payload,
    load_code,
    load_qudit_code,
    qudit_to_payload,
)
from .oracle import jw_modes, projector, relation_report, syndrome_sim
from .repro import run_all_checks
from .search import BudgetExceededError, SearchSpec, _candidate_count, find_codes

USAGE_ERROR = 2
INVALID_CODE = 1
BUDGET_EXCEEDED = 3


def _emit(args, payload: dict) -> None:
    text = canonical_json(payload)
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CodeFileError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    code, _ = load_code(args.file)
    flags = validate(code)
    print(json.dumps(flags.to_dict()))
    if flags.all_ok:
        return 0
    _print_problems(code, flags)
    return INVALID_CODE


def _print_problems(code, flags) -> None:
    """One ``invalid:`` line on stderr per failed validation condition."""
    problems = []
    if not flags.abelian:
        problems.append("generators do not pairwise commute")
    if not flags.parity_ok:
        for i, g in enumerate(code.generators):
            if g.charge():
                problems.append(
                    f"generator {i + 1} violates parity preservation: "
                    f"exponent sum is {g.charge()} (mod {code.modulus}), expected 0"
                )
    if not flags.phase_ok:
        problems.append("the generated group contains a nontrivial phase times the identity")
    for p in problems:
        print(f"invalid: {p}", file=sys.stderr)


def cmd_params(args) -> int:
    code, _ = load_code(args.file)
    report = analyze(code, max_weight=args.max_weight, max_diameter=args.max_diameter)
    if args.json:
        _emit(args, report.to_dict())
    else:
        print(report.render_table())
    return 0 if report.flags.all_ok else INVALID_CODE


def cmd_syndrome(args) -> int:
    code, _ = load_code(args.file)
    err = parse_operator(args.error, code.modulus, code.num_modes)
    values = syndrome(code, err)
    print(json.dumps({"error": str(err), "syndrome": list(values)}))
    return 0


def cmd_search(args) -> int:
    try:
        payload = json.loads(Path(args.spec).read_text())
        if not isinstance(payload, dict):
            raise ValueError("the spec must be a JSON object")
        spec = SearchSpec.from_dict(payload)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: bad search spec: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(
        f"candidate vectors: {_candidate_count(spec.modulus, spec.num_modes)}; "
        f"raw tuple bound: C(candidates, {spec.generator_count})",
        file=sys.stderr,
    )
    _, cert = find_codes(spec, threads=args.threads)
    _emit(args, cert.to_dict(canonical=args.canonical))
    if cert.budget_exceeded:
        return BUDGET_EXCEEDED
    return 0


def cmd_embed(args) -> int:
    code = embed_qudit_code(load_qudit_code(args.file))
    _emit(args, code_to_payload(code, {"builder": "embed", "parameters": {"source": str(args.file)}}))
    return 0


def cmd_double(args) -> int:
    code, _ = load_code(args.file)
    css = double_to_css(code)
    _emit(args, qudit_to_payload(css, {"builder": "double", "parameters": {"source": str(args.file)}}))
    return 0


def cmd_double_d6(args) -> int:
    code, _ = load_code(args.file)
    doubled = double_code_d6(code)
    _emit(args, code_to_payload(doubled, {"builder": "double-d6", "parameters": {"source": str(args.file)}}))
    return 0


def cmd_toric(args) -> int:
    toric = build_toric(ToricSpec(args.p, args.l, args.a, args.b))
    provenance = {
        "builder": "toric",
        "parameters": {"p": args.p, "l": args.l, "a": args.a, "b": args.b},
    }
    _emit(args, code_to_payload(toric.code, provenance))
    return 0


def cmd_chain(args) -> int:
    code = build_clock_chain(args.D, args.n)
    provenance = {"builder": "chain", "parameters": {"D": args.D, "n": args.n}}
    _emit(args, code_to_payload(code, provenance))
    return 0


def cmd_oracle(args) -> int:
    rep = jw_modes(args.D, args.n)
    rows = [(name, ok) for name, ok in relation_report(rep).items()]
    if args.file:
        code, _ = load_code(args.file)
        if code.modulus != args.D or code.num_modes != 2 * args.n:
            print("error: code file does not match --D/--n", file=sys.stderr)
            return USAGE_ERROR
        flags = validate(code)
        if not flags.all_ok:
            _print_problems(code, flags)
            return INVALID_CODE
        _, trace = projector(rep, code)
        rows.append(("projector trace", abs(trace - codespace_dim(code)) < 1e-6))
        agree = True
        for mode in range(1, code.num_modes + 1):
            err = PfOperator.gamma(code.modulus, code.num_modes, mode)
            agree = agree and syndrome_sim(rep, code, err) == syndrome(code, err)
        rows.append(("syndrome agreement (weight-1 errors)", agree))
    width = max(len(name) for name, _ in rows)
    ok_all = True
    for name, ok in rows:
        ok_all = ok_all and ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok_all else INVALID_CODE


def cmd_repro(args) -> int:
    rows = run_all_checks(threads=args.threads)
    width = max(len(r.check) for r in rows)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.check:<{width}}  computed={r.computed}  expected={r.expected}  {status}")
        failures += 0 if r.passed else 1
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else INVALID_CODE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfstab",
        description="Parafermion stabilizer code toolkit over PF(D, 2n)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker cap for parallel search (default: 1); a certificate depends only on its spec and this count",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a code file against the defining conditions")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("params", help="full report: flags, orders, k, d, l_con, logicals")
    p.add_argument("file")
    p.add_argument("--max-weight", type=int, default=None, help="distance search cap (required above 20 modes)")
    p.add_argument("--max-diameter", type=int, default=None, help="l_con window cap (required above 20 modes)")
    p.add_argument("--json", action="store_true", help="emit the report as canonical JSON")
    p.add_argument("--out", default=None, help="write JSON to a file instead of stdout")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("syndrome", help="syndrome of an error operator against a code")
    p.add_argument("file")
    p.add_argument("--error", required=True, help='operator string, e.g. "g3" or "g2^-1 g3"')
    p.set_defaults(fn=cmd_syndrome)

    p = sub.add_parser("search", help="run a code search from a JSON spec file")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.add_argument("--canonical", action="store_true", help="omit wall time for byte-identical output")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("embed", help="map a qudit stabilizer code file to a parafermion code")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("double", help="build the block CSS qudit code of a parafermion code")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_double)

    p = sub.add_parser("double-d6", help="double a D=3 code into a D=6 code")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_double_d6)

    p = sub.add_parser("toric", help="build the parafermion toric code")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_toric)

    p = sub.add_parser("chain", help="build the clock-model chain code")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("oracle", help="run the dense-representation relation suite")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--file", default=None, help="also check projector trace and syndromes of this code")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("repro-paper", help="run the full verification battery and print a summary table")
    p.set_defaults(fn=cmd_repro)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExceededError, MemoryError) as exc:  # running out of memory is a budget too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return BUDGET_EXCEEDED
    except (InvalidCodeError, PhaseAssignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID_CODE
    except ValueError as exc:  # usage and file-format errors, CodeFileError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
