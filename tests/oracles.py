"""Brute-force reference implementations used as independent test oracles.

Everything here enumerates exhaustively and is guarded by hard size limits;
none of it shares code paths with the library algorithms it cross-checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from pfstab.zmod import ZModMatrix

MAX_ENUM = 600_000


def enumerate_span(m: ZModMatrix) -> set[tuple[int, ...]]:
    """All distinct row-span elements, by trying every coefficient vector."""
    n, r = m.modulus, m.num_rows
    if n**r > MAX_ENUM:
        raise ValueError(f"span enumeration too large: {n}^{r}")
    out = set()
    for coeffs in itertools.product(range(n), repeat=r):
        v = np.zeros(m.num_cols, dtype=np.int64)
        for c, row in zip(coeffs, m.array):
            v = (v + c * row) % n
        out.add(tuple(int(x) for x in v))
    return out


def enumerate_kernel(m: ZModMatrix) -> set[tuple[int, ...]]:
    """All x with x @ M == 0 (mod D), by exhaustive search."""
    n, r = m.modulus, m.num_rows
    if n**r > MAX_ENUM:
        raise ValueError(f"kernel enumeration too large: {n}^{r}")
    out = set()
    for x in itertools.product(range(n), repeat=r):
        v = np.asarray(x, dtype=np.int64)
        if not ((v @ m.array) % n).any():
            out.add(tuple(int(e) for e in v))
    return out


def _all_vectors(modulus: int, length: int):
    if modulus**length > MAX_ENUM:
        raise ValueError(f"vector enumeration too large: {modulus}^{length}")
    return itertools.product(range(modulus), repeat=length)


def _is_centralizing(code, alpha) -> bool:
    from pfstab.algebra import PfOperator

    a = PfOperator(code.modulus, code.num_modes, 0, alpha)
    return all(g.commutation_exponent(a) == 0 for g in code.generators)


def brute_logicals(code):
    """Exponent vectors of all logical operators, by full enumeration."""
    from pfstab.code import stabilizer_matrix
    from pfstab.zmod import span_membership

    smat = stabilizer_matrix(code)
    out = []
    for alpha in _all_vectors(code.modulus, code.num_modes):
        if not any(alpha):
            continue
        if _is_centralizing(code, alpha) and not span_membership(smat, alpha):
            out.append(alpha)
    return out


def brute_distance(code) -> int | None:
    """Minimum logical weight by full enumeration; None when k = 0."""
    logicals = brute_logicals(code)
    if not logicals:
        return None
    return min(sum(1 for e in a if e) for a in logicals)


def brute_lcon(code) -> int | None:
    """Minimum layout diameter of a parity-preserving logical, by enumeration."""
    from pfstab.algebra import PfOperator
    from pfstab.code import support_diameter

    best = None
    for alpha in brute_logicals(code):
        if sum(alpha) % code.modulus:
            continue
        op = PfOperator(code.modulus, code.num_modes, 0, alpha)
        diam = support_diameter(op, code.mode_layout)
        if best is None or diam < best:
            best = diam
    return best


def brute_qudit_distance(modulus: int, num_qudits: int, rows: np.ndarray) -> int | None:
    """Distance of a qudit stabilizer code given (u|v) check rows, brute force.

    An error (u|v) commutes with a row (u', v') iff u.v' == v.u' (mod D).
    """
    n, nq = modulus, num_qudits
    rows = np.asarray(rows, dtype=np.int64)
    u_rows, v_rows = rows[:, :nq], rows[:, nq:]

    def commutes_all(u, v) -> bool:
        return not ((u_rows @ v - v_rows @ u) % n).any()

    def in_span(vec) -> bool:
        from pfstab.zmod import span_membership

        return span_membership(ZModMatrix(n, rows), vec)

    site_ops = [p for p in itertools.product(range(n), repeat=2) if p != (0, 0)]
    for w in range(1, nq + 1):
        for sites in itertools.combinations(range(nq), w):
            for assignment in itertools.product(site_ops, repeat=w):
                u = np.zeros(nq, dtype=np.int64)
                v = np.zeros(nq, dtype=np.int64)
                for site, (a, b) in zip(sites, assignment):
                    u[site], v[site] = a, b
                if commutes_all(u, v) and not in_span(np.concatenate([u, v])):
                    return w
    return None


def reference_distance(code, cap=None) -> tuple[int | None, str | None]:
    """Minimum logical weight and its certificate string, one support at a time.

    The scan order fixes the certificate: weights ascending, supports of one
    weight in colexicographic order, exponent assignments in lexicographic
    order; the first centralizer element outside the stabilizer span wins.
    ``cap`` defaults to the mode count; (None, None) means nothing up to it.
    """
    from pfstab.algebra import PfOperator
    from pfstab.code import commutation_rows, stabilizer_matrix
    from pfstab.zmod import span_membership

    d, m = code.modulus, code.num_modes
    smat = stabilizer_matrix(code)
    rows = commutation_rows(code)
    for weight in range(1, (m if cap is None else cap) + 1):
        assignments = np.array(list(itertools.product(range(1, d), repeat=weight)), dtype=np.int64).T
        for supp in sorted(itertools.combinations(range(m), weight), key=lambda c: c[::-1]):
            cols = list(supp)
            values = (rows[:, cols] @ assignments) % d
            for h in np.nonzero(~values.any(axis=0))[0]:
                vec = np.zeros(m, dtype=np.int64)
                vec[cols] = assignments[:, h]
                if not span_membership(smat, vec):
                    return weight, str(PfOperator(d, m, 0, tuple(int(x) for x in vec)))
    return None, None


def _repeated_product(op, times: int):
    """op multiplied out ``times`` times, one group product at a time."""
    from pfstab.algebra import PfOperator

    out = PfOperator.identity(op.modulus, op.num_modes)
    for _ in range(int(times)):
        out = out * op
    return out


def _product_of_powers(generators, multiplicities):
    from pfstab.algebra import PfOperator

    out = PfOperator.identity(generators[0].modulus, generators[0].num_modes)
    for g, k in zip(generators, multiplicities):
        out = out * _repeated_product(g, k)
    return out


def reference_validate(code):
    """The three validation flags, one generator pair and one group product at a time."""
    from pfstab.code import ValidationFlags, stabilizer_matrix
    from pfstab.zmod import kernel_basis

    gens = code.generators
    abelian = all(
        gens[i].commutation_exponent(gens[j]) == 0 for i in range(len(gens)) for j in range(i + 1, len(gens))
    )
    parity_ok = all(g.charge() == 0 for g in gens)
    phase_ok = all(_repeated_product(g, code.modulus).is_identity() for g in gens)
    if phase_ok and gens:
        for row in kernel_basis(stabilizer_matrix(code)).array:
            if not _product_of_powers(gens, row).is_identity():
                phase_ok = False
                break
    return ValidationFlags(abelian, parity_ok, phase_ok)


def reference_canonical_phases(code):
    """Lexicographically smallest valid phases, with every constraint multiplied out.

    Each D-th power and each kernel relation of the phase-free generators
    is expanded by repeated products; its phase fixes the right-hand side
    of one linear equation in mu over Z_2D.
    """
    from pfstab.algebra import PfOperator
    from pfstab.code import PhaseAssignmentError, stabilizer_matrix
    from pfstab.zmod import ZModMatrix, coset_minimum, kernel_basis, solve_left

    d, m = code.modulus, code.num_modes
    two_d = 2 * d
    gens = code.generators
    for g in gens:
        if not any(g.alpha) and g.mu:
            raise PhaseAssignmentError("a generator is a nontrivial phase times the identity")
    if not gens:
        return code
    bare = [PfOperator(d, m, 0, g.alpha) for g in gens]
    constraints, rhs = [], []
    for i, g in enumerate(bare):
        row = np.zeros(len(gens), dtype=np.int64)
        row[i] = d
        constraints.append(row)
        rhs.append(-_repeated_product(g, d).mu % two_d)
    for kern_row in kernel_basis(stabilizer_matrix(code)).array:
        constraints.append(kern_row % two_d)
        rhs.append(-_product_of_powers(bare, kern_row).mu % two_d)
    system = ZModMatrix(two_d, np.array(constraints, dtype=np.int64).T % two_d)
    particular = solve_left(system, np.array(rhs, dtype=np.int64) % two_d)
    if particular is None:
        raise PhaseAssignmentError("no consistent phase assignment exists")
    mu = coset_minimum(kernel_basis(system), particular)
    return code.with_generators(PfOperator(d, m, int(x), g.alpha) for x, g in zip(mu, gens))
