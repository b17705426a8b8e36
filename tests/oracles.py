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
