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


def _reference_group_elements(code, cap: int):
    """Closure of the generator set under PfOperator products, phases included."""
    from pfstab.algebra import PfOperator

    elements = {PfOperator.identity(code.modulus, code.num_modes)}
    frontier = list(elements)
    while frontier:
        new = []
        for e in frontier:
            for g in code.generators:
                x = e * g
                if x not in elements:
                    if len(elements) >= cap:
                        raise ValueError(f"group enumeration exceeded the cap {cap}")
                    elements.add(x)
                    new.append(x)
        frontier = new
    return sorted(elements, key=lambda e: (e.alpha, e.mu))


def reference_projector(rep, code, cap: int = 100_000):
    """P = (1/|S|) sum_s M_s and its trace, one dense monomial per group element."""
    from pfstab.code import validate

    if not validate(code).all_ok:
        raise ValueError("projector requires a code whose validation flags are all true")
    elements = _reference_group_elements(code, cap)
    p = np.zeros((rep.dim, rep.dim), dtype=complex)
    idx = np.arange(rep.dim)
    for e in elements:
        mono = rep.op_monomial(e)
        p[mono.perm, idx] += mono.roots()[mono.phase]
    p /= len(elements)
    return p, float(np.trace(p).real)


def reference_codewords(rep, code, cap: int = 100_000):
    """Orthonormal codespace basis: the eigenvalue-1 eigenvectors of the dense projector."""
    p, trace = reference_projector(rep, code, cap=cap)
    vals, vecs = np.linalg.eigh(p)
    keep = vals > 0.5
    if int(round(trace)) != int(keep.sum()):
        raise ValueError("projector trace does not match its eigenvalue-1 multiplicity")
    return vecs[:, keep]


def _reference_engine_class():
    """``search._Engine`` walking one node at a time: the per-child recursion it replaced.

    Only the tables built in ``__init__`` and ``_accept`` are shared with the
    batched engine; the walk, the coset test, span growth, node counting,
    the span-size and repeated-span checks and both prefilters (``np.isin``
    over span codes) are the per-node ones.
    """
    from pfstab import search

    class ReferenceEngine(search._Engine):
        def __init__(self, spec):
            super().__init__(spec)
            d, m = spec.modulus, spec.num_modes
            self.low_codes = search._weight_vectors(d, m, 1, spec.target_d - 1) @ self.place
            self.exact_codes = search._weight_vectors(d, m, spec.target_d, spec.target_d) @ self.place

        def _coset(self, span, i):
            rows = ((span[None, :, :] + self.multiples * self.cand[i]) % self.spec.modulus).reshape(-1, span.shape[1])
            return rows, rows @ self.place

        def _grow(self, span, codes, coset, coset_codes):
            rows = np.vstack((span, coset))
            all_codes = np.concatenate((codes, coset_codes))
            if self.prime:
                return rows, all_codes
            all_codes, first = np.unique(all_codes, return_index=True)
            return rows[first], all_codes

        def _leaf(self, chosen, codes):
            spec = self.spec
            if len(codes) * spec.modulus**spec.target_k != spec.modulus ** (spec.num_modes // 2):
                return  # |S| = D^(n-k)
            if spec.mode == "randomized" or not spec.symmetry_reduction:
                key = tuple(sorted(codes.tolist()))
                if key in self.seen_spans:
                    return
                self.seen_spans.add(key)
            if self._low_weight_clear(chosen, codes) and self._has_exact_weight_logical(chosen, codes):
                self._accept(chosen)

        def run(self, first_lo=0, first_hi=None):
            first_hi = self.count if first_hi is None else first_hi
            span, codes = self._zero_span()
            for i in range(first_lo, first_hi):
                self._visit([], None, span, codes, i)
                if self.stopped:
                    return

        def _visit(self, chosen, comm_ok, span, codes, j):
            spec = self.spec
            self.nodes += 1
            if self.nodes > spec.max_tuples:
                raise search.BudgetExceededError(f"tuple budget {spec.max_tuples} exceeded")
            coset, coset_codes = self._coset(span, j)
            if spec.symmetry_reduction and coset_codes.min() != self.codes[j]:
                return
            chosen = chosen + [j]
            span, codes = self._grow(span, codes, coset, coset_codes)
            if len(chosen) == spec.generator_count:
                self._leaf(chosen, codes)
                return
            comm_ok = self._comm_mask(j) if comm_ok is None else comm_ok & self._comm_mask(j)
            comm_ok[np.searchsorted(self.codes, codes[1:])] = False
            for k in np.nonzero(comm_ok[j + 1 :])[0] + (j + 1):
                if self.stopped:
                    return
                self._visit(chosen, comm_ok, span, codes, int(k))

        def _low_weight_clear(self, chosen, codes):
            central = self.low_ok[chosen].all(axis=0)
            return bool(np.isin(self.low_codes[central], codes).all())

        def _has_exact_weight_logical(self, chosen, codes):
            central = self.exact_ok[chosen].all(axis=0)
            return not np.isin(self.exact_codes[central], codes).all()

    return ReferenceEngine


def reference_search(spec) -> dict:
    """Hits as (node, key), tuples examined and stop flags of a one-node-at-a-time search.

    Exhaustive mode runs the per-child recursion serially over every first
    generator (composite D without symmetry reduction, as ``find_codes``
    does); randomized mode draws and tests one sample at a time.
    """
    from pfstab import search

    if spec.mode == "exhaustive" and spec.symmetry_reduction and not search._is_prime(spec.modulus):
        spec = search.SearchSpec.from_dict({**spec.to_dict(), "symmetry_reduction": False})
    engine = _reference_engine_class()(spec)
    budget = False
    if spec.mode == "exhaustive":
        try:
            engine.run()
        except search.BudgetExceededError:
            budget = True
        examined = engine.nodes
    else:
        rng = np.random.default_rng(spec.seed)
        examined = 0
        for _ in range(spec.samples):
            examined += 1
            idx = sorted(int(x) for x in rng.choice(engine.count, spec.generator_count, replace=False))
            if ((engine.pairing[idx] @ engine.cand[idx].T) % spec.modulus).any():
                continue
            span, span_codes = engine._zero_span()
            for i in idx:
                if engine.codes[i] in span_codes:
                    break  # dependent tuple
                span, span_codes = engine._grow(span, span_codes, *engine._coset(span, i))
            else:
                engine._leaf(idx, span_codes)
            if engine.stopped:
                break
    return {
        "hits": [(node, key) for node, key, _ in engine.hits],
        "tuples_examined": examined,
        "budget_exceeded": budget,
        "stopped": engine.stopped,
    }
