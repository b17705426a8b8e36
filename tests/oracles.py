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
    """Distance of a qudit stabilizer code given (u|v) check rows, by full enumeration.

    Every error (u|v) in Z_D^(2n) is listed; it commutes with a row (u', v')
    iff u.v' == v.u' (mod D), and it is logical iff it commutes with every
    row and is none of the D^r combinations of the rows.  Returns the least
    site weight of a logical error, or None when there is none.
    """
    n, nq = modulus, num_qudits
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2 * nq)
    if n ** (2 * nq) > MAX_ENUM:
        raise ValueError(f"vector enumeration too large: {n}^{2 * nq}")
    errors = (np.arange(n ** (2 * nq))[:, None] // n ** np.arange(2 * nq)) % n
    u, v = errors[:, :nq], errors[:, nq:]
    commuting = ~((u @ rows[:, nq:].T - v @ rows[:, :nq].T) % n).any(axis=1)
    combos = (np.arange(n ** len(rows))[:, None] // n ** np.arange(len(rows))) % n
    place = n ** np.arange(2 * nq)
    logical = commuting & ~np.isin(errors @ place, ((combos @ rows) % n) @ place)
    weights = ((u != 0) | (v != 0)).sum(axis=1)
    return int(weights[logical].min()) if logical.any() else None


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


def reference_lcon(code, max_diameter=None) -> tuple[int | None, str | None, int | None]:
    """(value, certificate string, cap) of ``l_con``, one window kernel at a time.

    Windows are scanned by side length, then corner in lexicographic order;
    each window's parity-zero centralizer gets a Howell kernel basis, and
    the first kernel row outside the stabilizer span is the certificate.  A
    window met before held no logical and is skipped.  (This is the scan
    ``l_con`` ran before it decided windows by a batched span test.)
    """
    from pfstab.algebra import PfOperator
    from pfstab.code import _check_cap, _layout_coords, _require_valid, support_diameter
    from pfstab.zmod import _reduce_against, kernel_basis

    _check_cap("max_diameter", max_diameter)
    basis = _require_valid(code)
    d, m = code.modulus, code.num_modes
    coords = _layout_coords(code)
    anchors = [np.unique(column) for column in coords.T]
    diameter_bound = int((coords.max(axis=0) - coords.min(axis=0)).max()) + 1
    cap = None
    if max_diameter is not None and max_diameter < diameter_bound:
        diameter_bound = cap = max_diameter
    rows = code._comm_rows
    seen_windows: set[frozenset] = set()  # a window met at a smaller side held no logical
    for side in range(1, diameter_bound + 1):
        for corner in itertools.product(*anchors):
            modes = np.flatnonzero(((coords >= corner) & (coords < np.add(corner, side))).all(axis=1))
            if modes.size == 0:
                continue
            key = frozenset(int(x) for x in modes)
            if key in seen_windows:
                continue
            seen_windows.add(key)
            constraint = np.vstack([rows[:, modes], np.ones((1, modes.size), dtype=np.int64)])
            kern = kernel_basis(ZModMatrix(d, constraint.T % d))
            for row in kern.array:
                vec = np.zeros(m, dtype=np.int64)
                vec[modes] = row
                if _reduce_against(basis, vec, d).any():
                    op = PfOperator(d, m, 0, tuple(int(x) for x in vec))
                    return support_diameter(op, code.mode_layout), str(op), cap
    return None, None, cap


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

    Only the candidates are shared with the batched engine; the walk, the
    commutation masks (``lambda_matrix`` products reduced by ``%``), the
    canonical test (the minimum over the coset rows span + c*g,
    c = 1 .. D-1, not the engine's pivot-column test), span growth, node
    counting, the span-size and repeated-span checks, both prefilters
    (``lambda_matrix`` products with every vector of Z_D^m of the weight,
    ``np.isin`` over span codes) and the acceptance test (a fresh code
    phased by ``canonical_phases`` and keyed by its Howell form of [S | I])
    are the per-node ones.
    """
    from pfstab import search
    from pfstab.algebra import PfOperator, lambda_matrix
    from pfstab.code import PfCode, PhaseAssignmentError, canonical_phases

    class ReferenceEngine(search._Engine):
        def __init__(self, spec):
            super().__init__(spec)
            d, m = spec.modulus, spec.num_modes
            vectors = np.array(list(_all_vectors(d, m)), dtype=np.int64)
            weight = np.count_nonzero(vectors, axis=1)
            self.low_vectors = vectors[(weight > 0) & (weight < spec.target_d)]
            self.exact_vectors = vectors[weight == spec.target_d]
            self.lam = lambda_matrix(d, m).array
            self.pair_rows = (self.cand @ self.lam) % d
            self.codes = self.cand @ self.place  # ascending, as the candidates are sorted
            self.coset_multiples = np.arange(1, d, dtype=np.int64)[:, None, None]

        def _zero_span(self):
            return np.zeros((1, self.spec.num_modes), dtype=np.int64), np.zeros(1, dtype=np.int64)

        def _comm_mask(self, i):
            return ((self.pair_rows[i] @ self.cand.T) % self.spec.modulus) == 0

        def _coset(self, span, i):
            rows = ((span[None, :, :] + self.coset_multiples * self.cand[i]) % self.spec.modulus).reshape(-1, span.shape[1])
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
            low_clear = self._central_in_span_codes(chosen, self.low_vectors, codes).all()
            if low_clear and not self._central_in_span_codes(chosen, self.exact_vectors, codes).all():
                self._accept(chosen, codes)

        def _accept(self, chosen, codes):
            spec = self.spec
            d, m = spec.modulus, spec.num_modes
            code = PfCode(d, m, tuple(PfOperator(d, m, 0, self.cand[i].tolist()) for i in chosen))
            try:
                code = canonical_phases(code)
            except PhaseAssignmentError:
                return
            key = search.canonical_equivalence_key(code)
            self.hits.append((self.nodes, key, code))
            if spec.max_hits and len(self.hits) >= spec.max_hits:
                self.stopped = True

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

        def _central_in_span_codes(self, chosen, vectors, codes):
            """Span membership of each of ``vectors`` that commutes with every chosen generator."""
            pairs = self.cand[chosen] @ self.lam @ vectors.T
            central = vectors[~(pairs % self.spec.modulus).any(axis=0)]
            return np.isin(central @ self.place, codes)

    return ReferenceEngine


def reference_floyd_sample(bits, count: int, r: int) -> list[int]:
    """One sorted r-subset of range(count) by Floyd's algorithm, in Python ints.

    Reads the next r raw words of the PCG64 ``bits``; word t picks
    word mod (j + 1) for j = count - r + t, or j when that pick is taken.
    """
    picks: list[int] = []
    for t, word in enumerate(bits.random_raw(r).tolist()):
        j = count - r + t
        x = word % (j + 1)
        picks.append(j if x in picks else x)
    return sorted(picks)


def reference_search(spec) -> dict:
    """Hits as (node, key), tuples examined and stop flags of a one-node-at-a-time search.

    Exhaustive mode runs the per-child recursion serially over every first
    generator (composite D without symmetry reduction, as ``find_codes``
    does); randomized mode draws and tests one sample at a time, each by a
    scalar Floyd draw (``reference_floyd_sample``).
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
        bits = np.random.PCG64(spec.seed)
        examined = 0
        for _ in range(spec.samples):
            examined += 1
            idx = reference_floyd_sample(bits, engine.count, spec.generator_count)
            if ((engine.pair_rows[idx] @ engine.cand[idx].T) % spec.modulus).any():
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


# -- product-built constructions ------------------------------------------------
#
# pfstab.builders computes the generators' exponent rows directly.  These build
# the same constructions by multiplying phase-tracked operators, one factor at
# a time, so each generator carries the phase of its product, not a canonical
# one.


def _operator_product(ops, modulus: int, num_modes: int):
    from pfstab.algebra import PfOperator

    out = PfOperator.identity(modulus, num_modes)
    for op in ops:
        out = out * op
    return out


def _site_operators(modulus: int, num_modes: int, site: int, x_exp: int):
    """(Z-like, X-like) pair g_1^{x_exp} g_2 and g_1^{x_exp} g_3 on one qudit site."""
    from pfstab.algebra import PfOperator

    base = 4 * site + 1
    z = PfOperator.from_factors(modulus, num_modes, [(base, x_exp), (base + 1, 1)])
    x = PfOperator.from_factors(modulus, num_modes, [(base, x_exp), (base + 2, 1)])
    return z, x


def _site_stabilizers(modulus: int, num_modes: int, middle: int) -> list:
    """g_1^-1 g_2^middle g_3^-middle g_4 on each four-mode site."""
    from pfstab.algebra import PfOperator

    return [
        PfOperator.from_factors(modulus, num_modes, [(base, -1), (base + 1, middle), (base + 2, -middle), (base + 3, 1)])
        for base in range(1, num_modes, 4)
    ]


def reference_clock_chain(modulus: int, n: int):
    """The clock chain's generators g_{2j}^dag g_{2j+1}, multiplied out."""
    from pfstab.algebra import PfOperator
    from pfstab.code import PfCode

    gens = [PfOperator.from_factors(modulus, 2 * n, [(2 * j, -1), (2 * j + 1, 1)]) for j in range(1, n)]
    return PfCode(modulus, 2 * n, tuple(gens))


def reference_embedding(q):
    """The qudit embedding: site stabilizers, then prod over sites of X~^u Z~^v per check row."""
    from pfstab.code import PfCode

    d, nq = q.modulus, q.num_qudits
    m = 4 * nq
    gens = _site_stabilizers(d, m, 1)
    pairs = [_site_operators(d, m, site, d - 1) for site in range(nq)]
    for row in q.rows:
        factors = []
        for site, (z_like, x_like) in enumerate(pairs):
            factors += [x_like.power(row[site]), z_like.power(row[nq + site])]
        gens.append(_operator_product(factors, d, m))
    return PfCode(d, m, tuple(gens))


def reference_double_d6(code3):
    """Mode-pair cubes g_{2j-1}^3 g_{2j}^3, then the D=3 generators' exponents doubled into Z_6."""
    from pfstab.algebra import PfOperator
    from pfstab.code import PfCode

    m = code3.num_modes
    gens = [PfOperator.from_factors(6, m, [(2 * j + 1, 3), (2 * j + 2, 3)]) for j in range(code3.n)]
    gens += [PfOperator(6, m, 0, tuple(2 * a for a in g.alpha)) for g in code3.generators]
    return PfCode(6, m, tuple(gens))


def reference_toric(spec):
    """(code, stars, plaquettes, logicals) of the toric construction, each a product of site operators."""
    from pfstab.code import PfCode

    d, r, a, b = spec.modulus, spec.half_power, spec.a, spec.b
    nq = 2 * a * b
    m = 4 * nq

    def h_edge(x, y):
        return (y % b) * 2 * a + (x % a)

    def v_edge(x, y):
        return (y % b) * 2 * a + a + (x % a)

    pairs = [_site_operators(d, m, site, r - 1) for site in range(nq)]

    def signed(site: int, sign: int, which: int):
        op = pairs[site][which]
        return op if sign > 0 else op.inverse()

    def product(*terms, which: int):
        return _operator_product([signed(site, sign, which) for site, sign in terms], d, m)

    cells = [(x, y) for y in range(b) for x in range(a)]
    stars = [
        product((h_edge(x, y), 1), (h_edge(x - 1, y), -1), (v_edge(x, y), 1), (v_edge(x, y - 1), -1), which=1)
        for x, y in cells
    ]
    plaquettes = [
        product((h_edge(x, y), 1), (h_edge(x, y + 1), -1), (v_edge(x, y), -1), (v_edge(x + 1, y), 1), which=0)
        for x, y in cells
    ]
    logicals = {
        "horizontal_z": product(*[(h_edge(x, 0), 1) for x in range(a)], which=0),
        "vertical_z": product(*[(v_edge(0, y), 1) for y in range(b)], which=0),
        "horizontal_x": product(*[(v_edge(x, 0), 1) for x in range(a)], which=1),
        "vertical_x": product(*[(h_edge(0, y), 1) for y in range(b)], which=1),
    }
    gens = _site_stabilizers(d, m, r + 1) + stars[:-1] + plaquettes[:-1]
    return PfCode(d, m, tuple(gens)), stars, plaquettes, logicals
