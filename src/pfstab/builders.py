"""Code constructors and converters between qudit and parafermion codes.

Builders return codes that already pass full validation (phases are solved
with :func:`pfstab.code.canonical_phases`); a construction that cannot be
validated raises instead of returning a broken object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import PfOperator, lambda_matrix
from .code import InvalidCodeError, PfCode, _first_logical, canonical_phases, is_logical, validate
from .zmod import ZModMatrix, _howell_basis, _is_prime, span_order

__all__ = [
    "QuditCheckMatrix",
    "ToricSpec",
    "ToricCode",
    "build_clock_chain",
    "embed_qudit_code",
    "double_to_css",
    "double_code_d6",
    "build_toric",
    "five_qutrit_code",
    "code_8_1_3_d3",
    "code_6_1_3_d7",
]


@dataclass(frozen=True)
class QuditCheckMatrix:
    """Check rows (u | v) over Z_D, one per stabilizer generator w^l X^u Z^v."""

    modulus: int
    num_qudits: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(e) % self.modulus for e in r) for r in self.rows)
        for r in rows:
            if len(r) != 2 * self.num_qudits:
                raise ValueError("each row must have 2 * num_qudits entries")
        object.__setattr__(self, "rows", rows)

    def x_part(self, row: int) -> np.ndarray:
        return np.asarray(self.rows[row][: self.num_qudits], dtype=np.int64)

    def z_part(self, row: int) -> np.ndarray:
        return np.asarray(self.rows[row][self.num_qudits :], dtype=np.int64)

    def commutes(self) -> bool:
        """u.v' == v.u' (mod D) for every pair of rows."""
        for i in range(len(self.rows)):
            for j in range(i + 1, len(self.rows)):
                lhs = int(self.x_part(i) @ self.z_part(j)) % self.modulus
                rhs = int(self.z_part(i) @ self.x_part(j)) % self.modulus
                if lhs != rhs:
                    return False
        return True

    def matrix(self) -> ZModMatrix:
        return ZModMatrix.from_rows(self.modulus, self.rows, cols=2 * self.num_qudits)

    def group_order(self) -> int:
        return span_order(self.matrix())

    def codespace_dim(self) -> int:
        total = self.modulus**self.num_qudits
        order = self.group_order()
        if total % order:
            raise ValueError(f"D^n = {total} not divisible by the row-span order {order}")
        return total // order

    def distance(self, max_weight: int | None = None) -> int | None:
        """Minimum weight of a logical Weyl error; None when nothing logical exists.

        An error (u|v) is undetected iff u.v_r == v.u_r (mod D) against every
        row r; it is logical if additionally (u|v) is outside the row span.
        Sites are scanned like parafermion modes in :func:`pfstab.code.distance`,
        with the D^2 - 1 site operators (a, b) != (0, 0) as letters.
        """
        d, nq = self.modulus, self.num_qudits
        cap = max_weight if max_weight is not None else nq
        mat = self.matrix().array
        u_rows, v_rows = mat[:, :nq].T[:, None, :], mat[:, nq:].T[:, None, :]
        site_ops = np.array([p for p in itertools.product(range(d), repeat=2) if p != (0, 0)], dtype=np.int64)
        a, b = site_ops[:, 0, None], site_ops[:, 1, None]
        contrib = (u_rows * b - v_rows * a) % d
        found = _first_logical(contrib, site_ops, _howell_basis(mat, d), d, cap)
        return None if found is None else found[0]


def _mode_base(site: int) -> int:
    """First 1-indexed mode of 0-indexed qudit ``site`` (four modes per qudit)."""
    return 4 * site + 1


def _site_operators(modulus: int, num_modes: int, site: int, x_exp: int) -> tuple[PfOperator, PfOperator]:
    """(Z-like, X-like) pair g_1^{x_exp} g_2 and g_1^{x_exp} g_3 on one qudit site."""
    base = _mode_base(site)
    z = PfOperator.from_factors(modulus, num_modes, [(base, x_exp), (base + 1, 1)])
    x = PfOperator.from_factors(modulus, num_modes, [(base, x_exp), (base + 2, 1)])
    return z, x


def build_clock_chain(modulus: int, n: int) -> PfCode:
    """Clock-model chain code on 2n modes: generators pair modes (2j, 2j+1).

    Encodes one qudit with d = 1; the only parity-preserving logicals join
    the chain ends, so l_con = 2n.
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2 qudit sites")
    num_modes = 2 * n
    gens = [
        PfOperator.from_factors(modulus, num_modes, [(2 * j, -1), (2 * j + 1, 1)])
        for j in range(1, n)
    ]
    return canonical_phases(PfCode(modulus, num_modes, tuple(gens)))


def embed_qudit_code(q: QuditCheckMatrix) -> PfCode:
    """Map an [[n,k,d]]_D qudit code to a [[4n,k,2d]]_D parafermion code.

    Each qudit becomes four modes carrying a Weyl pair Z~ = g1^dag g2,
    X~ = g1^dag g3 plus the parity-fixing site stabilizer
    Q~ = g1^dag g2 g3^dag g4; each check row (u|v) maps to the product of
    X~^u Z~^v across sites.
    """
    if not q.commutes():
        raise InvalidCodeError("qudit check rows do not pairwise commute")
    d = q.modulus
    num_modes = 4 * q.num_qudits
    gens: list[PfOperator] = []
    for site in range(q.num_qudits):
        base = _mode_base(site)
        gens.append(
            PfOperator.from_factors(d, num_modes, [(base, -1), (base + 1, 1), (base + 2, -1), (base + 3, 1)])
        )
    site_pairs = [_site_operators(d, num_modes, site, d - 1) for site in range(q.num_qudits)]
    for r in range(len(q.rows)):
        op = PfOperator.identity(d, num_modes)
        u, v = q.x_part(r), q.z_part(r)
        for site in range(q.num_qudits):
            z_like, x_like = site_pairs[site]
            op = op * x_like.power(int(u[site])) * z_like.power(int(v[site]))
        gens.append(op)
    code = canonical_phases(PfCode(d, num_modes, tuple(gens)))
    if not validate(code).all_ok:
        raise InvalidCodeError("embedding produced an invalid code")
    return code


def double_to_css(code: PfCode) -> QuditCheckMatrix:
    """Block-diagonal CSS check matrix (S L | 0 ; 0 | S) on 2n qudits.

    X-type rows are the exponent rows multiplied by the pairing matrix, so
    every X/Z row pair commutes exactly because the source code is abelian.
    """
    if not validate(code).all_ok:
        raise InvalidCodeError("doubling requires a valid code")
    d, m = code.modulus, code.num_modes
    lam = lambda_matrix(d, m).array
    rows: list[tuple[int, ...]] = []
    zeros = (0,) * m
    for g in code.generators:
        alpha = np.asarray(g.alpha, dtype=np.int64)
        x_row = tuple(int(e) for e in (alpha @ lam) % d)
        rows.append(x_row + zeros)
    for g in code.generators:
        rows.append(zeros + g.alpha)
    out = QuditCheckMatrix(d, m, tuple(rows))
    if not out.commutes():
        raise InvalidCodeError("doubled CSS rows fail the commutation condition")
    return out


def double_code_d6(code3: PfCode) -> PfCode:
    """Double a D=3 code to a D=6 code on the same modes.

    The generators are the mode-pair cubes g_{2j-1}^3 g_{2j}^3 together with
    the squares of the original generators (exponents doubled into Z_6).
    The squared logicals of the source pick up commutation exponents of
    order 3, so the doubled code keeps a three-dimensional codespace.
    """
    if code3.modulus != 3:
        raise ValueError("input must be a D=3 code")
    m = code3.num_modes
    gens: list[PfOperator] = []
    for j in range(code3.n):
        gens.append(PfOperator.from_factors(6, m, [(2 * j + 1, 3), (2 * j + 2, 3)]))
    for g in code3.generators:
        doubled = tuple((2 * a) % 6 for a in g.alpha)
        gens.append(PfOperator(6, m, 0, doubled))
    code = canonical_phases(PfCode(6, m, tuple(gens)))
    if not validate(code).all_ok:
        raise InvalidCodeError("doubled code failed validation")
    return code


@dataclass(frozen=True)
class ToricSpec:
    """Torus parameters: D = prime**(2*exponent), an a x b edge lattice."""

    prime: int
    exponent: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")
        if self.a < 2 or self.b < 2:
            raise ValueError("lattice sides must be >= 2")

    @property
    def modulus(self) -> int:
        return self.prime ** (2 * self.exponent)

    @property
    def half_power(self) -> int:
        return self.prime**self.exponent


@dataclass(frozen=True)
class ToricCode:
    """A toric construction: the code, its designated loop logicals, and the
    full star/plaquette families (including the two dropped dependent ones)."""

    spec: ToricSpec
    code: PfCode
    logicals: dict[str, PfOperator]
    stars: tuple[PfOperator, ...]
    plaquettes: tuple[PfOperator, ...]


def build_toric(spec: ToricSpec) -> ToricCode:
    """Parafermion toric code on 2ab edge qudits (8ab modes).

    Site operators use r = p^l: Z~ = g1^{r-1} g2, X~ = g1^{r-1} g3, and the
    site stabilizer Q~ = g1^{-1} g2^{r+1} g3^{-(r+1)} g4, the unique
    charge-zero pattern (up to powers) commuting with both Z~ and X~.  Star
    and plaquette operators carry exponents +1/-1 arranged so overlapping
    pairs cancel; one star and one plaquette are dropped because their full
    products have zero exponent vector.  The designated logicals are the
    four noncontractible loops; each is checked to centralize the
    stabilizer without belonging to it.
    """
    d = spec.modulus
    r = spec.half_power
    a, b = spec.a, spec.b
    num_qudits = 2 * a * b
    num_modes = 4 * num_qudits

    def h_edge(x: int, y: int) -> int:
        return (y % b) * 2 * a + (x % a)

    def v_edge(x: int, y: int) -> int:
        return (y % b) * 2 * a + a + (x % a)

    site_pairs = [_site_operators(d, num_modes, site, r - 1) for site in range(num_qudits)]

    def x_op(site: int, sign: int) -> PfOperator:
        op = site_pairs[site][1]
        return op if sign > 0 else op.inverse()

    def z_op(site: int, sign: int) -> PfOperator:
        op = site_pairs[site][0]
        return op if sign > 0 else op.inverse()

    def product(ops: list[PfOperator]) -> PfOperator:
        out = PfOperator.identity(d, num_modes)
        for op in ops:
            out = out * op
        return out

    gens: list[PfOperator] = []
    for site in range(num_qudits):
        base = _mode_base(site)
        gens.append(
            PfOperator.from_factors(
                d, num_modes, [(base, -1), (base + 1, r + 1), (base + 2, -(r + 1)), (base + 3, 1)]
            )
        )
    stars: list[PfOperator] = []
    for y in range(b):
        for x in range(a):
            stars.append(
                product(
                    [
                        x_op(h_edge(x, y), +1),
                        x_op(h_edge(x - 1, y), -1),
                        x_op(v_edge(x, y), +1),
                        x_op(v_edge(x, y - 1), -1),
                    ]
                )
            )
    plaquettes: list[PfOperator] = []
    for y in range(b):
        for x in range(a):
            plaquettes.append(
                product(
                    [
                        z_op(h_edge(x, y), +1),
                        z_op(h_edge(x, y + 1), -1),
                        z_op(v_edge(x, y), -1),
                        z_op(v_edge(x + 1, y), +1),
                    ]
                )
            )
    star_total = np.zeros(num_modes, dtype=np.int64)
    plaq_total = np.zeros(num_modes, dtype=np.int64)
    for s in stars:
        star_total = (star_total + np.asarray(s.alpha)) % d
    for p in plaquettes:
        plaq_total = (plaq_total + np.asarray(p.alpha)) % d
    if star_total.any() or plaq_total.any():
        raise InvalidCodeError("global star/plaquette products are not the identity")
    gens.extend(stars[:-1])
    gens.extend(plaquettes[:-1])

    layout: dict[int, tuple[int, int]] = {}
    for y in range(b):
        for x in range(a):
            for offset in range(4):
                layout[4 * h_edge(x, y) + 1 + offset] = (2 * x + 1, 2 * y)
                layout[4 * v_edge(x, y) + 1 + offset] = (2 * x, 2 * y + 1)

    code = canonical_phases(PfCode(d, num_modes, tuple(gens), mode_layout=layout))
    if not validate(code).all_ok:
        raise InvalidCodeError("toric construction failed validation")

    logicals = {
        "horizontal_z": product([z_op(h_edge(x, 0), +1) for x in range(a)]),
        "vertical_z": product([z_op(v_edge(0, y), +1) for y in range(b)]),
        "horizontal_x": product([x_op(v_edge(x, 0), +1) for x in range(a)]),
        "vertical_x": product([x_op(h_edge(0, y), +1) for y in range(b)]),
    }
    for name, op in logicals.items():
        if not is_logical(code, op):
            raise InvalidCodeError(f"designated {name} loop is not a logical operator")
    return ToricCode(spec, code, logicals, tuple(stars), tuple(plaquettes))


def five_qutrit_code(modulus: int = 3) -> QuditCheckMatrix:
    """The cyclic [[5,1,3]]_D code: rows X_j Z_{j+1} Z_{j+2}^{-1} X_{j+3}^{-1}."""
    nq = 5
    rows = []
    for j in range(4):
        u = np.zeros(nq, dtype=np.int64)
        v = np.zeros(nq, dtype=np.int64)
        u[j] = 1
        u[(j + 3) % nq] = modulus - 1
        v[(j + 1) % nq] = 1
        v[(j + 2) % nq] = modulus - 1
        rows.append(tuple(int(e) for e in np.concatenate([u, v])))
    q = QuditCheckMatrix(modulus, nq, tuple(rows))
    if not q.commutes():
        raise InvalidCodeError("five-qudit rows fail to commute")
    return q


def code_8_1_3_d3() -> PfCode:
    """The [[8,1,3]]_3 code: the smallest nontrivial distance-3 code at D=3."""
    alphas = [
        (2, 1, 0, 2, 0, 1, 0, 0),
        (0, 2, 1, 0, 2, 0, 1, 0),
        (0, 0, 2, 1, 0, 2, 0, 1),
    ]
    gens = tuple(PfOperator(3, 8, 0, a) for a in alphas)
    return canonical_phases(PfCode(3, 8, gens))


def code_6_1_3_d7() -> PfCode:
    """The [[6,1,3]]_7 code on six modes."""
    alphas = [
        (1, 1, 0, 0, 5, 0),
        (1, 0, 0, 5, 0, 1),
    ]
    gens = tuple(PfOperator(7, 6, 0, a) for a in alphas)
    return canonical_phases(PfCode(7, 6, gens))
