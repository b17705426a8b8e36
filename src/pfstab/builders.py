"""Code constructors and converters between qudit and parafermion codes.

Every construction here is a linear map on exponent rows, so a builder
computes its generators' rows alpha_i with integer arithmetic mod D, takes
one Howell form of [rows | I], solves the phases from its kernel relations
(``code._phase_solution``, as :func:`pfstab.code.canonical_phases` does) and
builds the code once, with ``PfCode._from_forms``, which keeps that form.
Builders return codes that already pass full validation; a construction
that cannot be validated raises instead of returning a broken object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PfOperator
from .code import (
    _LETTER_TABLE_BYTES,
    InvalidCodeError,
    PfCode,
    _check_cap,
    _first_logical,
    _phase_solution,
    _row_forms,
    commutation_rows,
    is_logical,
    stabilizer_matrix,
    validate,
)
from .zmod import ZModMatrix, _check_range, _howell_basis, _is_prime, span_order

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
        _check_range(self.modulus, self.num_qudits, "a qudit check matrix")
        rows = tuple(tuple(int(e) % self.modulus for e in r) for r in self.rows)
        for r in rows:
            if len(r) != 2 * self.num_qudits:
                raise ValueError("each row must have 2 * num_qudits entries")
        object.__setattr__(self, "rows", rows)

    def commutes(self) -> bool:
        """u.v' == v.u' (mod D) for every pair of rows."""
        mat = self.matrix().array
        u, v = mat[:, : self.num_qudits], mat[:, self.num_qudits :]
        return not ((u @ v.T - v @ u.T) % self.modulus).any()

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
        """Minimum weight of a logical Weyl error, up to ``max_weight``.

        None means no logical up to the cap: d > ``max_weight``, or, when
        uncapped, no logical at all (k = 0).  A cap below 1 raises
        ValueError, as :func:`pfstab.code.distance` does.

        An error (u|v) is undetected iff u.v_r == v.u_r (mod D) against every
        row r; it is logical if additionally (u|v) is outside the row span.
        Sites are scanned like parafermion modes in :func:`pfstab.code.distance`,
        with the D^2 - 1 site operators (a, b) != (0, 0) as letters, in
        lexicographic order.  The letters and the one-letter syndrome table,
        16 * (D^2 - 1) + 8 * n * (D^2 - 1) * r bytes, must fit in 128 MiB,
        else ValueError.
        """
        _check_cap("max_weight", max_weight)
        d, nq = self.modulus, self.num_qudits
        cap = max_weight if max_weight is not None else nq
        table_bytes = 8 * (d * d - 1) * (2 + nq * len(self.rows))
        if table_bytes > _LETTER_TABLE_BYTES:
            raise ValueError(f"the distance scan's letter table would take {table_bytes} bytes, over {_LETTER_TABLE_BYTES}")
        mat = self.matrix().array
        u_rows, v_rows = mat[:, :nq].T[:, None, :], mat[:, nq:].T[:, None, :]
        site_ops = np.stack(np.divmod(np.arange(1, d * d, dtype=np.int64), d), axis=1)
        a, b = site_ops[:, 0, None], site_ops[:, 1, None]
        contrib = (u_rows * b - v_rows * a) % d
        found = _first_logical(contrib, site_ops, _howell_basis(mat, d), d, cap)
        return None if found is None else found[0]


def _validated(modulus: int, rows: np.ndarray, what: str, mode_layout=None) -> PfCode:
    """The code with exponent rows ``rows`` (residues mod D) and canonical
    phases; raises :class:`InvalidCodeError` unless it is then valid."""
    _check_range(modulus, max(rows.shape), "a code")  # before the phase solve's int64 arithmetic
    forms = _row_forms(rows, modulus)
    code = PfCode._from_forms(modulus, rows.shape[1], rows, _phase_solution(rows, forms[1], modulus), forms, mode_layout)
    flags = validate(code)
    if not flags.all_ok:
        raise InvalidCodeError(f"{what} failed validation: {flags.to_dict()}")
    return code


def _on_sites(num_qudits: int, pattern) -> np.ndarray:
    """Row i: ``pattern``, the exponents on one qudit's four modes, put on qudit i."""
    return np.kron(np.eye(num_qudits, dtype=np.int64), np.asarray(pattern, dtype=np.int64))


def build_clock_chain(modulus: int, n: int) -> PfCode:
    """Clock-model chain code on 2n modes: generators g_{2j}^dag g_{2j+1}, j = 1 .. n-1.

    Encodes one qudit with d = 1; the only parity-preserving logicals join
    the chain ends, so l_con = 2n.
    """
    if n < 2:
        raise ValueError("the chain needs n >= 2 qudit sites")
    _check_range(modulus, 2 * n, "a code")  # before any int64 arithmetic
    rows = np.zeros((n - 1, 2 * n), dtype=np.int64)
    j = np.arange(n - 1)
    rows[j, 2 * j + 1] = modulus - 1
    rows[j, 2 * j + 2] = 1
    return _validated(modulus, rows, "clock chain")


def embed_qudit_code(q: QuditCheckMatrix) -> PfCode:
    """Map an [[n,k,d]]_D qudit code to a parafermion code on 4n modes with the same k.

    Each qudit becomes four modes carrying a Weyl pair Z~ = g1^dag g2,
    X~ = g1^dag g3 plus the parity-fixing site stabilizer
    Q~ = g1^dag g2 g3^dag g4; each check row (u|v) maps to the exponent row
    of X~^u Z~^v across sites, sum_i u_i X~_i + v_i Z~_i.  The distance is
    not 2d in general: the five-qutrit code [[5,1,3]]_3 maps to distance 6,
    but the D=5 check (4,1|3,2) on two qudits has distance 1 and maps to
    distance 3.
    """
    if not q.commutes():
        raise InvalidCodeError("qudit check rows do not pairwise commute")
    d, nq = q.modulus, q.num_qudits
    checks = q.matrix().array
    x_rows = _on_sites(nq, (d - 1, 0, 1, 0))
    z_rows = _on_sites(nq, (d - 1, 1, 0, 0))
    rows = np.vstack([_on_sites(nq, (-1, 1, -1, 1)), checks[:, :nq] @ x_rows + checks[:, nq:] @ z_rows]) % d
    return _validated(d, rows, "embedded code")


def double_to_css(code: PfCode) -> QuditCheckMatrix:
    """Block-diagonal CSS check matrix (S L | 0 ; 0 | S) on 2n qudits.

    X-type rows are the exponent rows multiplied by the pairing matrix, so
    every X/Z row pair commutes exactly because the source code is abelian.
    """
    if not validate(code).all_ok:
        raise InvalidCodeError("doubling requires a valid code")
    zeros = np.zeros((len(code._rows), code.num_modes), dtype=np.int64)
    rows = np.block([[commutation_rows(code), zeros], [zeros, stabilizer_matrix(code).array]])
    out = QuditCheckMatrix(code.modulus, code.num_modes, rows.tolist())
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
        raise InvalidCodeError("input must be a D=3 code")
    rows = np.vstack([np.kron(np.eye(code3.n, dtype=np.int64), [3, 3]), 2 * stabilizer_matrix(code3).array]) % 6
    return _validated(6, rows, "doubled code")


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
        _check_range(self.modulus, 8 * self.a * self.b, "a toric code")  # 8ab modes

    @property
    def modulus(self) -> int:
        return self.prime ** (2 * self.exponent)

    @property
    def half_power(self) -> int:
        return self.prime**self.exponent


@dataclass(frozen=True)
class ToricCode:
    """A toric construction: the code, its designated loop logicals, and the
    full star/plaquette families (including the two dropped dependent ones).

    The logicals, stars and plaquettes are given by their exponent rows, with
    mu = 0; each kept star or plaquette equals its generator in ``code``.
    """

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
    d, r = spec.modulus, spec.half_power
    a, b = spec.a, spec.b
    num_qudits = 2 * a * b
    num_modes = 4 * num_qudits
    y, x = np.divmod(np.arange(a * b), a)  # cell (x, y), in row-major order

    def h_edge(x, y):
        return (y % b) * 2 * a + (x % a)

    def v_edge(x, y):
        return (y % b) * 2 * a + a + (x % a)

    def incidence(*signed_edges) -> np.ndarray:
        """Cell-by-qudit matrix: for each (edges, sign), ``sign`` at cell i, qudit edges[i]."""
        out = np.zeros((a * b, num_qudits), dtype=np.int64)
        for edges, sign in signed_edges:
            out[np.arange(a * b), edges] += sign
        return out

    x_rows = _on_sites(num_qudits, (r - 1, 0, 1, 0))
    z_rows = _on_sites(num_qudits, (r - 1, 1, 0, 0))
    star_inc = incidence((h_edge(x, y), 1), (h_edge(x - 1, y), -1), (v_edge(x, y), 1), (v_edge(x, y - 1), -1))
    plaq_inc = incidence((h_edge(x, y), 1), (h_edge(x, y + 1), -1), (v_edge(x, y), -1), (v_edge(x + 1, y), 1))
    stars = star_inc @ x_rows % d
    plaquettes = plaq_inc @ z_rows % d
    if (stars.sum(axis=0) % d).any() or (plaquettes.sum(axis=0) % d).any():
        raise InvalidCodeError("global star/plaquette products are not the identity")
    sites = _on_sites(num_qudits, (-1, r + 1, -(r + 1), 1)) % d

    layout: dict[int, tuple[int, int]] = {}
    for cx, cy in zip(x.tolist(), y.tolist()):
        for offset in range(4):
            layout[4 * h_edge(cx, cy) + 1 + offset] = (2 * cx + 1, 2 * cy)
            layout[4 * v_edge(cx, cy) + 1 + offset] = (2 * cx, 2 * cy + 1)

    code = _validated(d, np.vstack([sites, stars[:-1], plaquettes[:-1]]), "toric construction", layout)

    def operators(rows: np.ndarray) -> tuple[PfOperator, ...]:
        return tuple(PfOperator(d, num_modes, 0, row) for row in rows.tolist())

    loops = {
        "horizontal_z": z_rows[h_edge(np.arange(a), 0)],
        "vertical_z": z_rows[v_edge(0, np.arange(b))],
        "horizontal_x": x_rows[v_edge(np.arange(a), 0)],
        "vertical_x": x_rows[h_edge(0, np.arange(b))],
    }
    logicals = dict(zip(loops, operators(np.array([rows.sum(axis=0) for rows in loops.values()]))))
    for name, op in logicals.items():
        if not is_logical(code, op):
            raise InvalidCodeError(f"designated {name} loop is not a logical operator")
    return ToricCode(spec, code, logicals, operators(stars), operators(plaquettes))


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
    return _validated(3, np.array(alphas), "[[8,1,3]]_3 code")


def code_6_1_3_d7() -> PfCode:
    """The [[6,1,3]]_7 code on six modes."""
    alphas = [
        (1, 1, 0, 0, 5, 0),
        (1, 0, 0, 5, 0, 1),
    ]
    return _validated(7, np.array(alphas), "[[6,1,3]]_7 code")
