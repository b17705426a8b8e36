"""Independent ground truth: explicit matrix representations for small (D, n).

Parafermion modes are built by the Jordan-Wigner transformation of clock
operators,

    g_{2j-1} = (X_1 ... X_{j-1}) Z_j,
    g_{2j}   = w^{D-1} (X_1 ... X_{j-1}) Z_j X_j,

acting on n qudits (dimension D^n).  Every mode matrix is a generalized
permutation matrix whose nonzero entries are 2D-th roots of unity, so the
representation is stored exactly as a permutation plus integer phase
exponents; dense complex matrices are materialized on demand.  This keeps
group arithmetic exact, independent of the normal-ordering bookkeeping in
:mod:`pfstab.algebra` that it is used to cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PfOperator

__all__ = [
    "Monomial",
    "DenseRep",
    "clock_ops",
    "jw_modes",
    "op_matrix",
    "projector",
    "syndrome_sim",
    "relation_report",
    "DegenerateEigenphaseError",
]

DEFAULT_DIM_CAP = 2048
DEFAULT_TOL = 1e-9


class DegenerateEigenphaseError(ValueError):
    """The probed vector is not a simultaneous eigenvector of the generator."""


@dataclass(frozen=True)
class Monomial:
    """Exact generalized permutation matrix: M|x> = w^{phase[x]} |perm[x]>.

    ``w`` is the primitive root exp(i*pi*2/order); phases are exponents in
    Z_order.  Throughout this module order = 2D.
    """

    order: int
    perm: np.ndarray
    phase: np.ndarray

    @classmethod
    def identity(cls, order: int, dim: int) -> "Monomial":
        return cls(order, np.arange(dim), np.zeros(dim, dtype=np.int64))

    def __matmul__(self, other: "Monomial") -> "Monomial":
        if self.order != other.order:
            raise ValueError("mismatched phase orders")
        return Monomial(
            self.order,
            self.perm[other.perm],
            (other.phase + self.phase[other.perm]) % self.order,
        )

    def scale(self, exponent: int) -> "Monomial":
        return Monomial(self.order, self.perm, (self.phase + exponent) % self.order)

    def dagger(self) -> "Monomial":
        inv = np.argsort(self.perm)
        return Monomial(self.order, inv, (-self.phase[inv]) % self.order)

    def matrix_power(self, k: int) -> "Monomial":
        out = Monomial.identity(self.order, self.perm.shape[0])
        base = self
        k = int(k)
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec, dtype=complex)
        out[self.perm] = self.roots()[self.phase] * vec
        return out

    def roots(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.order) / self.order)

    def matrix(self) -> np.ndarray:
        dim = self.perm.shape[0]
        m = np.zeros((dim, dim), dtype=complex)
        m[self.perm, np.arange(dim)] = self.roots()[self.phase]
        return m

    def trace(self) -> complex:
        fixed = self.perm == np.arange(self.perm.shape[0])
        return complex(self.roots()[self.phase[fixed]].sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return (
            self.order == other.order
            and np.array_equal(self.perm, other.perm)
            and np.array_equal(self.phase, other.phase)
        )


def clock_ops(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense D x D shift and clock matrices with Z X = w^2 X Z."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    omega = np.exp(2j * np.pi / modulus)
    x = np.zeros((modulus, modulus), dtype=complex)
    x[(np.arange(modulus) + 1) % modulus, np.arange(modulus)] = 1.0
    z = np.diag(omega ** np.arange(modulus))
    return x, z


class DenseRep:
    """Jordan-Wigner representation of PF(D, 2n) on n qudits.

    Each mode's powers g_j^0 .. g_j^{D-1} are tabulated once, by repeated
    composition (2n * D monomials of dimension D^n), so an operator's
    monomial costs one composition per nonzero exponent.
    """

    def __init__(self, modulus: int, num_qudits: int, max_dim: int = DEFAULT_DIM_CAP, tol: float = DEFAULT_TOL):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if num_qudits < 1:
            raise ValueError(f"need at least one qudit, got {num_qudits}")
        dim = modulus**num_qudits
        if dim > max_dim:
            raise ValueError(f"dimension {modulus}^{num_qudits} = {dim} exceeds the cap {max_dim}")
        self.modulus = modulus
        self.num_qudits = num_qudits
        self.num_modes = 2 * num_qudits
        self.dim = dim
        self.order = 2 * modulus
        self.tol = tol
        # _powers[j][e] is g_{j+1}^e, e = 0 .. D-1.
        self._powers = [self._power_table(g) for g in self._build_modes()]

    # -- construction -------------------------------------------------------

    def _site_digits(self, site: int) -> np.ndarray:
        """Digit of each basis index at 1-indexed qudit ``site`` (site 1 most significant)."""
        stride = self.modulus ** (self.num_qudits - site)
        return (np.arange(self.dim) // stride) % self.modulus

    def _x_monomial(self, site: int) -> Monomial:
        d = self.modulus
        stride = d ** (self.num_qudits - site)
        digits = self._site_digits(site)
        perm = np.arange(self.dim) + ((digits + 1) % d - digits) * stride
        return Monomial(self.order, perm, np.zeros(self.dim, dtype=np.int64))

    def _z_monomial(self, site: int) -> Monomial:
        digits = self._site_digits(site)
        return Monomial(self.order, np.arange(self.dim), (2 * digits) % self.order)

    def _build_modes(self) -> list[Monomial]:
        modes = []
        string = Monomial.identity(self.order, self.dim)
        for site in range(1, self.num_qudits + 1):
            z = self._z_monomial(site)
            x = self._x_monomial(site)
            modes.append(string @ z)
            modes.append((string @ z @ x).scale(self.modulus - 1))
            string = string @ x
        return modes

    def _power_table(self, mode: Monomial) -> list[Monomial]:
        table = [Monomial.identity(self.order, self.dim)]
        for _ in range(1, self.modulus):
            table.append(table[-1] @ mode)
        return table

    # -- accessors ------------------------------------------------------------

    def mode_monomial(self, mode: int) -> Monomial:
        if not 1 <= mode <= self.num_modes:
            raise ValueError(f"mode {mode} out of range 1..{self.num_modes}")
        return self._powers[mode - 1][1]

    def mode_matrix(self, mode: int) -> np.ndarray:
        return self.mode_monomial(mode).matrix()

    def op_monomial(self, op: PfOperator) -> Monomial:
        if op.modulus != self.modulus or op.num_modes != self.num_modes:
            raise ValueError("operator does not match this representation")
        out = Monomial.identity(self.order, self.dim).scale(op.mu)
        for powers, exponent in zip(self._powers, op.alpha):
            if exponent:
                out = out @ powers[exponent]
        return out

    def charge_monomial(self) -> Monomial:
        """Q = prod_j g_{2j-1}^dagger g_{2j}; g^a Q = w^{2p} Q g^a with p the charge."""
        out = Monomial.identity(self.order, self.dim)
        for j in range(1, self.num_qudits + 1):
            out = out @ self.mode_monomial(2 * j - 1).dagger() @ self.mode_monomial(2 * j)
        return out


def jw_modes(modulus: int, num_qudits: int, max_dim: int = DEFAULT_DIM_CAP) -> DenseRep:
    """Build the 2n Jordan-Wigner mode operators for n qudits of dimension D."""
    return DenseRep(modulus, num_qudits, max_dim=max_dim)


def op_matrix(rep: DenseRep, op: PfOperator) -> np.ndarray:
    """Dense matrix of w^mu g_1^{a_1} ... g_{2n}^{a_2n} in index order."""
    return rep.op_monomial(op).matrix()


def _group_elements(code, cap: int = 100_000) -> list[PfOperator]:
    """Closure of the generator set under multiplication, phases included."""
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


def projector(rep: DenseRep, code, cap: int = 100_000) -> tuple[np.ndarray, float]:
    """Codespace projector P = (1/|S|) sum_j S_j and its (real) trace.

    P is a projector of rank |C_S| = D^n / |S|; invalid codes are rejected
    because the sum over a group with stray phases is not a projector.
    """
    from .code import validate

    if not validate(code).all_ok:
        raise ValueError("projector requires a code whose validation flags are all true")
    elements = _group_elements(code, cap=cap)
    p = np.zeros((rep.dim, rep.dim), dtype=complex)
    idx = np.arange(rep.dim)
    for e in elements:
        mono = rep.op_monomial(e)
        p[mono.perm, idx] += mono.roots()[mono.phase]
    p /= len(elements)
    return p, float(np.trace(p).real)


def codewords(rep: DenseRep, code, cap: int = 100_000) -> np.ndarray:
    """Orthonormal basis of the codespace (columns), from the projector."""
    p, trace = projector(rep, code, cap=cap)
    vals, vecs = np.linalg.eigh(p)
    keep = vals > 0.5
    if int(round(trace)) != int(keep.sum()):
        raise ValueError("projector trace does not match its eigenvalue-1 multiplicity")
    return vecs[:, keep]


def syndrome_sim(rep: DenseRep, code, error: PfOperator, cap: int = 100_000) -> tuple[int, ...]:
    """Measured syndrome: the eigenphase exponent of each generator on E|psi>.

    Every corrupted codeword must be an exact eigenvector of every
    generator, with one common eigenphase that is a D-th root of unity;
    anything else raises :class:`DegenerateEigenphaseError`.
    """
    basis = codewords(rep, code, cap=cap)
    err = rep.op_monomial(error)
    corrupted = [err.apply(basis[:, c]) for c in range(basis.shape[1])]
    tol = max(rep.tol * rep.dim, 1e-8)  # dimension-scaled growth allowance
    syndrome = []
    for g in code.generators:
        mono = rep.op_monomial(g)
        value = None
        for v in corrupted:
            w = mono.apply(v)
            lam = np.vdot(v, w) / np.vdot(v, v)
            if np.linalg.norm(w - lam * v) > tol * np.linalg.norm(v):
                raise DegenerateEigenphaseError("corrupted state is not an eigenvector of a generator")
            s = int(np.round(np.angle(lam) * rep.modulus / (2 * np.pi))) % rep.modulus
            if abs(lam - np.exp(2j * np.pi * s / rep.modulus)) > tol:
                raise DegenerateEigenphaseError("eigenphase is not a D-th root of unity")
            if value is None:
                value = s
            elif value != s:
                raise DegenerateEigenphaseError("eigenphase differs between codewords")
        syndrome.append(value)
    return tuple(syndrome)


def relation_report(rep: DenseRep) -> dict[str, bool]:
    """Exact checks of the defining relations in this representation."""
    ident = Monomial.identity(rep.order, rep.dim)
    pow_ok = all(rep.mode_monomial(j).matrix_power(rep.modulus) == ident for j in range(1, rep.num_modes + 1))
    comm_ok = True
    for j in range(1, rep.num_modes + 1):
        for k in range(j + 1, rep.num_modes + 1):
            lhs = rep.mode_monomial(j) @ rep.mode_monomial(k)
            rhs = (rep.mode_monomial(k) @ rep.mode_monomial(j)).scale(2)
            comm_ok = comm_ok and lhs == rhs
    q = rep.charge_monomial()
    charge_ok = all(
        rep.mode_monomial(j) @ q == (q @ rep.mode_monomial(j)).scale(2)
        for j in range(1, rep.num_modes + 1)
    )
    return {"mode_order": pow_ok, "mode_commutation": comm_ok, "charge_relation": charge_ok}
