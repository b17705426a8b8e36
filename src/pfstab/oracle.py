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
:mod:`pfstab.algebra` that it is used to cross-check: no ``PfOperator``
is ever multiplied here.  An operator's monomial is the ordered product of
tabulated mode powers, composed on the raw permutation and phase arrays
with one reduction mod 2D at the end.

A code's stabilizer group is enumerated as stacked monomials, one row of
permutation and one row of phase exponents per element: starting from the
identity, each generator's monomial g appends the cosets H g^c until g^c
falls into the group H found so far (compared as integer rows).  Since
P = (1/|S|) sum_s M_s maps e_x onto the orbit of x, the codespace basis is
read off those rows without diagonalising anything: one normalised column
P e_x per orbit whose stabilizing elements all fix x with phase 0, which
gives tr P columns with disjoint supports.  A representation keeps the
last codespace it computed, so the projector, the codewords and every
simulated syndrome of one code enumerate its group once.
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
        """M applied to a vector, or to each column of a matrix."""
        out = np.zeros_like(vec, dtype=complex)
        out[self.perm] = (self.roots()[self.phase] * vec.T).T
        return out

    def roots(self) -> np.ndarray:
        return _roots(self.order)

    def matrix(self) -> np.ndarray:
        dim = self.perm.shape[0]
        m = np.zeros((dim, dim), dtype=complex)
        m[self.perm, np.arange(dim)] = self.roots()[self.phase]
        return m

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
    composition (2n * D read-only monomials of dimension D^n), so an
    operator's monomial costs one composition per nonzero exponent.  The
    last codespace computed (:func:`codewords`) is kept for the next call
    with the same code and cap: one slot, so a long-lived representation
    holds at most one basis.
    """

    def __init__(self, modulus: int, num_qudits: int, max_dim: int = DEFAULT_DIM_CAP, tol: float = DEFAULT_TOL):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if num_qudits < 1:
            raise ValueError(f"need at least one qudit, got {num_qudits}")
        # The exponent is clipped, as in ``search._candidate_count``, so a huge n costs nothing.
        if modulus ** min(num_qudits, max_dim.bit_length()) > max_dim:
            raise ValueError(f"dimension {modulus}^{num_qudits} exceeds the cap {max_dim}")
        self.modulus = modulus
        self.num_qudits = num_qudits
        self.num_modes = 2 * num_qudits
        self.dim = modulus**num_qudits
        self.order = 2 * modulus
        self.tol = tol
        # _powers[j][e] is g_{j+1}^e, e = 0 .. D-1.
        self._powers = [self._power_table(g) for g in self._build_modes()]
        # ((code, cap), (basis, trace)) of the last _codespace call.
        self._last_codespace = None

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
        # The table's arrays are shared by mode_monomial and op_monomial results.
        for power in table:
            power.perm.flags.writeable = False
            power.phase.flags.writeable = False
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
        factors = [powers[exponent] for powers, exponent in zip(self._powers, op.alpha) if exponent]
        if not factors:
            return Monomial.identity(self.order, self.dim).scale(op.mu)
        # out @ p on the raw arrays; each phase is below 2D, so the unreduced
        # sum stays below (2n + 1) * 2D.
        perm, phase = factors[0].perm, factors[0].phase
        for p in factors[1:]:
            phase = p.phase + phase[p.perm]
            perm = perm[p.perm]
        return Monomial(self.order, perm, (phase + op.mu) % self.order)

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


def _roots(order: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(order) / order)


def _stabilizer_group(rep: DenseRep, code, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Every element M_s of a valid code's stabilizer group, as stacked monomials.

    Row s of ``perms`` and ``phases`` is M_s|x> = w^{phases[s, x]} |perms[s, x]>.
    The group is abelian, so adding generator g to the group H found so far
    appends the cosets H g^c, c = 1, 2, ..., until g^c lies in H (an exact
    integer row comparison); H g^c is the batched composition of every row
    with g^c.  Raises ``ValueError`` for an invalid code, and before |S|
    would exceed ``cap``.
    """
    from .code import validate

    if not validate(code).all_ok:
        raise ValueError("projector requires a code whose validation flags are all true")
    perms = np.arange(rep.dim, dtype=np.int32)[None, :]
    phases = np.zeros((1, rep.dim), dtype=np.int32)
    for g in code.generators:
        step = rep.op_monomial(g)
        power = step
        perm_blocks, phase_blocks = [perms], [phases]
        while not ((perms == power.perm) & (phases == power.phase)).all(axis=1).any():
            if (len(perm_blocks) + 1) * len(perms) > cap:
                raise ValueError(f"group enumeration exceeded the cap {cap}")
            perm_blocks.append(perms[:, power.perm])
            phase_blocks.append((phases[:, power.perm] + power.phase.astype(np.int32)) % rep.order)
            power = power @ step
        perms, phases = np.concatenate(perm_blocks), np.concatenate(phase_blocks)
    return perms, phases


def _codespace(rep: DenseRep, code, cap: int) -> tuple[np.ndarray, float]:
    """Orthonormal codespace basis (columns), one per orbit, and tr P.

    P e_x = (1/|S|) sum_s M_s e_x lies on the orbit of x, and P e_x = 0
    exactly when an element fixes x with a nontrivial phase.  The nonzero
    columns at the orbit representatives (the least index of each orbit)
    span the codespace and have disjoint supports, so normalising them
    gives an orthonormal basis.  tr P = (1/|S|) sum_s tr M_s, summed over
    the fixed points of each element, must equal their number.  The result
    is kept on ``rep`` until a call with another code or cap.
    """
    key = (code, cap)
    if rep._last_codespace is not None and rep._last_codespace[0] == key:
        return rep._last_codespace[1]
    perms, phases = _stabilizer_group(rep, code, cap)
    roots = _roots(rep.order)
    fixed = perms == np.arange(rep.dim)
    trace = float((np.bincount(phases[fixed], minlength=rep.order) @ roots).real) / len(perms)
    reps = np.nonzero(perms.min(axis=0) == np.arange(rep.dim))[0]
    stray = (fixed[:, reps] & (phases[:, reps] != 0)).any(axis=0)
    reps = reps[~stray]
    if int(round(trace)) != reps.size:
        raise ValueError("projector trace does not match the number of codeword orbits")
    rows, exps = perms[:, reps], phases[:, reps]
    # Free the group before the result exists, so that nothing allocated after
    # the group outlives it and the dense projector can reuse its memory.
    del perms, phases, fixed
    basis = np.zeros((rep.dim, reps.size), dtype=complex)
    # Elements that map x to the same index carry the same phase there, so repeated writes agree.
    basis[rows, np.arange(reps.size)] = roots[exps]
    basis /= np.linalg.norm(basis, axis=0)
    basis.flags.writeable = False
    rep._last_codespace = (key, (basis, trace))
    return basis, trace


def projector(rep: DenseRep, code, cap: int = 100_000) -> tuple[np.ndarray, float]:
    """Codespace projector P = (1/|S|) sum_j S_j and its (real) trace.

    P is a projector of rank |C_S| = D^n / |S|; invalid codes are rejected
    because the sum over a group with stray phases is not a projector.
    The group average equals B B^dagger for the orbit basis B of
    :func:`codewords`, which is how P is formed: the stacked group is
    released before the dense D^n x D^n matrix is allocated.
    """
    basis, trace = _codespace(rep, code, cap)
    return basis @ basis.conj().T, trace


def codewords(rep: DenseRep, code, cap: int = 100_000) -> np.ndarray:
    """Orthonormal basis of the codespace (columns), one column per codeword orbit.

    The array is read-only: ``rep`` keeps it for the next call with the same
    code and cap.
    """
    return _codespace(rep, code, cap)[0]


def syndrome_sim(rep: DenseRep, code, error: PfOperator, cap: int = 100_000) -> tuple[int, ...]:
    """Measured syndrome: the eigenphase exponent of each generator on E|psi>.

    Every corrupted codeword must be an exact eigenvector of every
    generator, with one common eigenphase that is a D-th root of unity;
    anything else raises :class:`DegenerateEigenphaseError`.
    """
    corrupted = rep.op_monomial(error).apply(codewords(rep, code, cap=cap))
    norms = np.linalg.norm(corrupted, axis=0)
    tol = max(rep.tol * rep.dim, 1e-8)  # dimension-scaled growth allowance
    syndrome = []
    for g in code.generators:
        images = rep.op_monomial(g).apply(corrupted)
        lam = np.einsum("ij,ij->j", corrupted.conj(), images) / norms**2
        if (np.linalg.norm(images - lam * corrupted, axis=0) > tol * norms).any():
            raise DegenerateEigenphaseError("corrupted state is not an eigenvector of a generator")
        s = np.round(np.angle(lam) * rep.modulus / (2 * np.pi)).astype(np.int64) % rep.modulus
        if (np.abs(lam - np.exp(2j * np.pi * s / rep.modulus)) > tol).any():
            raise DegenerateEigenphaseError("eigenphase is not a D-th root of unity")
        if (s != s[0]).any():
            raise DegenerateEigenphaseError("eigenphase differs between codewords")
        syndrome.append(int(s[0]))
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
