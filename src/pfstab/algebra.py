"""Phase-tracked arithmetic in the parafermion group PF(D, 2n).

Mode operators g_1 .. g_{2n} satisfy g_j^D = 1 and g_j g_k = w^2 g_k g_j for
j < k, where w = exp(i*pi/D) is a primitive 2D-th root of unity.  A group
element is stored in normal order as

    w^mu * g_1^{alpha_1} * ... * g_{2n}^{alpha_2n},

with mu in Z_{2D} and alpha in Z_D^{2n}.  Phases live in Z_{2D} rather than
Z_D because products and D-th powers of normal-ordered words pick up
half-step phases (e.g. the factor i on Majorana pair terms for D = 2).

The ordering rule is evaluated in one place: ``_exclusive_prefix_sums``
(sums of the entries before each one, the phase of moving one word past
another) and ``_pairing`` (rows times L with L_ij = sgn(j - i), the
commutation pairing).  Every layer (products, commutation, syndromes, the
centralizer, ``l_con`` and the search's commutation masks) calls these
two; :func:`lambda_matrix` builds the dense L only for callers that want
the matrix itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .zmod import ZModMatrix, _check_range

__all__ = ["PfOperator", "lambda_matrix", "parse_operator"]


def _exclusive_prefix_sums(values: np.ndarray) -> np.ndarray:
    """Sums of the entries before each one, along the last axis."""
    out = np.zeros_like(values)
    np.cumsum(values[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _pairing(rows: np.ndarray, modulus: int) -> np.ndarray:
    """rows @ L mod D along the last axis, without building L (L_ij = sgn(j - i)).

    Entry j is sum_{i<j} x_i - sum_{i>j} x_i = 2 P_j - x_j - P_m, with P the
    inclusive prefix sum over the m modes.
    """
    prefix = np.cumsum(rows, axis=-1)
    return (2 * prefix - rows - prefix[..., -1:]) % modulus


@dataclass(frozen=True)
class PfOperator:
    """A normal-ordered element w^mu * g^alpha of PF(D, 2n)."""

    modulus: int
    num_modes: int
    mu: int
    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.num_modes < 2 or self.num_modes % 2:
            raise ValueError(f"num_modes must be even and >= 2, got {self.num_modes}")
        _check_range(self.modulus, self.num_modes, "an operator")
        alpha = tuple(int(a) % self.modulus for a in self.alpha)
        if len(alpha) != self.num_modes:
            raise ValueError(f"alpha has length {len(alpha)}, expected {self.num_modes}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", int(self.mu) % (2 * self.modulus))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _reduced(cls, modulus: int, num_modes: int, mu: int, alpha: tuple[int, ...]) -> "PfOperator":
        """w^mu g^alpha from Python ints already normalised: mu in [0, 2D) and
        alpha a tuple of num_modes residues mod D.  Nothing is checked; the
        caller vouches for both and for the modulus and mode count."""
        op = object.__new__(cls)
        op.__dict__.update(modulus=modulus, num_modes=num_modes, mu=mu, alpha=alpha)
        return op

    @classmethod
    def identity(cls, modulus: int, num_modes: int) -> "PfOperator":
        return cls(modulus, num_modes, 0, (0,) * num_modes)

    @classmethod
    def gamma(cls, modulus: int, num_modes: int, mode: int, exponent: int = 1) -> "PfOperator":
        """The single-mode operator g_mode^exponent (modes are 1-indexed)."""
        if not 1 <= mode <= num_modes:
            raise ValueError(f"mode {mode} out of range 1..{num_modes}")
        alpha = [0] * num_modes
        alpha[mode - 1] = exponent
        return cls(modulus, num_modes, 0, tuple(alpha))

    @classmethod
    def from_factors(
        cls,
        modulus: int,
        num_modes: int,
        factors: Iterable[tuple[int, int]],
        mu: int = 0,
    ) -> "PfOperator":
        """Multiply out single-mode factors (mode, exponent) in the given order.

        Negative exponents denote adjoints; the accumulated normal-ordering
        phase is tracked exactly.
        """
        out = cls(modulus, num_modes, mu, (0,) * num_modes)
        for mode, exponent in factors:
            exponent %= modulus
            if exponent:
                out = out * cls.gamma(modulus, num_modes, mode, exponent)
        return out

    # -- group operations --------------------------------------------------

    def _check_compatible(self, other: "PfOperator") -> None:
        if self.modulus != other.modulus or self.num_modes != other.num_modes:
            raise ValueError(
                f"incompatible operators: PF({self.modulus},{self.num_modes}) "
                f"vs PF({other.modulus},{other.num_modes})"
            )

    def __mul__(self, other: "PfOperator") -> "PfOperator":
        """Normal-ordered product.

        Moving g_i^{b_i} of the right factor past g_j^{a_j} (j > i) of the
        left one costs w^{-2 a_j b_i} per crossing, so the total phase shift
        is -2 * sum_{i>j} a_i b_j with the sum taken over the stored
        residues before any reduction.
        """
        self._check_compatible(other)
        a = np.asarray(self.alpha, dtype=np.int64)
        b = np.asarray(other.alpha, dtype=np.int64)
        swaps = int(a @ _exclusive_prefix_sums(b))
        mu = self.mu + other.mu - 2 * swaps
        return PfOperator(self.modulus, self.num_modes, mu, (a + b).tolist())

    def inverse(self) -> "PfOperator":
        a = np.asarray(self.alpha, dtype=np.int64)
        b = (-a) % self.modulus
        swaps = int(a @ _exclusive_prefix_sums(b))
        return PfOperator(self.modulus, self.num_modes, 2 * swaps - self.mu, b.tolist())

    def power(self, m: int) -> "PfOperator":
        """self^m in closed form.

        Multiplying (w^mu g^alpha)^k by w^mu g^alpha costs the phase
        -2k q with q = alpha . prefix(alpha), so the m-th power is
        w^{m mu - m(m-1) q} g^{m alpha}.
        """
        if m < 0:
            raise ValueError("exponent must be >= 0")
        a = np.asarray(self.alpha, dtype=np.int64)
        q = int(a @ _exclusive_prefix_sums(a)) % self.modulus
        mu = m * self.mu - m * (m - 1) * q
        return PfOperator(self.modulus, self.num_modes, mu, ((m % self.modulus) * a).tolist())

    def commutation_exponent(self, other: "PfOperator") -> int:
        """c with self * other == w^{2c} * other * self, as a residue mod D.

        This is the antisymmetric pairing alpha . L . beta^T where
        L_{ij} = sgn(j - i); the operators commute iff c == 0.
        """
        self._check_compatible(other)
        a = np.asarray(self.alpha, dtype=np.int64)
        return int(_pairing(a, self.modulus) @ np.asarray(other.alpha, dtype=np.int64)) % self.modulus

    def commutes_with(self, other: "PfOperator") -> bool:
        return self.commutation_exponent(other) == 0

    # -- scalar attributes ---------------------------------------------------

    def charge(self) -> int:
        """Z_D charge sum(alpha) mod D; zero iff the operator preserves parity."""
        return sum(self.alpha) % self.modulus

    def weight(self) -> int:
        return sum(1 for a in self.alpha if a)

    def support(self) -> tuple[int, ...]:
        """Sorted 1-indexed modes on which the operator acts."""
        return tuple(i + 1 for i, a in enumerate(self.alpha) if a)

    def diameter(self) -> int:
        """Index span max - min + 1 of the support on the 1-D chain; 0 for identity."""
        supp = self.support()
        if not supp:
            return 0
        return supp[-1] - supp[0] + 1

    def is_identity(self) -> bool:
        return self.mu == 0 and not any(self.alpha)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        if self.mu:
            parts.append("w" if self.mu == 1 else f"w^{self.mu}")
        for i, a in enumerate(self.alpha):
            if a:
                parts.append(f"g{i + 1}" if a == 1 else f"g{i + 1}^{a}")
        return " ".join(parts) if parts else "1"


_PHASE_RE = re.compile(r"^w(?:\^(-?\d+))?$")
_MODE_RE = re.compile(r"^g(\d+)(?:\^(-?\d+))?$")


def parse_operator(text: str, modulus: int, num_modes: int) -> PfOperator:
    """Parse the rendering produced by str(PfOperator).

    Grammar: whitespace-separated terms, an optional leading ``w`` or
    ``w^k`` phase, then ``gJ`` or ``gJ^e`` mode factors.  ``1`` denotes the
    identity.  Negative exponents are accepted and reduced; repeated and
    out-of-order factors are multiplied out with exact phase tracking.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty operator string")
    if tokens == ["1"]:
        return PfOperator.identity(modulus, num_modes)
    mu = 0
    factors: list[tuple[int, int]] = []
    for pos, tok in enumerate(tokens):
        if tok == "1" and pos == 0 and len(tokens) > 1:
            continue
        phase_match = _PHASE_RE.match(tok)
        if phase_match:
            if pos != 0:
                raise ValueError(f"phase term {tok!r} must come first")
            mu = int(phase_match.group(1)) if phase_match.group(1) else 1
            continue
        mode_match = _MODE_RE.match(tok)
        if not mode_match:
            raise ValueError(f"cannot parse operator term {tok!r}")
        mode = int(mode_match.group(1))
        if not 1 <= mode <= num_modes:
            raise ValueError(f"mode g{mode} out of range 1..{num_modes}")
        exponent = int(mode_match.group(2)) if mode_match.group(2) else 1
        factors.append((mode, exponent))
    return PfOperator.from_factors(modulus, num_modes, factors, mu=mu)


def lambda_matrix(modulus: int, num_modes: int) -> ZModMatrix:
    """The antisymmetric pairing matrix L_{ij} = sgn(j - i), with -1 stored as D-1."""
    idx = np.arange(num_modes)
    signs = np.sign(idx[None, :] - idx[:, None]).astype(np.int64)
    return ZModMatrix(modulus, signs % modulus)
