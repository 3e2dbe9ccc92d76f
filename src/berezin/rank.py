"""Finite-rank detection and moment matrices of transforms.

The rank of a transform is the rank of its bidegree coefficient grid: with
``B(u)(z, w) = sum c[m, n] z^m w^n`` (the two-variable extension obtained
by replacing ``conj(z)`` with an independent ``w``), the functions
multiplying the powers of ``w`` span a space of dimension equal to the
rank of ``{c[m, n]}``.

The moment matrix of a symbol is

    ``M[k, l] = integral  u * Lap[(1 - |z|^2)^2 z^k conj(z)^l]  dA``

with ``Lap = d/dz d/dconj(z)``. Expanding the Laplacian leaves exactly
three weighted monomials, so the whole matrix assembles from the plain
monomial moments ``G[p, q] = integral u z^p conj(z)^q dA`` computed on one
singular-aware node set. The Laplacian applies to the full weighted
product and ``q`` carries the conjugate power; in this ``"full"``
orientation the coefficient cross-identity

    ``M[k, l] = c[l+1, k+1]``   (grid coefficients of the exact transform)

holds, and the tag is stored on every MomentMatrix.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from berezin import _kernels
from berezin.core import BidegreeSeries
from berezin.errors import DomainError, ZeroInput
from berezin.quadrature import QuadratureRule, integrate_parts
from berezin.symbols import Symbol, canonicalize

#: Relative singular-value threshold for rank decisions.
DEFAULT_RANK_TOL = 1e-8

#: Grids are truncated to this many rows/columns before the SVD. The corner
#: does not hold every coefficient above the rank tolerance: at center
#: modulus 0.94 the largest entry of row or column 39 is still 1.2% (log
#: atom) or 47% (pole atom) of the largest entry. It is the rank that
#: survives: for log, pole and conjugate-pole atoms up to modulus 0.94 the
#: 40x40 corner gives the same rank as the full grid.
SVD_TRUNCATION = 40


def complexified_eval(grid: BidegreeSeries, z: complex, w: complex) -> complex:
    """Two-variable evaluation ``sum c[m, n] z^m w^n``; restricting
    ``w = conj(z)`` reproduces the one-variable evaluation."""
    z = complex(z)
    w = complex(w)
    if abs(z) >= 1 or abs(w) >= 1:
        raise DomainError("complexified evaluation needs |z| < 1 and |w| < 1")
    return complex(np.polynomial.polynomial.polyval2d(z, w, grid.coeffs))


@dataclass(frozen=True)
class RankReport:
    singular_values: np.ndarray
    rank: int
    tol: float

    def to_dict(self) -> dict:
        return {
            "singular_values": [float(s) for s in self.singular_values],
            "rank": int(self.rank),
            "tol": float(self.tol),
        }


def numerical_rank(grid, tol_rel: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report: count of singular values above ``tol_rel * sigma_max``.

    Accepts a BidegreeSeries (truncated to SVD_TRUNCATION first) or a plain
    matrix. Raises ZeroInput when every entry is below 1e-14.
    """
    if not 0.0 < tol_rel < 1.0:
        raise DomainError("tol_rel must lie in (0, 1)")
    if isinstance(grid, BidegreeSeries):
        matrix = grid.coeffs[:SVD_TRUNCATION, :SVD_TRUNCATION]
    else:
        matrix = np.asarray(grid, dtype=np.complex128)
    if np.max(np.abs(matrix), initial=0.0) < 1e-14:
        raise ZeroInput("all coefficients below 1e-14")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sigma > tol_rel * sigma[0]))
    return RankReport(singular_values=sigma, rank=rank, tol=float(tol_rel))


def coefficient_rows(grid: BidegreeSeries) -> np.ndarray:
    """Derivative-coefficient matrix ``a[k, l] = (l+1) c[l+1, k+1]``.

    Row ``k`` lists the series coefficients of the derivative of the
    function multiplying ``w^(k+1)`` in the two-variable extension. Its
    rank never exceeds the grid's.
    """
    c = grid.coeffs
    if c.shape[0] < 3 or c.shape[1] < 3:
        raise DomainError("grid truncation must be at least 2 in each index")
    kmax = c.shape[1] - 2
    lmax = c.shape[0] - 2
    lweights = np.arange(1, lmax + 2)
    return (c[1:, 1:] * lweights[:, None]).T  # a[k, l] = (l+1) c[l+1, k+1]


def laplacian_weighted_monomial(k: int, l: int) -> BidegreeSeries:
    """Exact polynomial ``Lap[(1 - |z|^2)^2 z^k conj(z)^l]``.

    Three monomials: ``kl z^(k-1) conj(z)^(l-1) - 2(k+1)(l+1) z^k conj(z)^l
    + (k+2)(l+2) z^(k+1) conj(z)^(l+1)``.
    """
    k, l = int(k), int(l)
    if k < 0 or l < 0 or k > 20 or l > 20:
        raise DomainError("weighted Laplacian monomial needs 0 <= k, l <= 20")
    grid = np.zeros((k + 2, l + 2), dtype=np.complex128)
    if k >= 1 and l >= 1:
        grid[k - 1, l - 1] = k * l
    grid[k, l] = -2.0 * (k + 1) * (l + 1)
    grid[k + 1, l + 1] = (k + 2) * (l + 2)
    return BidegreeSeries(grid)


@dataclass(frozen=True)
class MomentMatrix:
    """Moment matrix entries with their orientation tag."""

    entries: np.ndarray
    orientation: str

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=np.complex128).copy()
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("moment entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def kmax(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def lmax(self) -> int:
        return self.entries.shape[1] - 1

    def to_dict(self) -> dict:
        return {
            "kmax": self.kmax,
            "lmax": self.lmax,
            "orientation": self.orientation,
            "entries": [[[v.real, v.imag] for v in row] for row in self.entries],
        }


def weighted_monomial_moments(u: Symbol, pmax: int, qmax: int,
                              rule: QuadratureRule | None = None) -> np.ndarray:
    """Monomial moments ``G[p, q] = integral u z^p conj(z)^q dA``.

    Splits the symbol as the numeric transform does (the harmonic part on
    the plain rule, the atoms of each distinct center together on that
    center's singular node set), so every integral sees exactly one
    declared singularity and each node set is contracted once.
    """
    return np.zeros((pmax + 1, qmax + 1), dtype=np.complex128) + integrate_parts(
        canonicalize(u), lambda z, values: _kernels.monomial_moments(z, values, pmax, qmax),
        rule or QuadratureRule.build(), check=False, what="monomial moments")


def calibrated_orientation() -> str:
    """Orientation tag of quadrature moment matrices: always ``"full"``."""
    return "full"


def _assemble(G: np.ndarray, kmax: int, lmax: int) -> np.ndarray:
    """Three-term combination of monomial moments (full Laplacian)."""
    k = np.arange(kmax + 1)[:, None]
    l = np.arange(lmax + 1)[None, :]
    shifted = np.zeros((kmax + 1, lmax + 1), dtype=np.complex128)
    shifted[1:, 1:] = G[:kmax, :lmax]
    return (k * l * shifted
            - 2.0 * (k + 1) * (l + 1) * G[: kmax + 1, : lmax + 1]
            + (k + 2) * (l + 2) * G[1: kmax + 2, 1: lmax + 2])


def moment_matrix(u: Symbol, kmax: int, lmax: int,
                  rule: QuadratureRule | None = None) -> MomentMatrix:
    """Moment matrix of a symbol by singular quadrature."""
    if kmax < 0 or lmax < 0 or kmax > 18 or lmax > 18:
        raise DomainError("moment matrix needs 0 <= kmax, lmax <= 18")
    G = weighted_monomial_moments(u, kmax + 1, lmax + 1, rule)
    return MomentMatrix(entries=_assemble(G, kmax, lmax),
                        orientation=calibrated_orientation())


def moment_matrix_from_grid(grid: BidegreeSeries, kmax: int, lmax: int) -> MomentMatrix:
    """Moment matrix read off an exact transform grid via the
    cross-identity ``M[k, l] = c[l+1, k+1]`` (no quadrature)."""
    c = grid.coeffs
    if c.shape[0] < lmax + 2 or c.shape[1] < kmax + 2:
        raise DomainError("grid truncation too small for requested moments")
    entries = c[1: lmax + 2, 1: kmax + 2].T
    return MomentMatrix(entries=entries, orientation="grid_cross_identity")
