"""Inverse problems: recover structure from a finite-rank transform.

* :func:`recover_nodes` estimates the singular centers from a moment
  matrix by the matrix-pencil method (shift invariance of the dominant
  singular subspace) and refines them by Gauss-Newton on the induced
  moment model ``sum_i a_i^k conj(a_i)^l (alpha_i + beta_i k + gamma_i l)``
  (the image of the canonical node forms under the moment map; first-order
  pole terms contribute the linear-in-index parts, so a node can appear as
  a confluent eigenvalue pair of multiplicity two).
* :func:`fit_node_form` solves for the node constants and the harmonic
  part by linear least squares against exact product grids. The harmonic
  unit grids fit row 0 and column 0 exactly, so the node constants come
  from a QR solve on the interior block ``c[1:, 1:]`` alone and the
  harmonic part is the edge residual; the conditioning guard still
  measures the whole design, through a small square matrix with the same
  singular values.
* :func:`factor_rank_one` writes a rank-one grid as ``p(phi_a) *
  conj(q(phi_a))`` with polynomials of degree at most 2 and ``deg p +
  deg q <= 3``.
* :func:`decompose_node` / :func:`decompose_form` split a canonical form
  into summable pieces whose transforms are rank one, absorbing as much of
  the harmonic part into the pieces as linear algebra allows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from berezin.core import (
    DEFAULT_TRUNCATION,
    MAX_CENTER_MODULUS,
    BidegreeSeries,
    PowerSeries,
    mobius_power_series,
)
from berezin.errors import (
    DegenerateNode,
    DomainError,
    IllConditioned,
    NoDiskDenominator,
    NonConvergence,
    NotRankOne,
    PencilFailure,
)
from berezin.rank import DEFAULT_RANK_TOL, MomentMatrix, numerical_rank
from berezin.symbols import NodeForm, Symbol, canonicalize, product_preimage_symbol

#: Pencil eigenvalues closer than this are merged as one confluent node.
CLUSTER_RADIUS = 1e-4

#: Node estimates separated by less than this are rejected as ill-posed.
MIN_NODE_SEPARATION = 0.05


# ---------------------------------------------------------------------------
# Node recovery from a moment matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeEstimate:
    nodes: tuple[complex, ...]
    confluent: tuple[bool, ...]
    residual: float
    iterations: int


def _pow0(a, exponents):
    """``a**e`` with negative exponents masked to zero (0**0 = 1)."""
    return np.where(exponents >= 0, a ** np.maximum(exponents, 0.0), 0.0)


def _moment_design(nodes, kmax, lmax):
    """Confluent node basis: a^k conj(a)^l with its two index derivatives.

    The derivative columns k a^(k-1) conj(a)^l and l a^k conj(a)^(l-1) stay
    independent at a = 0, where the index-scaled variants would vanish.
    """
    K = np.arange(kmax + 1, dtype=float)[:, None]
    L = np.arange(lmax + 1, dtype=float)[None, :]
    cols = []
    for a in nodes:
        ab = np.conj(a)
        cols.append(_pow0(a, K) * _pow0(ab, L))
        cols.append(K * _pow0(a, K - 1) * _pow0(ab, L))
        cols.append(L * _pow0(a, K) * _pow0(ab, L - 1))
    return np.stack([c.ravel() for c in cols], axis=1)


def _moment_model_fit(entries, nodes):
    design = _moment_design(nodes, entries.shape[0] - 1, entries.shape[1] - 1)
    coeffs, *_ = np.linalg.lstsq(design, entries.ravel(), rcond=None)
    residual = entries.ravel() - design @ coeffs
    return coeffs, residual


def _refine_nodes(entries, nodes, max_iterations):
    """Gauss-Newton on the node positions, linear parameters eliminated."""
    kmax, lmax = entries.shape[0] - 1, entries.shape[1] - 1
    K = np.arange(kmax + 1, dtype=float)[:, None]
    L = np.arange(lmax + 1, dtype=float)[None, :]
    scale = np.linalg.norm(entries)
    nodes = np.asarray(nodes, dtype=np.complex128)

    coeffs, res = _moment_model_fit(entries, nodes)
    best = float(np.linalg.norm(res))
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        jac_cols = []
        for i, a in enumerate(nodes):
            ab = np.conj(a)
            alpha, beta, gamma = coeffs[3 * i: 3 * i + 3]
            # derivatives of alpha*P + beta*dP/dk-index + gamma*dP/dl-index
            # with respect to a and conj(a), masked at the confluent origin
            d_da = (alpha * K * _pow0(a, K - 1) * _pow0(ab, L)
                    + beta * K * (K - 1) * _pow0(a, K - 2) * _pow0(ab, L)
                    + gamma * K * L * _pow0(a, K - 1) * _pow0(ab, L - 1))
            d_dab = (alpha * L * _pow0(a, K) * _pow0(ab, L - 1)
                     + beta * K * L * _pow0(a, K - 1) * _pow0(ab, L - 1)
                     + gamma * L * (L - 1) * _pow0(a, K) * _pow0(ab, L - 2))
            jac_cols.append((d_da + d_dab).ravel())          # d/dx
            jac_cols.append((1j * (d_da - d_dab)).ravel())   # d/dy
        J = np.stack(jac_cols, axis=1)
        Jr = np.concatenate([J.real, J.imag], axis=0)
        rr = np.concatenate([res.real, res.imag])
        step, *_ = np.linalg.lstsq(Jr, rr, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        step_c = step[0::2] + 1j * step[1::2]

        damping = 1.0
        improved = False
        for _ in range(25):
            trial = nodes + damping * step_c
            if np.all(np.abs(trial) < 1.0):
                tc, tres = _moment_model_fit(entries, trial)
                tnorm = float(np.linalg.norm(tres))
                if tnorm < best:
                    nodes, coeffs, res, best = trial, tc, tres, tnorm
                    improved = True
                    break
            damping *= 0.5
        if not improved or best <= 1e-14 * scale:
            break
    return nodes, best / scale, iterations


def recover_nodes(M: MomentMatrix, rank_bound: int, *,
                  tol_rel: float = DEFAULT_RANK_TOL,
                  zero_tol: float = 1e-7,
                  max_iterations: int = 50) -> NodeEstimate:
    """Estimate singular centers from a moment matrix.

    Eigenvalues of the row shift restricted to the dominant singular
    subspace of the shift-augmented data give initial nodes; clusters
    within CLUSTER_RADIUS merge as confluent (multiplicity two, from
    first-order pole terms); Gauss-Newton then refines until the residual
    stalls.
    """
    entries = np.asarray(M.entries, dtype=np.complex128)
    kmax = entries.shape[0] - 1
    rank_bound = int(rank_bound)
    if rank_bound < 1 or rank_bound > 2 * kmax / 3:
        raise DomainError(f"rank_bound must lie in [1, 2*kmax/3], got {rank_bound}")
    scale = float(np.max(np.abs(entries)))
    if scale <= zero_tol:
        return NodeEstimate((), (), residual=scale, iterations=0)

    report = numerical_rank(entries, tol_rel)
    if report.rank > rank_bound:
        raise DomainError(
            f"numerical rank {report.rank} exceeds rank bound {rank_bound}"
        )
    # Augment with the row-shifted copy: a confluent profile (a + b k) a^k
    # alone spans a space that is not shift-invariant, but together with its
    # shift it closes under the recurrence (S - a)^2 = 0. The augmented
    # column space is therefore the smallest shift-invariant space holding
    # the data, and the pencil eigenvalues are exactly the nodes.
    augmented = np.concatenate([entries[:-1, :], entries[1:, :]], axis=1)
    U, sigma, _ = np.linalg.svd(augmented)
    r = int(np.sum(sigma > tol_rel * sigma[0]))
    U = U[:, :r]
    shift, *_ = np.linalg.lstsq(U[:-1, :], U[1:, :], rcond=None)
    lam = np.linalg.eigvals(shift)
    if np.any(np.abs(lam) >= 1.0 + 1e-6):
        raise PencilFailure(
            f"pencil eigenvalue outside the disk: max |lambda| = {np.max(np.abs(lam)):.6f}"
        )
    lam = lam[np.lexsort((lam.imag, lam.real))]

    clusters: list[list[complex]] = []
    for value in lam:
        for group in clusters:
            if abs(value - np.mean(group)) <= CLUSTER_RADIUS:
                group.append(value)
                break
        else:
            clusters.append([value])
    nodes0 = np.array([np.mean(g) for g in clusters])
    confluent = tuple(len(g) >= 2 for g in clusters)
    for i in range(len(nodes0)):
        for j in range(i + 1, len(nodes0)):
            if abs(nodes0[i] - nodes0[j]) < MIN_NODE_SEPARATION:
                raise IllConditioned(
                    f"node separation {abs(nodes0[i] - nodes0[j]):.4f} below "
                    f"{MIN_NODE_SEPARATION}; ill-posed at this truncation"
                )

    nodes, residual, iterations = _refine_nodes(entries, nodes0, max_iterations)
    if residual > 1e-5:
        raise NonConvergence(f"node refinement stalled at relative residual {residual:.3e}")
    order = np.lexsort((nodes.imag, nodes.real))
    return NodeEstimate(
        nodes=tuple(complex(v) for v in nodes[order]),
        confluent=tuple(confluent[i] for i in order),
        residual=residual,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Node-form fitting on an exact grid
# ---------------------------------------------------------------------------

def fit_node_form(grid: BidegreeSeries, nodes, *,
                  truncation: int | None = None) -> tuple[NodeForm, float]:
    """Least-squares node constants and harmonic part for given nodes.

    The regressors are the exact grids of ``phi*conj(phi)``,
    ``phi^2*conj(phi)`` and ``phi*conj(phi)^2`` per node, each an outer
    product ``f ⊗ conj(g)`` of two Moebius power series, plus one unit grid
    per harmonic coefficient. The unit grids touch only row 0 and column 0,
    where they fit the target exactly, so the node constants are the
    least-squares solution on the interior block ``c[1:, 1:]`` alone: with
    ``interior = Q R`` they are ``R^-1 Q^H t_int``, and the harmonic part
    is the edge residual ``t_edge - edge x``.

    The full design ``D`` satisfies ``D^H D = S^H S`` with the square
    ``S = [[R, 0], [edge, I]]``, so the singular values of ``S`` are those
    of ``D``. Raises IllConditioned when the Gram condition of ``D``
    exceeds 1e12.
    """
    nodes = [complex(a) for a in nodes]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if abs(nodes[i] - nodes[j]) <= 1e-8:
                raise DomainError("fit nodes must be pairwise distinct")
    T = truncation if truncation is not None else max(grid.truncation)
    target = grid.padded(T, T)
    k = 3 * len(nodes)

    # factor series f (holomorphic) and conj(g) (anti-holomorphic) of the
    # columns phi*conj(phi), phi^2*conj(phi), phi*conj(phi)^2 per node
    f = np.empty((k, T + 1), dtype=np.complex128)
    g = np.empty((k, T + 1), dtype=np.complex128)
    for i, a in enumerate(nodes):
        phi = mobius_power_series(a, 1, T).coeffs
        phi2 = mobius_power_series(a, 2, T).coeffs
        f[3 * i: 3 * i + 3] = (phi, phi2, phi)
        g[3 * i: 3 * i + 3] = np.conj((phi, phi, phi2))

    # rows (m, 0) for m = 0..T, then (0, n) for n = 1..T
    edge = np.concatenate([f * g[:, :1], f[:, :1] * g[:, 1:]], axis=1).T
    t_edge = np.concatenate([target[:, 0], target[0, 1:]])
    interior = (f[:, 1:, None] * g[:, None, 1:]).reshape(k, T * T).T
    t_int = target[1:, 1:].ravel()

    Q, R = np.linalg.qr(interior)
    square = np.zeros((k, k), dtype=np.complex128)
    square[: R.shape[0]] = R   # fewer interior rows than unknowns: singular
    S = np.eye(k + 2 * T + 1, dtype=np.complex128)
    S[:k, :k] = square
    S[k:, :k] = edge
    s = np.linalg.svd(S, compute_uv=False)
    gram = np.inf if s[-1] == 0 else (s[0] / s[-1]) ** 2
    if gram > 1e12:
        raise IllConditioned(f"regressor Gram condition {gram:.3e} exceeds 1e12")
    x = np.linalg.solve(square, Q.conj().T @ t_int)
    harmonic = t_edge - edge @ x
    residual = float(np.max(np.abs(interior @ x - t_int), initial=0.0))

    holo = PowerSeries(harmonic[: T + 1])
    anti_conj = np.concatenate(([0.0], harmonic[T + 1:]))
    form = NodeForm(
        holo=holo,
        anti=PowerSeries(np.conj(anti_conj)),
        nodes=tuple(
            (nodes[i], x[3 * i], x[3 * i + 1], x[3 * i + 2])
            for i in range(len(nodes))
        ),
    )
    return form, residual


# ---------------------------------------------------------------------------
# Rank-one factorization  p(phi_a) * conj(q(phi_a))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MobiusFactorization:
    """Rank-one structure: center ``a`` and polynomials ``p``, ``q`` in the
    automorphism variable, gauge-fixed (balanced norms, leading coefficient
    of ``p`` real positive)."""

    a: complex
    p: np.ndarray
    q: np.ndarray


def gauge_fix(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Canonical representative under ``(p, q) -> (mu p, q / conj(mu))``.

    Balances the coefficient norms, then rotates so the first nonzero
    coefficient of ``p`` is real positive.
    """
    p = np.asarray(p, dtype=np.complex128).copy()
    q = np.asarray(q, dtype=np.complex128).copy()
    norm_p, norm_q = np.linalg.norm(p), np.linalg.norm(q)
    if norm_p == 0 or norm_q == 0:
        raise DomainError("gauge fixing needs nonzero factors")
    scale = np.sqrt(norm_q / norm_p)
    p, q = p * scale, q / scale
    lead = p[np.flatnonzero(np.abs(p) > 1e-10 * np.max(np.abs(p)))[0]]
    phase = lead / abs(lead)
    return p * np.conj(phase), q * np.conj(phase)


def _times_square(series, b):
    """``series * (1 - b z)^2``, truncated to the length of ``series``."""
    return np.convolve(series, [1.0, -2.0 * b, b * b])[: len(series)]


def _polish_denominator_root(series, b_conj, span, steps=40):
    """Gauss-Newton on the overdetermined vanishing system; residuals are
    holomorphic in the unknown, so complex normal equations apply."""
    n = np.asarray(span)
    best = b_conj
    best_norm = float(np.linalg.norm(_times_square(series, best)[n]))
    for _ in range(steps):
        r = _times_square(series, best)[n]
        J = -2.0 * series[n - 1] + 2.0 * best * series[n - 2]
        denom = np.vdot(J, J).real
        if denom == 0:
            break
        delta = -np.vdot(J, r) / denom
        trial = best + delta
        trial_norm = float(np.linalg.norm(_times_square(series, trial)[n]))
        if trial_norm >= best_norm:
            break
        best, best_norm = trial, trial_norm
        if best_norm <= 1e-15 * max(1.0, float(np.max(np.abs(series)))):
            break
    return best, best_norm


def _phi_basis(a) -> np.ndarray:
    """Columns: numerators of ``1``, ``phi_a`` and ``phi_a^2`` over
    ``(1 - conj(a) z)^2``, as coefficients of ``1, z, z^2``."""
    ab = np.conj(a)
    return np.array([
        [1.0, -a, a * a],
        [-2.0 * ab, 1.0 + abs(a) ** 2, -2.0 * a],
        [ab * ab, -ab, 1.0],
    ])


def factor_rank_one(grid: BidegreeSeries, *, tol: float = 1e-7) -> MobiusFactorization:
    """Factor a rank-one transform grid as ``p(phi_a) conj(q(phi_a))``.

    The dominant singular pair gives the two factor series; once
    :func:`numerical_rank` has proved rank one, two power steps find it
    without a full SVD. Both are a numerator of degree at most 2 over
    ``(1 - conj(a) z)^2``, so both vanishing systems
    ``series * (1 - conj(a) z)^2 = numerator`` share the root ``conj(a)``.
    Center candidates come from each side's first vanishing condition
    (companion roots), a one-term ratio fit per side (exact for
    denominator power one), and zero; each is polished on the full
    overdetermined vanishing system. Per candidate, each side's
    numerator gives its polynomial in ``phi_a``, and the side is rebuilt
    from that numerator truncated to degree 1 and to degree 2 and scored
    by the largest relative coefficient error. The best reconstruction
    must come within ``tol``, else NoDiskDenominator.
    """
    report = numerical_rank(grid)
    if report.rank != 1:
        raise NotRankOne(f"numerical rank {report.rank} != 1")
    # the grid is rank one, so two power steps on C^H C from its largest
    # column give the dominant right vector g; then C = f g^H with f = C g
    C = grid.coeffs
    g = C.conj().T @ C[:, np.argmax(np.linalg.norm(C, axis=0))]
    g = C.conj().T @ (C @ g)
    g = g / np.linalg.norm(g)
    f = C @ g
    span = np.arange(3, min(13, len(g)))
    if len(span) < 4:
        raise DomainError("grid truncation too small for factorization")
    scale_f = float(np.max(np.abs(f)))
    scale_g = float(np.max(np.abs(g)))
    if float(np.linalg.norm(g[1:])) <= 1e-10 * scale_g:
        raise NoDiskDenominator("anti-holomorphic factor is constant")
    if float(np.linalg.norm(f[1:])) <= 1e-10 * scale_f:
        raise NoDiskDenominator("holomorphic factor is constant")

    def side_candidates(series, scale):
        found = []
        quad = np.array([series[1], -2.0 * series[2], series[3]])
        if np.max(np.abs(quad)) > 1e-13 * scale:
            lead = np.flatnonzero(np.abs(quad) > 1e-12 * np.max(np.abs(quad)))[0]
            found.extend(np.roots(quad[lead:]))
        # one-term ratio fit: exact when this factor has denominator power
        # one (there the vanishing system has only a double root)
        tail = series[2: span[-1] + 1]
        denom = float(np.vdot(tail[:-1], tail[:-1]).real)
        if denom > (1e-13 * scale) ** 2:
            found.append(np.vdot(tail[:-1], tail[1:]) / denom)
        polished = []
        for cand in found:
            if abs(cand) >= 1.0:
                continue
            root, _ = _polish_denominator_root(series, complex(cand), span)
            # no admissible center lies beyond MAX_CENTER_MODULUS
            if abs(root) < MAX_CENTER_MODULUS:
                polished.append(complex(root))
        return polished

    # both sides' roots estimate conj(a): neither is conjugated here
    roots = [0.0 + 0.0j] + side_candidates(g, scale_g) + side_candidates(f, scale_f)

    def fit_side(series, scale, a, basis):
        """Polynomial in ``phi_a`` read off the numerator, and the side's
        relative reconstruction error at degree 1 and 2 (indexed by d)."""
        coeffs = np.linalg.solve(basis, _times_square(series, np.conj(a))[:3])
        errors = {}
        for d in (1, 2):
            numerator = basis[:, : d + 1] @ coeffs[: d + 1]
            rebuilt = RationalFactor(numerator, a, 2).series(len(series) - 1).coeffs
            errors[d] = float(np.max(np.abs(rebuilt - series))) / scale
        return coeffs, errors

    # Minimal admissible degree pattern reproducing both factor series:
    # trimming to the pattern closes the spurious quadratic channel that a
    # slightly-off center could otherwise hide behind.
    patterns = ((1, 1), (1, 2), (2, 1))
    degrees = np.arange(3)
    best = None          # (degree sum, score, a, p, q)
    best_full = np.inf   # best untrimmed score, used only for diagnostics
    for root in roots:
        a_try = complex(np.conj(root))
        basis = _phi_basis(a_try)
        p_full, err_f = fit_side(f, scale_f, a_try, basis)
        q_full, err_g = fit_side(g, scale_g, a_try, basis)
        best_full = min(best_full, max(err_f[2], err_g[2]))
        for dp, dq in patterns:
            score = max(err_f[dp], err_g[dq])
            if score <= tol and (best is None or (dp + dq, score) < best[:2]):
                best = (dp + dq, score, a_try, np.where(degrees <= dp, p_full, 0.0),
                        np.where(degrees <= dq, q_full, 0.0))
    if best is None:
        if best_full <= tol:
            raise NoDiskDenominator(
                "factor degrees violate the constraint deg p + deg q <= 3"
            )
        raise NoDiskDenominator(
            "no center inside the disk reconstructs both factors"
        )
    _, _, a, p, q = best
    p[np.abs(p) <= 1e-9 * np.max(np.abs(p))] = 0.0
    q[np.abs(q) <= 1e-9 * np.max(np.abs(q))] = 0.0
    deg_p = int(np.max(np.flatnonzero(p != 0), initial=0))
    deg_q = int(np.max(np.flatnonzero(q != 0), initial=0))
    if deg_p == 0 or deg_q == 0:
        raise NoDiskDenominator("factor reduces to a constant polynomial")
    p, q = gauge_fix(p, q)
    return MobiusFactorization(a=complex(a), p=p, q=q)


# ---------------------------------------------------------------------------
# Rank-one decomposition of canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFactor:
    """Polynomial over ``(1 - conj(center) z)^power``; the factor shape of
    every rank-one piece."""

    numerator: np.ndarray
    center: complex
    power: int

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.numerator, dtype=np.complex128)).copy()
        num.setflags(write=False)
        object.__setattr__(self, "numerator", num)
        if self.power not in (0, 1, 2):
            raise DomainError("denominator power must be 0, 1 or 2")

    def series(self, truncation: int = DEFAULT_TRUNCATION) -> PowerSeries:
        num = PowerSeries(self.numerator)
        if self.power == 0 or self.center == 0:
            return PowerSeries(num.padded(truncation))
        ab = np.conj(self.center)
        n = np.arange(truncation + 1)
        geom = ab ** n if self.power == 1 else (n + 1) * ab ** n
        return PowerSeries(np.convolve(num.padded(truncation), geom)[: truncation + 1])

    def plus_constant(self, c: complex) -> "RationalFactor":
        ab = np.conj(self.center)
        denom = {0: [1.0], 1: [1.0, -ab], 2: [1.0, -2.0 * ab, ab * ab]}[self.power]
        denom = np.asarray(denom, dtype=np.complex128)
        width = max(len(self.numerator), len(denom))
        num = np.zeros(width, dtype=np.complex128)
        num[: len(self.numerator)] += self.numerator
        num[: len(denom)] += c * denom
        return RationalFactor(num, self.center, self.power)

    def pole_order(self, tol: float = 1e-10) -> int:
        """Order of the pole at ``1/conj(center)`` (center must be nonzero)."""
        if self.power == 0:
            return 0
        if self.center == 0:
            raise DomainError("pole order undefined for a zero center")
        b = 1.0 / np.conj(self.center)
        order = self.power
        num = self.numerator.copy()
        scale = np.max(np.abs(num))
        while order > 0 and len(num) > 1:
            if abs(np.polynomial.polynomial.polyval(b, num)) > tol * scale:
                break
            num = np.polynomial.polynomial.polydiv(
                num, np.array([-b, 1.0], dtype=np.complex128)
            )[0]
            order -= 1
        return order


@dataclass(frozen=True)
class RankOnePiece:
    """Summable symbol with a rank-one transform ``f * conj(g)``."""

    symbol: Symbol
    f: RationalFactor
    g: RationalFactor
    harmonic: bool = False


def _phi_num(a) -> np.ndarray:
    return np.array([-a, 1.0], dtype=np.complex128)


def decompose_node(a: complex, c11: complex, c21: complex, c12: complex, *,
                   truncation: int | None = None,
                   tol: float = 1e-14) -> list[RankOnePiece]:
    """Rank-one pieces for one node of a canonical form.

    With ``psi = (c11 phi + c21 phi^2) conj(phi) + c12 phi conj(phi)^2``:
    when both higher coefficients are nonzero the split is two pieces with
    factor pole orders (2, 1) and (1, 2) at ``1/conj(a)``; otherwise a
    single piece suffices. Raises DegenerateNode when all three constants
    vanish.
    """
    a = complex(a)
    ab = np.conj(a)
    c11 = 0.0 if abs(c11) <= tol else complex(c11)
    c21 = 0.0 if abs(c21) <= tol else complex(c21)
    c12 = 0.0 if abs(c12) <= tol else complex(c12)
    if c11 == c21 == c12 == 0.0:
        raise DegenerateNode("all node constants vanish")

    phi = _phi_num(a)
    one_minus = np.array([1.0, -ab], dtype=np.complex128)
    phi_sq = np.convolve(phi, phi)

    def preimage(c, jk):
        return product_preimage_symbol(a, *jk, truncation).scaled(c)

    pieces = []
    if c21 != 0.0:
        f = RationalFactor(c11 * np.convolve(phi, one_minus) + c21 * phi_sq, a, 2)
        g = RationalFactor(phi, a, 1)
        u = canonicalize(preimage(c11, (1, 1)) + preimage(c21, (2, 1)))
        pieces.append(RankOnePiece(u, f, g))
        if c12 != 0.0:
            f2 = RationalFactor(c12 * phi, a, 1)
            g2 = RationalFactor(phi_sq, a, 2)
            pieces.append(RankOnePiece(preimage(c12, (1, 2)), f2, g2))
    elif c12 != 0.0:
        f = RationalFactor(phi, a, 1)
        g = RationalFactor(
            np.conj(c11) * np.convolve(phi, one_minus) + np.conj(c12) * phi_sq, a, 2
        )
        u = canonicalize(preimage(c11, (1, 1)) + preimage(c12, (1, 2)))
        pieces.append(RankOnePiece(u, f, g))
    else:
        f = RationalFactor(c11 * phi, a, 1)
        g = RationalFactor(phi, a, 1)
        pieces.append(RankOnePiece(preimage(c11, (1, 1)), f, g))
    return pieces


def decompose_form(form: NodeForm, *, truncation: int = DEFAULT_TRUNCATION,
                   tol: float = 1e-8):
    """Split a canonical form into rank-one pieces plus a harmonic remainder.

    Per node the split follows :func:`decompose_node`. The harmonic part is
    then absorbed into the pieces when it lies in the spans the pieces make
    available: the anti-holomorphic part over ``{conj(g_i) - conj(g_i)(0)}``
    (each absorption replaces ``f_i`` by ``f_i + lambda_i``, keeping the
    piece rank one), then the holomorphic part over ``{1, f_i}``. A leftover
    that is exactly a constant becomes a final constant piece; any other
    unabsorbed harmonic part is returned as the remainder symbol.

    Returns ``(pieces, remainder, info)`` with ``remainder`` None when the
    harmonic part was fully consumed.
    """
    pieces: list[RankOnePiece] = []
    for (a, c11, c21, c12) in form.nodes:
        if max(abs(c11), abs(c21), abs(c12)) <= 1e-14:
            continue
        pieces.extend(decompose_node(a, c11, c21, c12, truncation=truncation))

    width = max(40, form.holo.truncation, form.anti.truncation)
    harmonic = canonicalize(Symbol(holo=PowerSeries(form.holo.padded(width)),
                                   anti=PowerSeries(form.anti.padded(width))))
    holo, anti = harmonic.holo, harmonic.anti
    info = {"anti_absorbed": False, "holo_absorbed": False}
    scale = max(1.0, float(np.max(np.abs(holo.coeffs))), float(np.max(np.abs(anti.coeffs))))

    if pieces and not anti.is_zero(0.0):
        g_series = [piece.g.series(width).coeffs for piece in pieces]
        basis = np.stack([gs - gs[0] * np.eye(width + 1, 1).ravel() for gs in g_series], axis=1)
        target = anti.coeffs
        mu, *_ = np.linalg.lstsq(basis[1:], target[1:], rcond=None)
        if float(np.max(np.abs(basis[1:] @ mu - target[1:]))) <= tol * scale:
            new_pieces = []
            for piece, mu_j, gs in zip(pieces, mu, g_series):
                lam = np.conj(mu_j)
                add = canonicalize(Symbol(anti=PowerSeries(mu_j * gs)))
                new_pieces.append(RankOnePiece(
                    canonicalize(piece.symbol + add),
                    piece.f.plus_constant(lam), piece.g, piece.harmonic,
                ))
            pieces = new_pieces
            holo = holo + PowerSeries.constant(
                -np.sum([np.conj(mu_j * gs[0]) for mu_j, gs in zip(mu, g_series)])
            )
            anti = PowerSeries.zero(width)
            info["anti_absorbed"] = True

    nonconstant = np.any(np.abs(holo.coeffs[1:]) > 1e-13 * scale)
    if pieces and nonconstant:
        f_series = [piece.f.series(width).coeffs for piece in pieces]
        basis = np.stack([np.eye(width + 1, 1).ravel()] + f_series, axis=1)
        kappa, *_ = np.linalg.lstsq(basis, holo.coeffs, rcond=None)
        if float(np.max(np.abs(basis @ kappa - holo.coeffs))) <= tol * scale:
            new_pieces = []
            for piece, k_j, fs in zip(pieces, kappa[1:], f_series):
                add = Symbol(holo=PowerSeries(k_j * fs))
                new_pieces.append(RankOnePiece(
                    canonicalize(piece.symbol + add),
                    piece.f, piece.g.plus_constant(np.conj(k_j)), piece.harmonic,
                ))
            pieces = new_pieces
            holo = PowerSeries.constant(kappa[0])
            info["holo_absorbed"] = True

    holo_c = holo.coeffs[0]
    holo_rest = holo.coeffs.copy()
    holo_rest[0] = 0.0
    rest_zero = (np.max(np.abs(holo_rest)) <= 1e-13 * scale) and anti.is_zero(1e-13 * scale)
    remainder = None
    if rest_zero:
        if abs(holo_c) > 1e-13 * scale:
            const = Symbol.constant(holo_c)
            pieces.append(RankOnePiece(
                const,
                f=RationalFactor(np.array([holo_c]), 0.0, 0),
                g=RationalFactor(np.array([1.0]), 0.0, 0),
                harmonic=True,
            ))
    else:
        remainder = canonicalize(Symbol(holo=holo, anti=anti))
    return pieces, remainder, info
