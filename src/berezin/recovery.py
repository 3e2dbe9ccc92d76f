"""Inverse problems: recover structure from a finite-rank transform.

* :func:`recover_nodes` estimates the singular centers from a moment
  matrix by the matrix-pencil method (shift invariance of the dominant
  singular subspace) and refines them by Gauss-Newton on the induced
  moment model ``sum_i a_i^k conj(a_i)^l (alpha_i + beta_i k + gamma_i l)``
  (the image of the canonical node forms under the moment map; first-order
  pole terms contribute the linear-in-index parts, so a node can appear as
  a confluent eigenvalue pair of multiplicity two). The refinement is a
  variable projection: the linear parameters are eliminated by one SVD of
  the design per fit, the step uses Kaufman's Jacobian with the design's
  range projected out, and it stops at a step that moves no node farther
  than CONVERGED_STEP.
* :func:`fit_node_form` solves for the node constants and the harmonic
  part by linear least squares against exact product grids. The harmonic
  unit grids fit row 0 and column 0 exactly, so the node constants come
  from the interior block ``c[1:, 1:]`` alone, solved in projected
  coordinates: every interior column is a Kronecker product of two of the
  2n series ``phi_a``, ``phi_a^2`` (and conjugates), so projecting onto
  the orthonormal bases of those series leaves a (2n)^2 x 3n problem with
  the interior's singular values. The harmonic part is the edge residual;
  the conditioning guard still measures the whole design, through a
  2k-square matrix (k = 3n) whose singular values are the design's apart
  from 2T+1-k that are exactly 1.
* :func:`factor_rank_one` writes a rank-one grid as ``p(phi_a) *
  conj(q(phi_a))`` with polynomials of degree at most 2 and ``deg p +
  deg q <= 3``, scoring in one array pass the closed-form center
  estimates of each factor's tail (a ratio fit and a recurrence fit) on
  the rows ``1, phi_a, phi_a^2`` of :func:`transform.node_series`.
  Two power steps give the factor series, and their residual proves rank
  one by Eckart-Young; the SVD of :func:`rank.numerical_rank` runs only
  where that bound fails, so it makes the same decisions.
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
    _check_truncation,
    require_finite,
)
from berezin.errors import (
    DegenerateNode,
    DomainError,
    IllConditioned,
    NoDiskDenominator,
    NonConvergence,
    NotRankOne,
    PencilFailure,
    ZeroInput,
)
from berezin.rank import DEFAULT_RANK_TOL, SVD_TRUNCATION, MomentMatrix, numerical_rank
from berezin.symbols import NodeForm, Symbol, _canonical, _preimage_terms, _product_law
from berezin.transform import node_series

#: Pencil eigenvalues closer than this are merged as one confluent node.
CLUSTER_RADIUS = 1e-4

#: Node estimates separated by less than this are rejected as ill-posed.
MIN_NODE_SEPARATION = 0.05

#: Gauss-Newton stops once a step, accepted or not, moves no node farther
#: than this: halving it further could not move one farther either.
CONVERGED_STEP = 1e-13

#: Gauss-Newton takes at most this many steps.
MAX_ITERATIONS = 50

#: Moment matrices no entry of which exceeds this hold no node.
ZERO_MOMENT_TOL = 1e-7

#: Largest relative coefficient error of an accepted rank-one factorization.
FACTOR_TOL = 1e-7

#: Node constants at or below this modulus count as zero when a node splits.
NODE_CONSTANT_TOL = 1e-14

#: Largest relative error of a harmonic part absorbed into the pieces.
ABSORB_TOL = 1e-8


# ---------------------------------------------------------------------------
# Node recovery from a moment matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeEstimate:
    nodes: tuple[complex, ...]
    confluent: tuple[bool, ...]
    residual: float
    iterations: int


def _power_tables(nodes, kmax, lmax):
    """Index-derivative power tables of every node.

    ``H[s, i, k] = k!/(k-s)! a_i^(k-s)`` for s = 0, 1, 2 and ``k <= kmax``,
    and ``B`` likewise in ``conj(a_i)`` up to ``lmax``, so that
    ``dH_s/da = H_(s+1)``. A negative exponent meets a falling factorial of
    0 (and is raised to 0), an exact zero that keeps the origin exact.
    """
    def table(z, top):
        n = np.arange(top + 1)
        exponent = np.maximum(n - np.arange(3)[:, None], 0)[:, None]
        falling = np.array([np.ones(top + 1), n, n * (n - 1)])[:, None]
        return falling * z[:, None] ** exponent

    nodes = np.asarray(nodes, dtype=np.complex128)
    return table(nodes, kmax), table(np.conj(nodes), lmax)


def _moment_design(H, B):
    """Confluent node basis: a^k conj(a)^l with its two index derivatives.

    The derivative columns k a^(k-1) conj(a)^l and l a^k conj(a)^(l-1) stay
    independent at a = 0, where the index-scaled variants would vanish.
    """
    grids = np.stack([H[s][:, :, None] * B[t][:, None, :]
                      for s, t in ((0, 0), (1, 0), (0, 1))], axis=1)
    return grids.reshape(3 * H.shape[1], -1).T


def _moment_jacobian(H, B, coeffs):
    """Derivatives of ``design @ coeffs`` in Re and Im of each node, columns
    interleaved (x_0, y_0, x_1, ...). As ``dH_s/da = H_(s+1)``, the
    derivatives in a and conj(a) are designs on the shifted tables."""
    n = H.shape[1]
    d_da = (_moment_design(H[1:], B) * coeffs).reshape(-1, n, 3).sum(axis=2)
    d_dab = (_moment_design(H, B[1:]) * coeffs).reshape(-1, n, 3).sum(axis=2)
    return np.stack([d_da + d_dab, 1j * (d_da - d_dab)], axis=2).reshape(-1, 2 * n)


def _moment_model_fit(entries, nodes):
    """Linear parameters at fixed nodes from one SVD of the design, which
    also gives the residual and an orthonormal basis of the design's range.
    Singular values are cut where ``lstsq`` cuts them, at eps * max(shape)
    of the largest. Returns ``(coeffs, residual, tables, basis)``."""
    tables = _power_tables(nodes, entries.shape[0] - 1, entries.shape[1] - 1)
    design = _moment_design(*tables)
    U, s, Vh = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape) * s[0]
    basis = U[:, keep]
    y = entries.ravel()
    projected = basis.conj().T @ y
    coeffs = Vh[keep].conj().T @ (projected / s[keep])
    return coeffs, y - basis @ projected, tables, basis


def _projected_jacobian(tables, coeffs, basis):
    """Kaufman's variable-projection Jacobian: the model Jacobian with the
    design's range projected out. Its negative is the derivative of the
    projected residual ``y - Phi Phi^+ y`` wherever that residual is 0."""
    J = _moment_jacobian(*tables, coeffs)
    return J - basis @ (basis.conj().T @ J)


def _refine_nodes(entries, nodes):
    """Gauss-Newton on the node positions by variable projection (Golub and
    Pereyra; Kaufman's Jacobian). Stops at the residual floor, at a step
    that moves no node farther than CONVERGED_STEP, or when no damped step
    lowers the residual."""
    scale = np.linalg.norm(entries)
    nodes = np.asarray(nodes, dtype=np.complex128)

    coeffs, res, tables, basis = _moment_model_fit(entries, nodes)
    best = float(np.linalg.norm(res))
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        J = _projected_jacobian(tables, coeffs, basis)
        step, *_ = np.linalg.lstsq(np.concatenate([J.real, J.imag]),
                                   np.concatenate([res.real, res.imag]), rcond=None)
        if not np.all(np.isfinite(step)):
            break
        step_c = step[0::2] + 1j * step[1::2]
        size = float(np.max(np.abs(step_c)))

        for damping in 0.5 ** np.arange(25):
            trial = nodes + damping * step_c
            if np.all(np.abs(trial) < 1.0):
                tc, tres, ttables, tbasis = _moment_model_fit(entries, trial)
                tnorm = float(np.linalg.norm(tres))
                if tnorm < best:
                    nodes, coeffs, res, tables, basis, best = trial, tc, tres, ttables, tbasis, tnorm
                    break
            if damping * size <= CONVERGED_STEP:
                break   # a shorter step would be converged too
        else:
            break   # no damped step improves the fit
        if best <= 1e-14 * scale or damping * size <= CONVERGED_STEP:
            break
    return nodes, best / scale, iterations


def recover_nodes(M: MomentMatrix, rank_bound: int) -> NodeEstimate:
    """Estimate singular centers from a moment matrix.

    Eigenvalues of the row shift restricted to the dominant singular
    subspace of the shift-augmented data give initial nodes; clusters
    within CLUSTER_RADIUS merge as confluent (multiplicity two, from
    first-order pole terms); variable-projection Gauss-Newton then refines
    them until the residual reaches 1e-14 of the data's norm, a step moves
    no node farther than CONVERGED_STEP, no halved step lowers the
    residual, or MAX_ITERATIONS steps have been taken.

    Entries whose largest modulus is at most ZERO_MOMENT_TOL hold no node.
    Otherwise the entries are scaled by the power of two that brings their
    largest modulus into [0.5, 1): the pencil and the fit see the data
    only up to scale, an exact power of two moves no bit of their
    arithmetic, and norms of moments near 1e300 stay finite. A relative
    residual above 1e-5, or one that is not a number, raises
    NonConvergence.
    """
    entries = np.asarray(M.entries, dtype=np.complex128)
    kmax = entries.shape[0] - 1
    rank_bound = int(rank_bound)
    if rank_bound < 1 or rank_bound > 2 * kmax / 3:
        raise DomainError(f"rank_bound must lie in [1, 2*kmax/3], got {rank_bound}")
    scale = float(np.max(np.abs(entries)))
    if scale <= ZERO_MOMENT_TOL:
        return NodeEstimate((), (), residual=scale, iterations=0)
    # the pencil and the fit see the data only up to scale; an exact power
    # of two changes no bit of their arithmetic and keeps its norms finite
    entries = entries * 2.0 ** -int(np.frexp(scale)[1])

    report = numerical_rank(entries)
    if report.rank > rank_bound:
        raise DomainError(f"numerical rank {report.rank} exceeds rank bound {rank_bound}")
    # Augment with the row-shifted copy: a confluent profile (a + b k) a^k
    # alone spans a space that is not shift-invariant, but together with its
    # shift it closes under the recurrence (S - a)^2 = 0. The augmented
    # column space is therefore the smallest shift-invariant space holding
    # the data, and the pencil eigenvalues are exactly the nodes.
    augmented = np.concatenate([entries[:-1, :], entries[1:, :]], axis=1)
    U, sigma, _ = np.linalg.svd(augmented)
    r = int(np.sum(sigma > DEFAULT_RANK_TOL * sigma[0]))
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

    nodes, residual, iterations = _refine_nodes(entries, nodes0)
    if not residual <= 1e-5:
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

def fit_node_form(grid: BidegreeSeries, nodes) -> tuple[NodeForm, float]:
    """Least-squares node constants and harmonic part for given nodes.

    The regressors are the exact grids of ``phi*conj(phi)``,
    ``phi^2*conj(phi)`` and ``phi*conj(phi)^2`` per node, each an outer
    product ``f ⊗ conj(g)`` of two :func:`transform.node_series` rows, plus
    one unit grid per harmonic coefficient. The unit grids touch only row 0
    and column 0, where they fit the target exactly, so the node constants
    are the least-squares solution on the interior block ``c[1:, 1:]``
    alone, and the harmonic part is the edge residual ``t_edge - edge x``.

    The interior is never formed. Its columns are ``F e_a ⊗ conj(F e_b)``
    for the T x 2n matrix ``F`` of the series ``phi_a``, ``phi_a^2`` (rows
    1..T); with ``F = Q_F R_F`` the interior is ``(Q_F ⊗ conj(Q_F)) P``,
    where ``P`` is the (2n)^2 x 3n design of columns ``R_F e_a ⊗
    conj(R_F e_b)`` and ``Q_F ⊗ conj(Q_F)`` has orthonormal columns
    (Kronecker least squares; Golub and Van Loan, Matrix Computations,
    section 12.3). So with ``P = Q R`` the constants are ``R^-1 Q^H
    vec(Q_F^H t_int Q_F)``, and ``R`` is the interior's QR factor up to
    a unitary left factor, with the same singular values.

    The full design ``D`` satisfies ``D^H D = S^H S`` with the square
    ``S = [[R, 0], [edge, I]]``, so the singular values of ``S`` are those
    of ``D``: with ``k = 3n`` and ``edge = Q_E R_E``, those of the 2k-square
    ``[[R, 0], [R_E, I_k]]`` plus ``2T+1-k`` that are exactly 1, so the SVD
    runs on that small matrix. Raises IllConditioned when the Gram
    condition of ``D`` exceeds 1e12. ``residual`` is the largest interior
    misfit, ``max |f^T diag(x) g - t_int|`` over the 3n column factors. The
    fit runs at the grid's truncation ``T``, the larger of its two; a shorter
    side is padded with zeros. Given nodes, ``T`` must pass
    :func:`core._check_truncation` and no node lie beyond MAX_CENTER_MODULUS.
    """
    nodes = [require_finite(a, "automorphism parameter") for a in nodes]
    for i, a in enumerate(nodes):
        if abs(a) > MAX_CENTER_MODULUS:
            raise DomainError(f"|a|={abs(a):.4f} exceeds {MAX_CENTER_MODULUS}; series decay too slow")
        for j in range(i + 1, len(nodes)):
            if abs(a - nodes[j]) <= 1e-8:
                raise DomainError("fit nodes must be pairwise distinct")
    T = _check_truncation(max(grid.truncation)) if nodes else max(grid.truncation)
    target = grid.padded(T, T)
    k = 3 * len(nodes)

    # column j of the design is series[fa[j]] ⊗ conj(series[gb[j]]), that
    # is phi*conj(phi), phi^2*conj(phi) and phi*conj(phi)^2 per node
    series, fa, gb = node_series(nodes, T)
    f, g = series[fa], np.conj(series[gb])

    # rows (m, 0) for m = 0..T, then (0, n) for n = 1..T
    edge = np.concatenate([f * g[:, :1], f[:, :1] * g[:, 1:]], axis=1).T
    t_edge = np.concatenate([target[:, 0], target[0, 1:]])
    t_int = target[1:, 1:]

    # interior = (Q_F ⊗ conj(Q_F)) P with F = series[:, 1:].T = Q_F R_F
    Q_F, R_F = np.linalg.qr(series[:, 1:].T)
    r = len(R_F)
    projected = (R_F[:, None, fa] * np.conj(R_F[:, gb])).reshape(r * r, k)
    Q, R = np.linalg.qr(projected)
    square = np.zeros((k, k), dtype=np.complex128)
    square[: R.shape[0]] = R   # fewer interior rows than unknowns: singular
    # with edge = Q_E R_E, rotating the edge rows of S by Q_E^H keeps its
    # singular values and splits off the 2T+1-k of them that are exactly 1
    R_E = np.linalg.qr(edge, mode="r")
    S = np.eye(k + len(R_E), dtype=np.complex128)
    S[:k, :k] = square
    S[k:, :k] = R_E
    s = np.linalg.svd(S, compute_uv=False)
    if len(R_E) < len(edge):
        s = np.append(s, 1.0)
    gram = np.inf if s.min() == 0 else (s.max() / s.min()) ** 2
    if gram > 1e12:
        raise IllConditioned(f"regressor Gram condition {gram:.3e} exceeds 1e12")
    x = np.linalg.solve(square, Q.conj().T @ (Q_F.conj().T @ t_int @ Q_F).ravel())
    harmonic = t_edge - edge @ x
    residual = float(np.max(np.abs(f[:, 1:].T @ (x[:, None] * g[:, 1:]) - t_int), initial=0.0))

    anti = PowerSeries(np.conj(np.concatenate(([0.0], harmonic[T + 1:]))))
    constants = tuple((a, *x[3 * i: 3 * i + 3]) for i, a in enumerate(nodes))
    return NodeForm(holo=PowerSeries(harmonic[: T + 1]), anti=anti, nodes=constants), residual


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
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    norm_p, norm_q = np.linalg.norm(p), np.linalg.norm(q)
    if norm_p == 0 or norm_q == 0:
        raise DomainError("gauge fixing needs nonzero factors")
    scale = np.sqrt(norm_q / norm_p)
    p, q = p * scale, q / scale
    lead = p[np.flatnonzero(np.abs(p) > 1e-10 * np.max(np.abs(p)))[0]]
    phase = lead / abs(lead)
    return p * np.conj(phase), q * np.conj(phase)


def _center_estimates(series, end) -> np.ndarray:
    """Estimates ``[ratio, u / 2]`` of ``conj(a)`` from the tail
    ``t = series[1:end]``: the least-squares ratio ``t[n+1] / t[n]``, exact
    for a simple pole, and ``u / 2`` from the least-squares recurrence
    ``t[n+2] = u t[n+1] + v t[n]``, exact for a double pole (``u = 2
    conj(a)``). A zero tail gives a nan ratio."""
    t = series[1:end]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.vdot(t[:-1], t[1:]) / np.vdot(t[:-1], t[:-1]).real
    (u, _), *_ = np.linalg.lstsq(np.stack([t[1:-1], t[:-2]], axis=1), t[2:], rcond=None)
    return np.array([ratio, u / 2])


def factor_rank_one(grid: BidegreeSeries) -> MobiusFactorization:
    """Factor a rank-one transform grid as ``p(phi_a) conj(q(phi_a))``.

    The dominant singular pair gives the two factor series ``f`` and
    ``g``: two power steps on ``C^H C`` from the largest column find it
    without an SVD. They run on the grid times ``2^-e``, the even power of
    two that brings its largest real or imaginary part near 1 (no copy at
    e = 0), so they cannot overflow; the scaling is exact, and ``p`` and
    ``q`` each take ``2^(e/2)`` back. The rank decision is that of
    :func:`numerical_rank` on the SVD_TRUNCATION corner, with the same
    errors: ZeroInput when no entry of the corner reaches 1e-14,
    NotRankOne when its rank is not one. The power steps
    mostly prove rank one themselves: on the corner ``C40``, ``sigma_2 <=
    |C40 - f40 g40^H|_F`` (Eckart-Young, as ``f40 g40^H`` has rank one)
    and ``sigma_1 >= |C40 g40| / |g40|``, so a residual at most
    DEFAULT_RANK_TOL times that lower bound is rank one. Only when the
    bound fails (a nan included) does the SVD of :func:`numerical_rank`
    run and decide.

    A factor series ``p(phi_a)`` has a pole of order ``deg p`` at
    ``1/conj(a)``; as ``deg p + deg q <= 3``, at least one side has a
    simple pole. Center candidates are, per side, two closed-form
    estimates of ``conj(a)`` (:func:`_center_estimates`): a ratio fit of
    the tail, exact for a simple pole, and half the first coefficient of a
    two-term recurrence fit, exact for a double pole; at a = 0 one is 0.
    Candidates that are not finite or lie at or beyond MAX_CENTER_MODULUS
    are dropped. All candidates are then scored in one array pass on their
    rows ``1, phi_a, phi_a^2`` (:func:`transform.node_series`, at the
    sides' length): the first three coefficients of each side give its
    polynomial in ``phi_a`` (one batched 3x3 solve), and the side is
    rebuilt from that polynomial cut to degree 1 and to degree 2 (one
    batched product with the rows) and scored by the largest relative
    coefficient error. The best must come within FACTOR_TOL, else
    NoDiskDenominator.
    """
    if np.max(np.abs(grid.coeffs[:SVD_TRUNCATION, :SVD_TRUNCATION]), initial=0.0) < 1e-14:
        raise ZeroInput("all coefficients below 1e-14")
    parts = grid.coeffs.view(np.float64)
    e = 2 * (int(np.frexp(max(parts.max(), -parts.min()))[1]) // 2)
    C = grid.coeffs if e == 0 else np.ldexp(parts, -e).view(np.complex128)
    corner = C[:SVD_TRUNCATION, :SVD_TRUNCATION]
    # two power steps on C^H C from the largest column give the dominant
    # right vector g, and C ~ f g^H with f = C g; C^H x is conj(conj(x) C).
    # Then the Eckart-Young proof of rank one on the corner; a nan (from a
    # zero g40) fails it, and the SVD decides
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = np.conj(np.conj(C[:, np.argmax(np.linalg.norm(C, axis=0))]) @ C)
        g = np.conj(np.conj(C @ g) @ C)
        g = g / np.linalg.norm(g)
        f = C @ g
        f40, g40 = f[: corner.shape[0]], g[: corner.shape[1]]
        residual = np.linalg.norm(corner - f40[:, None] * np.conj(g40))
        lower = np.linalg.norm(corner @ g40) / np.linalg.norm(g40)
    if not residual <= DEFAULT_RANK_TOL * lower:
        rank = numerical_rank(grid).rank
        if rank != 1:
            raise NotRankOne(f"numerical rank {rank} != 1")
    end = min(13, *C.shape)
    if end < 7:
        raise DomainError("grid truncation too small for factorization")
    scale_f = float(np.max(np.abs(f)))
    scale_g = float(np.max(np.abs(g)))
    if float(np.linalg.norm(g[1:])) <= 1e-10 * scale_g:
        raise NoDiskDenominator("anti-holomorphic factor is constant")
    if float(np.linalg.norm(f[1:])) <= 1e-10 * scale_f:
        raise NoDiskDenominator("holomorphic factor is constant")

    # both sides' estimates are of conj(a): neither is conjugated here
    roots = np.concatenate([_center_estimates(g, end), _center_estimates(f, end)])
    # no admissible center lies beyond MAX_CENTER_MODULUS
    roots = roots[np.isfinite(roots) & (np.abs(roots) < MAX_CENTER_MODULUS)]
    # rows[c, j] is the series of phi_a^j at candidate c, at the sides' length
    length = max(len(f), len(g))
    rows = np.zeros((len(roots), 3, length), dtype=np.complex128)
    rows[:, 0, 0] = 1.0
    rows[:, 1:] = node_series(np.conj(roots), length - 1)[0].reshape(len(roots), 2, length)
    # poly[c, :, s] (s = 0 for f, 1 for g) is that side's polynomial in
    # phi_a: its first three coefficients are the side's head
    poly = np.linalg.solve(np.swapaxes(rows[:, :, :3], 1, 2), np.stack([f[:3], g[:3]], axis=1))
    # rebuild each side from its polynomial cut to degree 1 and 2
    kept = (np.arange(3) <= np.array([[1], [2]]))[..., None]
    rebuilt = np.swapaxes(poly[:, None] * kept, -1, -2) @ rows[:, None]   # [c, d - 1, s, n]
    sides = np.zeros(rebuilt.shape[-2:], dtype=np.complex128)
    sides[0, : len(f)], sides[1, : len(g)] = f, g
    misfit = np.abs(rebuilt - sides)
    misfit[:, :, 0, len(f):], misfit[:, :, 1, len(g):] = 0.0, 0.0   # past a side's end
    errors = np.max(misfit, axis=-1) / [scale_f, scale_g]     # errors[c, d - 1, s]

    # Minimal admissible degree pattern reproducing both factor series:
    # trimming to the pattern closes the spurious quadratic channel that a
    # slightly-off center could otherwise hide behind.
    patterns = ((1, 1), (1, 2), (2, 1))
    dp, dq = np.array(patterns).T
    scores = np.maximum(errors[:, dp - 1, 0], errors[:, dq - 1, 1]).ravel().tolist()
    ok = [i for i, score in enumerate(scores) if score <= FACTOR_TOL]
    if not ok:
        if np.min(np.max(errors[:, 1], axis=1), initial=np.inf) <= FACTOR_TOL:
            raise NoDiskDenominator("factor degrees violate the constraint deg p + deg q <= 3")
        raise NoDiskDenominator("no center inside the disk reconstructs both factors")
    # smallest (degree sum, score); ties go to the earlier candidate and pattern
    c, k = divmod(min(ok, key=lambda i: (sum(patterns[i % 3]), scores[i])), 3)
    a = np.conj(roots[c])
    p = np.where(np.arange(3) <= dp[k], poly[c, :, 0], 0.0)
    q = np.where(np.arange(3) <= dq[k], poly[c, :, 1], 0.0)
    for side in (p, q):
        size = np.abs(side)
        side[size <= 1e-9 * size.max()] = 0.0
    if not (p[1:].any() and q[1:].any()):
        raise NoDiskDenominator("factor reduces to a constant polynomial")
    # on the float64 views: a complex multiply would turn -0.0 into +0.0
    p, q = (np.ldexp(side.view(np.float64), e // 2).view(np.complex128) for side in gauge_fix(p, q))
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
        num = np.zeros(truncation + 1, dtype=np.complex128)
        num[: min(len(self.numerator), truncation + 1)] = self.numerator[: truncation + 1]
        if self.power == 0 or self.center == 0:
            return PowerSeries(num)
        ab = np.conj(self.center)
        n = np.arange(truncation + 1)
        geom = ab ** n if self.power == 1 else (n + 1) * ab ** n
        return PowerSeries(np.convolve(num, geom)[: truncation + 1])

    def plus_constant(self, c: complex) -> "RationalFactor":
        ab = np.conj(self.center)
        denom = {0: [1.0], 1: [1.0, -ab], 2: [1.0, -2.0 * ab, ab * ab]}[self.power]
        denom = np.asarray(denom, dtype=np.complex128)
        width = max(len(self.numerator), len(denom))
        num = np.zeros(width, dtype=np.complex128)
        num[: len(self.numerator)] += self.numerator
        num[: len(denom)] += c * denom
        return RationalFactor(num, self.center, self.power)


@dataclass(frozen=True)
class RankOnePiece:
    """Summable symbol with a rank-one transform ``f * conj(g)``."""

    symbol: Symbol
    f: RationalFactor
    g: RationalFactor
    harmonic: bool = False


def _phi_num(a) -> np.ndarray:
    return np.array([-a, 1.0], dtype=np.complex128)


def _split_node(a: complex, c11: complex, c21: complex, c12: complex,
                truncation: int | None) -> list[tuple]:
    """:func:`decompose_node` before the symbols are built: per piece
    ``(atoms, K, L, f, g)``, with ``K`` and ``L`` harmonic coefficient arrays."""
    a = complex(a)
    c11 = 0.0 if abs(c11) <= NODE_CONSTANT_TOL else complex(c11)
    c21 = 0.0 if abs(c21) <= NODE_CONSTANT_TOL else complex(c21)
    c12 = 0.0 if abs(c12) <= NODE_CONSTANT_TOL else complex(c12)
    if c11 == c21 == c12 == 0.0:
        raise DegenerateNode("all node constants vanish")

    phi = _phi_num(a)
    one_minus = np.array([1.0, -np.conj(a)], dtype=np.complex128)
    phi_sq = np.convolve(phi, phi)
    law = _product_law(a, DEFAULT_TRUNCATION if truncation is None else truncation)

    def piece(constants, f, g):
        atoms, holo, anti = zip(*_preimage_terms(a, constants, law))
        return atoms, sum(holo[1:], holo[0]), sum(anti[1:], anti[0]), f, g

    if c21 != 0.0:
        pieces = [piece((c11, c21, 0.0),
                        RationalFactor(c11 * np.convolve(phi, one_minus) + c21 * phi_sq, a, 2),
                        RationalFactor(phi, a, 1))]
        if c12 != 0.0:
            pieces.append(piece((0.0, 0.0, c12), RationalFactor(c12 * phi, a, 1),
                                RationalFactor(phi_sq, a, 2)))
        return pieces
    if c12 != 0.0:
        g = RationalFactor(np.conj(c11) * np.convolve(phi, one_minus) + np.conj(c12) * phi_sq, a, 2)
        return [piece((c11, 0.0, c12), RationalFactor(phi, a, 1), g)]
    return [piece((c11, 0.0, 0.0), RationalFactor(c11 * phi, a, 1), RationalFactor(phi, a, 1))]


def _rank_one_piece(atoms, holo, anti, f, g) -> RankOnePiece:
    return RankOnePiece(Symbol(holo=PowerSeries(holo), anti=PowerSeries(anti), atoms=atoms), f, g)


def decompose_node(a: complex, c11: complex, c21: complex, c12: complex, *,
                   truncation: int | None = None) -> list[RankOnePiece]:
    """Rank-one pieces for one node of a canonical form.

    With ``psi = (c11 phi + c21 phi^2) conj(phi) + c12 phi conj(phi)^2``:
    when both higher coefficients are nonzero the split is two pieces with
    factor pole orders (2, 1) and (1, 2) at ``1/conj(a)``; otherwise a
    single piece suffices. Raises DegenerateNode when all three constants
    vanish. A piece's symbol is its constants times their products'
    preimages (:func:`symbols._product_law`), summed as coefficient arrays.
    """
    return [_rank_one_piece(*raw) for raw in _split_node(a, c11, c21, c12, truncation)]


def decompose_form(form: NodeForm, *, truncation: int = DEFAULT_TRUNCATION):
    """Split a canonical form into rank-one pieces plus a harmonic remainder.

    Per node the split follows :func:`decompose_node`. The harmonic part is
    then absorbed into the pieces when it lies in the spans the pieces make
    available: the anti-holomorphic part over ``{conj(g_i) - conj(g_i)(0)}``
    (each absorption replaces ``f_i`` by ``f_i + lambda_i``, keeping the
    piece rank one), then the holomorphic part over ``{1, f_i}``. A leftover
    that is exactly a constant becomes a final constant piece; any other
    unabsorbed harmonic part is returned as the remainder symbol. A piece
    stays atoms plus harmonic arrays, which the absorptions add to, until
    its one symbol is built at the end.

    Returns ``(pieces, remainder, info)`` with ``remainder`` None when the
    harmonic part was fully consumed.

    ``truncation`` is checked first (TruncationError below 0,
    TruncationOverflow above the maximum), also for a form with no nodes.
    The pieces' symbols are built at it, and the absorption is tested on
    the series up to at least it, so a harmonic part cut shorter than the
    pieces' series is not absorbed into a piece that would then not be rank
    one; it is left as the remainder.
    """
    truncation = _check_truncation(truncation)
    raw = []
    for (a, c11, c21, c12) in form.nodes:
        if max(abs(c11), abs(c21), abs(c12)) <= 1e-14:
            continue
        raw.extend(_split_node(a, c11, c21, c12, truncation))

    width = max(40, truncation, form.holo.truncation, form.anti.truncation)
    holo, anti, _ = _canonical(form.holo.padded(width), form.anti.padded(width), ())
    info = {"anti_absorbed": False, "holo_absorbed": False}
    scale = max(1.0, float(np.max(np.abs(holo))), float(np.max(np.abs(anti))))

    if raw and np.any(anti != 0):
        g_series = [g.series(width).coeffs for *_, g in raw]
        basis = np.stack([gs - gs[0] * np.eye(width + 1, 1).ravel() for gs in g_series], axis=1)
        mu, *_ = np.linalg.lstsq(basis[1:], anti[1:], rcond=None)
        if float(np.max(np.abs(basis[1:] @ mu - anti[1:]))) <= ABSORB_TOL * scale:
            # conj(mu_j g_j) less its constant joins L_j; the constant joins K_j
            for i, ((atoms, K, L, f, g), mu_j, gs) in enumerate(zip(raw, mu, g_series)):
                term = mu_j * gs
                K = np.pad(K, (0, width + 1 - len(K)))
                K[0] += np.conj(term[0])
                term[0] = 0.0
                L = np.pad(L, (0, width + 1 - len(L))) + term
                raw[i] = (atoms, K, L, f.plus_constant(np.conj(mu_j)), g)
            holo[0] -= np.sum([np.conj(mu_j * gs[0]) for mu_j, gs in zip(mu, g_series)])
            anti = np.zeros(width + 1, dtype=np.complex128)
            info["anti_absorbed"] = True

    if raw and np.any(np.abs(holo[1:]) > 1e-13 * scale):
        f_series = [f.series(width).coeffs for *_, f, _ in raw]
        basis = np.stack([np.eye(width + 1, 1).ravel()] + f_series, axis=1)
        kappa, *_ = np.linalg.lstsq(basis, holo, rcond=None)
        if float(np.max(np.abs(basis @ kappa - holo))) <= ABSORB_TOL * scale:
            raw = [(atoms, np.pad(K, (0, width + 1 - len(K))) + k_j * fs, L, f,
                    g.plus_constant(np.conj(k_j)))
                   for (atoms, K, L, f, g), k_j, fs in zip(raw, kappa[1:], f_series)]
            holo = np.array([kappa[0]])
            info["holo_absorbed"] = True

    pieces = [_rank_one_piece(*piece) for piece in raw]
    holo_c = holo[0]
    rest_zero = (np.max(np.abs(holo[1:]), initial=0.0) <= 1e-13 * scale
                 and np.max(np.abs(anti)) <= 1e-13 * scale)
    remainder = None
    if rest_zero:
        if abs(holo_c) > 1e-13 * scale:
            pieces.append(RankOnePiece(
                Symbol.constant(holo_c),
                f=RationalFactor(np.array([holo_c]), 0.0, 0),
                g=RationalFactor(np.array([1.0]), 0.0, 0),
                harmonic=True,
            ))
    else:
        remainder = Symbol(holo=PowerSeries(holo), anti=PowerSeries(anti))
    return pieces, remainder, info
