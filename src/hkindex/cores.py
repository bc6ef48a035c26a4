"""Counts and solves on the wave's core.

On the grid L = F^-1 mu F - diag(v) exactly, and v is negligible off the
wave's core, the grid points where it exceeds a cutoff.  So a count or a
solve with L reduces to a dense problem of the core's order
(Birman-Schwinger, Woodbury, Haynsworth), each block X^T diag(g) X of it
one FFT (_gram).  core_count gives the even block's gap counts, which
every verdict reads (spectra.negative_count, spectra.symmetric_spectrum);
core_counts gives n(L), d and k_r of a counting verdict (index, sweep) of
unweighted blocks, with no matrix of order n/2, certified, or declines,
and the dense route of spectra decides from the start.  This module and
spectra use each other's names only when called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import spectra as spc
from .operators import OperatorBlocks, from_coords, to_coords

# the wave's core: the grid points where v = -V exceeds CORE_FRACTION
# times the floor of the multiplier; its round-off core, where v exceeds
# ROUND_OFF_FRACTION times that floor
CORE_FRACTION = 0.01
ROUND_OFF_FRACTION = float(np.finfo(float).eps)

# inverse iteration steps for the core route's kernel: on the points that
# take the route, each step divides the share of every other direction by
# 2e9 to 2e12, the ratio of the two smallest |eigenvalues| of the matrix
_KERNEL_STEPS = 3


@dataclass(frozen=True, eq=False)
class _Core:
    """The grid points j = 0 .. n/2 of one parity where v, the even part
    of -V, exceeds a cutoff (without j = 0, n/2 for the sines, which
    vanish there), their roots sqrt(v_j), times sqrt(1/2) at j = 0, n/2,
    and beta >= 0, the largest -v_j off them."""
    points: np.ndarray
    roots: np.ndarray
    beta: float


def _core(P, parity: int, cutoff: float) -> _Core:
    n, m = P.grid.n, P.grid.n // 2
    j = np.arange(m + 1)
    v = -0.5 * (P.op.potential[j] + P.op.potential[(n - j) % n])
    if parity:
        v[[0, m]] = 0.0
    points = np.nonzero(v > cutoff)[0]
    beta = max(0.0, -float(np.min(np.delete(v, points), initial=0.0)))
    return _Core(points, np.sqrt(v[points]) * np.where(
        (points == 0) | (points == m), np.sqrt(0.5), 1.0), beta)


def _gram(g: np.ndarray, a: _Core, b: _Core, sign: float,
          cross: bool = False) -> np.ndarray:
    """X_a^T diag(g) X_b for the symbol g on the modes k = 0 .. n/2,
    where X_a X_a^T is the potential part of a block on the core a.  On
    the grid, X_a^T diag(g) X_b = r_i r_j (G(i - j) + sign G(i + j)) on
    the points i of a and j of b, with G = irfft(g), the n-periodic
    (1/n) sum of g_k cos(2 pi k q / n) over all n frequencies, g even in
    k: sign 1 on the cosines (even), -1 on the sines (odd).  Between the
    cosines of a and the sines of b (cross, sign -1), G = irfft(i g) =
    -(2/n) sum_{k=1}^{n/2-1} g_k sin(2 pi k q / n)."""
    G = np.fft.irfft(1j * g if cross else g, 2 * (g.size - 1))
    # G(i - j) and G(i + j) on the ranges of i and j, as the Toeplitz and
    # Hankel windows assemble_block takes; a core off one range is cut
    # from them
    i, j = a.points, b.points
    rows, cols = i[-1] - i[0] + 1, j[-1] - j[0] + 1
    window = np.lib.stride_tricks.sliding_window_view
    out = (np.add if sign > 0 else np.subtract)(
        window(G[np.arange(i[0] - j[-1], i[-1] - j[0] + 1)], cols)[:, ::-1],
        window(np.append(G, G[0])[i[0] + j[0]:i[-1] + j[-1] + 1], cols))
    if (rows, cols) != (i.size, j.size):
        out = out[np.ix_(i - i[0], j - j[0])]
    out *= a.roots[:, None]
    out *= b.roots
    return out


def core_count(P, ends: tuple) -> int | None:
    """#{w < -z} of the even block of P at every z of the bracket [z0, z1],
    from the wave's core; None where the core does not settle it, where
    P's weight has a zero, and where P is not an OperatorBlocks: the held
    blocks of the tests' oracle have no operator to take a core from, and
    this test keeps their even counts on the even block's factors.

    On the grid op = F^-1 mu F - v, and the even block is op on the even
    grid functions, where v acts by its even part (mirror points j and
    n - j merged, j = 0 .. n/2).  With R the weight, block + z I is
    congruent to h - v, h = mu + z / r^2; where h > 0, its negative count
    N(h) is the number of eigenvalues above 1 of X^T h^-1 X (_gram, on the
    core S = {v > delta}, delta = CORE_FRACTION min(mu): Birman-Schwinger).
    Off S, -beta <= v <= delta, so N(h_z1 + beta) <= #{w < -z1} <=
    #{w < -z0} <= N(h_z0 - delta) (Weyl): outer ends that agree give
    every count."""
    if not isinstance(P, OperatorBlocks) or (
            P.weight is not None and not np.all(P.weight)):
        return None
    m = P.grid.n // 2
    mu = P.op.multiplier_symbol
    delta = CORE_FRACTION * float(np.min(mu))
    core = _core(P, 0, delta)
    inverse = 1.0 if P.weight is None else P.weight ** -2.0
    counts = set()
    for h in (mu + ends[1] * inverse + core.beta,
              mu + ends[0] * inverse - delta):
        if not (core.points.size and np.all(h > 0)):
            return None
        a = np.eye(core.points.size) - _gram(1.0 / h[:m + 1], core, core,
                                             1.0)
        counts.add(spc._negatives(*spc._ldl(a, 0.0, a)))
    return counts.pop() if len(counts) == 1 else None


def _core_values(P, core: _Core, even: np.ndarray,
                 odd: np.ndarray) -> np.ndarray:
    """X^T u on the core, u given by its coordinates (even, odd)."""
    values = from_coords(P.grid, even, odd)[core.points]
    return core.roots * np.sqrt(2.0 * P.grid.spacing) * values


def _solve(factor: tuple, b: np.ndarray) -> np.ndarray:
    """a^-1 b from the LDL^T factor of a (spectra._ldl)."""
    return scipy.linalg.lapack.dsytrs(*factor, b)[0]


def core_counts(P, psi0: np.ndarray, zero_floor: float) -> tuple | None:
    """(n(L), d, k_r) of a counting verdict of the unweighted parity blocks
    P, from the wave's round-off core, with no matrix of order n/2; None
    where a certificate below fails, and the dense route decides.

    Notation: m = n/2, H = diag(mu_k), W = diag(2 pi xi_k) on k = 1 .. m-1,
    sigma = zero_floor^2, and each block X^T diag(g) X one FFT
    (spectra._gram).  The round-off core holds the grid points of either
    parity where v exceeds ROUND_OFF_FRACTION min(mu) = eps min(mu), and
    nowhere off it is v below -eps min(mu): there v moves each block by
    less than its round-off, and is dropped.  Its m_e + m_o + 2 must be
    below T's order m - 2.

    * n(L): the even gap count (core_count) is certified as
      symmetric_spectrum takes it, at -+1e3 z1 for the bracket [z0, z1]
      of zero_tol (spectra._bracket).  The odd counts N(t) = #{odd w < t}
      = n(I - X_o^T (H - t)^-1 X_o) (Birman-Schwinger) must be 0 at -z0
      and 1 at z0 and 1e3 z1, each at both Weyl ends: as N grows with t,
      N(-z0 + delta) = 0 and N(z0 - beta) = N(1e3 z1 + delta) = 1 settle
      all six, delta the cutoff.  That is one kernel eigenvalue, and no
      negative or near-singular one, the sides symmetric_spectrum decides.
    * The kernel K = H^-1 X_o y, normalized, where y spans the null space
      of I - X_o^T H^-1 X_o, by inverse iteration with its LDL^T factor.
    * d by Woodbury: the even share is w^T H^-1 w + b^T (I - X_e^T H^-1
      X_e)^-1 b with b = X_e^T H^-1 w, and the odd share, its kernel
      component dropped, goes through Gamma = diag(I, -1/tau) - Y^T H^-1 Y,
      Y = [X_o, K], which inverts A_sin + tau K K^T; an odd share that
      reaches K beyond 1e-6 of the right-hand side declines (Fredholm).
    * k_r without T: T + sigma I = R^T (A_cos + sigma S^+) R with S = W
      A_sin W, whose range is that of R, the complement of c = W^-1 K.
      Border by c, write (A_sin + tau K K^T)^-1 by Woodbury, and apply
      Haynsworth's inertia additivity twice: with F = diag(mu_k + sigma /
      (w_k^2 mu_k)), Z = sqrt(sigma) W^-1 H^-1 Y and V = [c, X_c, Z]
      (X_c: X_e without its constant and Nyquist rows),
      E = diag(0, I, -Gamma) - V^T F^-1 V has #{nu < -sigma} = n(E) - m_o
      - 1, where n(Gamma) = 1, that is where A_sin + tau K K^T is positive
      definite.
    * The band: max|nu| = rho(A_cos S) <= ||A_e||_1 w_max^2 ||A_sin||_1,
      and ||T||_1 <= sqrt(m - 2) max|nu|, so B = sqrt(m - 2) w_max^2
      ||A_e||_1 ||A_sin||_1 >= ||T||_1, and the band NOISE_BAND eps B
      holds that of spectra.real_pair_count.  The counts of E at sigma -+
      that band must agree, with sigma above it: a nu the dense route
      would refuse or decide by eigenvalues declines here."""
    if not isinstance(P, OperatorBlocks) or P.weight is not None:
        return None
    grid, m = P.grid, P.grid.n // 2
    mu = P.op.multiplier_symbol[:m + 1]
    cutoff = ROUND_OFF_FRACTION * float(np.min(mu))
    even, odd = _core(P, 0, cutoff), _core(P, 1, cutoff)
    m_e, m_o = even.points.size, odd.points.size
    if (max(even.beta, odd.beta) > cutoff or not m_o
            or m_e + m_o + 2 >= m - 2):
        return None
    spans = [P.span(0), P.span(1)]
    z0, z1 = spc._bracket(spans)
    if not np.all(mu > 1e3 * z1 + cutoff):
        return None
    counts = []
    for t in (-z0 + cutoff, z0 - odd.beta, 1e3 * z1 + cutoff):
        a = np.eye(m_o) - _gram(1.0 / (mu - t), odd, odd, -1.0)
        counts.append(spc._negatives(*spc._ldl(a, 0.0, a)))
    n_l = core_count(P, (-1e3 * z1, 1e3 * z1))
    if counts != [0, 1, 1] or n_l is None:
        return None

    # the kernel, by inverse iteration on the Birman-Schwinger matrix at 0
    mu_o = mu[1:m]
    a = np.eye(m_o) - _gram(1.0 / mu, odd, odd, -1.0)
    factor = spc._ldl(a, 0.0, a)
    y = np.ones(m_o)
    for _ in range(_KERNEL_STEPS):
        y = _solve(factor, y)
        y /= np.linalg.norm(y)
    del factor, a
    f = np.zeros(grid.n)
    f[odd.points] = odd.roots * y
    f[-odd.points] = -f[odd.points]
    kernel = to_coords(grid, f)[1] / mu_o
    kernel /= np.linalg.norm(kernel)

    def pad(g):
        return np.concatenate(([0.0], g, [0.0]))

    def x_even(u):
        # X_c^T u for u on the modes k = 1 .. m-1
        return _core_values(P, even, pad(u), np.zeros(m - 1))

    def x_odd(u):
        return _core_values(P, odd, np.zeros(m + 1), u)

    def y_gram(g):
        # Y^T diag(g) Y, Y = [X_o, K]
        side = x_odd(g * kernel)
        return np.block([[_gram(pad(g), odd, odd, -1.0), side[:, None]],
                         [side[None, :], g @ kernel ** 2]])

    # Gamma, with tau at the scale of the odd block's low eigenvalues
    tau = float(np.min(mu))
    gamma = -y_gram(1.0 / mu_o)
    gamma[np.diag_indices(m_o)] += 1.0
    gamma[-1, -1] -= 1.0 / tau
    a = gamma.copy()
    gamma_factor = spc._ldl(a, 0.0, a)
    if spc._negatives(*gamma_factor) != 1:
        return None

    # d, by Woodbury
    rhs = to_coords(grid, spc._decaying_antiderivative(grid, psi0))
    if abs(kernel @ rhs[1]) > 1e-6 * float(np.linalg.norm(
            np.concatenate(rhs))):
        return None
    u = rhs[0] / mu
    b = _core_values(P, even, u, np.zeros(m - 1))
    a = np.eye(m_e) - _gram(1.0 / mu, even, even, 1.0)
    d = float(rhs[0] @ u + b @ _solve(spc._ldl(a, 0.0, a), b))
    del a
    share = rhs[1] - kernel * (kernel @ rhs[1])
    u = share / mu_o
    b = np.append(x_odd(u), kernel @ u)
    d += float(share @ u + b @ _solve(gamma_factor, b))

    # k_r, from the inertia of E at both ends of the band
    w = spc._d_weights(grid)
    c = kernel / w
    band = spc.NOISE_BAND * float(np.finfo(float).eps) * np.sqrt(m - 2.0) \
        * w[-1] ** 2 * spans[0][2] * spans[1][2]
    sigma = zero_floor ** 2
    if not sigma > band:
        return None
    k_r = set()
    size = m_e + m_o + 2
    xs, zs = slice(1, 1 + m_e), slice(1 + m_e, size)
    for shift in (sigma - band, sigma + band):
        f_inv = 1.0 / (mu_o + shift / (w ** 2 * mu_o))
        z = np.sqrt(shift) / (w * mu_o)   # Z = diag(z) Y
        # E = diag(0, I, -Gamma) - V^T F^-1 V, V = [c, X_c, Z], in place
        e = np.empty((size, size))
        e[0, 0] = -(c @ (f_inv * c))
        e[0, xs] = e[xs, 0] = -x_even(f_inv * c)
        e[0, zs] = e[zs, 0] = -np.append(x_odd(z * f_inv * c),
                                         kernel @ (z * f_inv * c))
        np.negative(_gram(pad(f_inv), even, even, 1.0), out=e[xs, xs])
        e[xs, xs][np.diag_indices(m_e)] += 1.0
        np.negative(_gram(pad(z * f_inv), even, odd, -1.0, cross=True),
                    out=e[xs, zs.start:-1])
        e[xs, -1] = -x_even(z * f_inv * kernel)
        e[zs, xs] = e[xs, zs].T
        np.negative(y_gram(z * z * f_inv), out=e[zs, zs])
        e[zs, zs] -= gamma
        k_r.add(spc._negatives(*spc._ldl(e, 0.0, e)) - m_o - 1)
    if len(k_r) > 1:
        return None
    return n_l, d, k_r.pop()
