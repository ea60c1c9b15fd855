"""Tridiagonal Schroedinger solve and heat kernels.

The operator is -1/2 d^2/dx^2 + V on a uniform grid with homogeneous
Dirichlet values one spacing outside both grid ends. After the ground
solve the potential is shifted by -E0 so the bottom of the spectrum is
zero; heat kernels always refer to the shifted operator A = H - E0.

Heat kernels exp(-tA) are built entrywise to high relative accuracy with
non-negative arithmetic only (Xue & Ye, "Computing exponentials of
essentially non-negative matrices entrywise to high relative accuracy",
Math. Comp. 82, 2013). With c the largest diagonal entry of A, the
tridiagonal B = cI - A is entrywise non-negative and
exp(-tA) = exp(-tc) exp(tB). A Taylor polynomial T = T_q(tau B) with
tau = t / 2^s is summed in banded storage and squared s times. Every
term and every product adds non-negative numbers, so no entry suffers
cancellation however small it is; rounding grows like 2^s units in the
last place.

Truncation budget. All Taylor factors are powers of the one matrix B, so
T^N with N = 2^s equals sum_K (tB)^K / K! times the probability that K
balls thrown uniformly into N bins leave no bin with more than q. The
relative error of entry (i, j) is therefore the mean of that overflow
probability under the entry's jump-count law (tB)^K_ij / K!. Bounding
(B^K)_ij above by rho^K, with rho the largest row sum of B, and the
entry below by KERNEL_FLOOR gives, for any K*,

    rel. error <= N P(Bin(K*, 1/N) > q)
                  + exp(t (rho - c)) P(Poisson(t rho) > K*) / KERNEL_FLOOR.

s is the smallest count with tau rho <= _TAYLOR_STEP_NORM, and q the
smallest degree that brings both terms under TRUNCATION_BUDGET / 2.

Floor. After the Taylor sum and after every product, entries below
KERNEL_FLOOR are set to zero; nothing else zeroes or rescales kernel
entries. Products of entries at or above the floor stay above 1e-300, so
matrix products never meet subnormal numbers, which run several times
slower. An entry whose exact value is below the floor reads 0, and the
mass dropped per product is at most the floor times a row mass, so
entries well above the floor keep their relative accuracy. On the
default harmonic box nothing is floored at dt = 0.5 (the smallest entry
is 5e-113); at dt = 0.25 the far corners (about 8e-205) are.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dsyrk
from scipy.special import bdtrc, pdtrc

from .grids import SpaceGrid
from .potentials import SitePotential

# kernel entries below this are set to zero (see the module docstring)
KERNEL_FLOOR = 1e-150
# bound on the relative Taylor truncation error of every entry above the floor
TRUNCATION_BUDGET = 1e-15
# largest tau * rho of the Taylor step; sets the number of squarings
_TAYLOR_STEP_NORM = 8.0
# the square of a matrix with half-bandwidth b is formed tile by tile while
# _BANDED_PRODUCT_FRACTION * b < M, and as one dense product beyond that
_BANDED_PRODUCT_FRACTION = 2.5
_TILE = 64
_STRICT_UPPER = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)


@dataclass
class Tridiagonal:
    """Symmetric tridiagonal operator (main diagonal and one off diagonal)."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        self.off = np.asarray(self.off, dtype=float)
        if self.diag.ndim != 1 or self.off.shape != (self.diag.size - 1,):
            raise ValueError("tridiagonal needs diag of length n and off-diagonal of length n-1")

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out

    def shifted(self, delta: float) -> "Tridiagonal":
        return Tridiagonal(self.diag + delta, self.off.copy())


def build_hamiltonian(v: SitePotential, grid: SpaceGrid, radial: bool = False) -> Tridiagonal:
    """Discretize -1/2 d^2/dx^2 + V on the grid (second-order stencil).

    With radial=True the grid lives on (0, r_max] and the unknown is the
    radial profile u(r) = r * psi(r); the u(0) = 0 condition is the
    Dirichlet ghost just below the first node.
    """
    if v.dim != 1 and not radial:
        raise ValueError(f"potential lives in d={v.dim}; only d=1 grids are supported "
                         "(use the radial solver for spherically symmetric d=3)")
    h = grid.h
    vals = np.asarray(v.evaluate_radial(np.abs(grid.x)) if radial else v.evaluate(grid.x),
                      dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = grid.x[~np.isfinite(vals)][0]
        raise ValueError(f"potential is not finite at grid point x = {bad}")
    diag = 1.0 / h**2 + vals
    off = np.full(grid.points - 1, -0.5 / h**2)
    return Tridiagonal(diag, off)


@dataclass
class GroundState:
    """Bottom eigenpair of the discretized operator.

    `energy` is the pre-shift eigenvalue; `operator` stores the shifted
    tridiagonal (diagonal minus energy), so operator.matvec(psi) vanishes.
    `psi` is strictly positive with sum(psi^2) * h = 1.
    """

    grid: SpaceGrid
    energy: float
    psi: np.ndarray
    operator: Tridiagonal
    v_grid: np.ndarray
    radial: bool = False

    def residual(self) -> float:
        """Max-norm of the shifted eigenvalue equation (H - E0) psi = 0."""
        return float(np.max(np.abs(self.operator.matvec(self.psi))))


def _solve_bottom(op: Tridiagonal, grid: SpaceGrid, v_grid: np.ndarray,
                  radial: bool) -> GroundState:
    w, vecs = eigh_tridiagonal(op.diag, op.off, select="i", select_range=(0, 0))
    energy = float(w[0])
    psi = vecs[:, 0]
    if psi.sum() < 0:
        psi = -psi
    if np.min(psi) <= 0.0:
        i = int(np.argmin(psi))
        raise ValueError(
            f"ground state is not strictly positive at x = {grid.x[i]} "
            "(grid too coarse or box too large for this potential)")
    psi = psi / np.sqrt(np.sum(psi**2) * grid.h)
    return GroundState(grid, energy, psi, op.shifted(-energy), v_grid, radial)


def ground_state(v: SitePotential, grid: SpaceGrid) -> GroundState:
    """Bottom eigenpair via bisection + inverse iteration; psi positive."""
    op = build_hamiltonian(v, grid)
    return _solve_bottom(op, grid, np.asarray(v.evaluate(grid.x), dtype=float), radial=False)


def ground_state_radial(v: SitePotential, grid: SpaceGrid) -> GroundState:
    """Radial s-wave solve on (0, r_max]: psi here is the profile u(r) = r R(r)."""
    if grid.lower <= 0:
        raise ValueError("radial solve needs a grid on (0, r_max]")
    op = build_hamiltonian(v, grid, radial=True)
    return _solve_bottom(op, grid, np.asarray(v.evaluate_radial(grid.x), dtype=float),
                         radial=True)


def _floored(a: np.ndarray) -> np.ndarray:
    """Set the entries of a below KERNEL_FLOOR to zero, in place."""
    np.copyto(a, 0.0, where=a < KERNEL_FLOOR)
    return a


def _taylor_degree(rate_t: float, excess: float, squarings: int) -> int:
    """Smallest Taylor degree meeting TRUNCATION_BUDGET (module docstring).

    rate_t is t * rho and excess is t * (rho - c).
    """
    half = 0.5 * TRUNCATION_BUDGET
    log_target = math.log(half * KERNEL_FLOOR) - excess

    def beyond(k):
        tail = pdtrc(k, rate_t)
        return tail == 0.0 or math.log(tail) <= log_target

    # K*: the jump count that no entry above the floor exceeds beyond budget
    lo, hi = 0, max(1, math.ceil(rate_t))
    while not beyond(hi):
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if beyond(mid):
            hi = mid
        else:
            lo = mid + 1
    bins = 2**squarings
    q = 0
    while bins * bdtrc(q, hi, 1.0 / bins) > half:
        q += 1
    return q


def _taylor_matrix(bdiag: np.ndarray, boff: np.ndarray, tau: float, q: int,
                   scale: float) -> np.ndarray:
    """scale * sum_{k <= q} (tau B)^k / k! as a dense matrix.

    B is the non-negative symmetric tridiagonal (bdiag, boff). Terms are
    kept in diagonal storage: row d + 1 of a work buffer holds the entries
    (i, i + d) of the current term for d = -1..band, columns offset by one
    so neighbours read from zero padding at the ends. Only d >= 0 is
    formed; d = -1 follows from symmetry.
    """
    n = bdiag.size
    band = min(q, n - 1)
    work = [np.zeros((band + 3, n + 2)), np.zeros((band + 3, n + 2))]
    work[0][1, 1:n + 1] = 1.0
    acc = np.zeros((band + 1, n))
    acc[0] = 1.0
    here = tau * bdiag
    left = np.zeros(n)
    left[1:] = tau * boff
    right = np.zeros(n)
    right[:-1] = tau * boff
    tmp = np.empty((band + 1, n))
    for k in range(1, q + 1):
        src, dst = work[(k - 1) % 2], work[k % 2]
        top = min(k, band) + 1
        out = dst[1:top + 1, 1:n + 1]
        t = tmp[:top]
        np.multiply(src[1:top + 1, 1:n + 1], here / k, out=out)
        np.multiply(src[2:top + 2, 0:n], left / k, out=t)
        out += t
        np.multiply(src[0:top, 2:n + 2], right / k, out=t)
        out += t
        dst[0, 1:n + 1] = dst[2, 0:n]
        acc[:top] += out
    acc *= scale
    dense = np.zeros((n, n))
    flat = dense.ravel()
    flat[::n + 1] = acc[0]
    for d in range(1, band + 1):
        flat[d:(n - d) * n:n + 1] = acc[d, :n - d]
        flat[d * n::n + 1] = acc[d, :n - d]
    return _floored(dense)


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the lower triangle of a onto its upper triangle, in place."""
    n = a.shape[0]
    for i0 in range(0, n, _TILE):
        i1 = min(n, i0 + _TILE)
        a[i0:i1, i1:] = a[i1:, i0:i1].T
        diag = a[i0:i1, i0:i1]
        np.copyto(diag, diag.T, where=_STRICT_UPPER[:i1 - i0, :i1 - i0])


def _band_of(a: np.ndarray) -> int:
    """Half-bandwidth of the non-zero pattern of a symmetric matrix."""
    last = a.shape[1] - 1 - np.argmax(a[:, ::-1] > 0.0, axis=1)
    return int(np.max(last - np.arange(a.shape[0])))


def _square(a: np.ndarray, band: int, out: np.ndarray) -> int:
    """out = a @ a for symmetric non-negative a of half-bandwidth `band`.

    Both arrays are C-ordered n x n. The lower triangle is formed in tiles that skip the zeros outside the
    band, or by one dense dsyrk when the band is wide; the result is made
    exactly symmetric and floored. Returns its half-bandwidth.
    """
    n = a.shape[0]
    banded = _BANDED_PRODUCT_FRACTION * band < n
    if banded:
        out.fill(0.0)
        for r0 in range(0, n, _TILE):
            r1 = min(n, r0 + _TILE)
            for c0 in range(max(0, r0 - 2 * band) // _TILE * _TILE, r1, _TILE):
                c1 = min(n, c0 + _TILE)
                k0, k1 = max(0, max(r0, c0) - band), min(n, min(r1, c1) + band)
                out[r0:r1, c0:c1] = a[r0:r1, k0:k1] @ a[k0:k1, c0:c1]
    else:
        # a.T is the Fortran-ordered view of a (a is symmetric); the upper
        # triangle dsyrk fills in out.T is the lower triangle of out
        dsyrk(1.0, a.T, beta=0.0, c=out.T, overwrite_c=1)
    _mirror_lower(out)
    _floored(out)
    return _band_of(out) if banded else n - 1


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for commuting symmetric non-negative a, b (powers of one kernel)."""
    out = a @ b
    _mirror_lower(out)
    return _floored(out)


def _semigroup_matrix(op: Tridiagonal, t: float) -> np.ndarray:
    """exp(-t op) for a symmetric tridiagonal op with non-positive off diagonal.

    Entrywise relatively accurate down to the floor; see the module docstring.
    """
    if t <= 0:
        raise ValueError("heat kernel needs a positive time")
    if np.any(op.off > 0.0):
        raise ValueError("semigroup construction needs a non-positive off diagonal")
    n = op.diag.size
    c = float(np.max(op.diag))
    bdiag = c - op.diag
    boff = -op.off
    row_sums = bdiag.copy()
    row_sums[:-1] += boff
    row_sums[1:] += boff
    rho = float(np.max(row_sums))
    squarings = max(0, math.ceil(math.log2(t * rho / _TAYLOR_STEP_NORM)))
    tau = t / 2**squarings
    q = _taylor_degree(t * rho, t * (rho - c), squarings)
    a = _taylor_matrix(bdiag, boff, tau, q, math.exp(-tau * c))
    band = min(q, n - 1)
    out = np.empty((n, n))
    for _ in range(squarings):
        band = _square(a, band, out)
        a, out = out, a
    return a


@dataclass
class HeatKernel:
    """Matrix of the shifted-operator semigroup over one time step.

    The h-weight is folded into the matrix: row-vector times `matrix` is
    one transfer step, and matrix @ psi = psi. Dividing by h recovers
    pointwise kernel values. `matrix`, `power` and `at` are built from
    `operator` with non-negative arithmetic only, so every entry is
    accurate in relative terms down to KERNEL_FLOOR, right up to the box
    walls; entries below the floor are zero. The matrix is exactly
    symmetric.
    """

    grid: SpaceGrid
    dt: float
    matrix: np.ndarray
    operator: Tridiagonal
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def power(self, m: int) -> np.ndarray:
        """Kernel of m steps: products of the non-negative kernel matrix.

        K^(2k) is the square of K^k and K^(2k+1) is K times K^(2k), both
        read from the cache; every product is symmetric and floored at
        KERNEL_FLOOR.  Each power is built once per kernel and returned
        read-only.
        """
        if m < 0:
            raise ValueError("kernel power needs m >= 0")
        if m not in self._powers:
            if m == 0:
                result = np.eye(self.grid.points)
            elif m == 1:
                # a view, not a copy: the cached K^1 shares the memory of `matrix`
                result = self.matrix.view()
            elif m % 2:
                result = _product(self.matrix, self.power(m - 1))
            else:
                result = np.empty(self.matrix.shape)
                _square(self.power(m // 2), self.grid.points - 1, result)
            result.flags.writeable = False
            self._powers[m] = result
        return self._powers[m]

    def at(self, dt: float) -> np.ndarray:
        """Kernel matrix for an arbitrary positive time, built like `matrix`."""
        if dt <= 0:
            raise ValueError("kernel time must be positive")
        return _semigroup_matrix(self.operator, dt)

    def pin_columns(self, pin: int, count: int) -> np.ndarray:
        """Row j (j < count) holds the column K^j[:, pin], by repeated K @ v.

        Each product is one O(M^2) pass over the non-negative kernel,
        floored like `power`.
        """
        cols = np.zeros((count, self.grid.points))
        cols[0, pin] = 1.0
        for j in range(1, count):
            cols[j] = _floored(self.matrix @ cols[j - 1])
        return cols


def heat_kernel(gs: GroundState, dt: float) -> HeatKernel:
    """One-step kernel exp(-dt (H - E0)) of the shifted operator."""
    if dt <= 0:
        raise ValueError("heat kernel needs dt > 0")
    return HeatKernel(gs.grid, dt, _semigroup_matrix(gs.operator, dt), gs.operator)


DEFAULT_BOX = (-8.0, 8.0, 801)


def default_grid() -> SpaceGrid:
    """Truncation box wide enough that catalog ground states decay below 1e-12."""
    return SpaceGrid(*DEFAULT_BOX)
