"""Catalog of single-site potentials V and two-time pair potentials W.

Catalog entries carry declared asymptotic data (the liminf of V at infinity,
envelope functions dominating |W|) because those quantities are not
observable from finite grids; every declaration is checkable numerically on
verification grids.
"""

import math
from dataclasses import dataclass

import numpy as np

# V at the singular origin of the Coulomb well, so quadrature stays finite
COULOMB_ORIGIN_CLAMP = -1.0e6


@dataclass
class SitePotential:
    """Single-site potential with declared growth metadata.

    `alpha` is the declared liminf of the potential at spatial infinity
    before the additive `shift`; `effective_alpha` accounts for the shift
    (normally chosen so the associated Schroedinger operator has bottom
    spectrum zero).
    """

    kind: str
    dim: int = 1
    shift: float = 0.0
    alpha: float = math.inf

    @property
    def effective_alpha(self) -> float:
        return self.alpha + self.shift

    def evaluate(self, x):
        """V(x) + shift, elementwise over a scalar or array of positions on the
        line; a potential in R^3 is evaluated through `evaluate_radial`."""
        if self.dim != 1:
            raise ValueError(f"evaluate takes points on the line; a dim-{self.dim} "
                             "potential is evaluated through evaluate_radial")
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("potential evaluated at non-finite point")
        return self.evaluate_radial(np.abs(x))

    def evaluate_radial(self, r):
        """V as a function of |x|, plus shift (all catalog kinds are radial)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "harmonic":
            v = 0.5 * r * r
        elif self.kind == "box_zero":
            v = np.zeros_like(r)
        elif self.kind == "coulomb3d":
            v = np.where(r == 0.0, COULOMB_ORIGIN_CLAMP, -1.0 / np.where(r == 0.0, 1.0, r))
        else:
            raise ValueError(f"unknown site potential kind {self.kind!r}")
        out = v + self.shift
        return float(out) if out.ndim == 0 else out


def harmonic(shift: float = 0.0) -> SitePotential:
    """V(x) = x^2 / 2 (confining; liminf at infinity is +inf)."""
    return SitePotential("harmonic", dim=1, shift=shift, alpha=math.inf)


def box_zero() -> SitePotential:
    """V = 0 inside the truncation box (confinement via Dirichlet walls)."""
    return SitePotential("box_zero", dim=1, alpha=0.0)


def coulomb_3d() -> SitePotential:
    """Attractive Coulomb well V(x) = -1/|x| in three dimensions.

    The origin is singular; evaluation there gives COULOMB_ORIGIN_CLAMP.
    """
    return SitePotential("coulomb3d", dim=3, alpha=0.0)


@dataclass
class PairPotential:
    """Two-time pair potential W(x, y, t) with a declared envelope.

    The envelope dominates |W(x, y, t)| uniformly in (x, y); its
    half-line integrals are closed forms (`envelope_tail`), infinite where
    it is not integrable.
    """

    kind: str
    coupling: float = 1.0
    value: float = 0.0
    monotone_in_t: bool = False

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError("pair coupling must be nonnegative")

    def evaluate(self, x, y, t):
        """W(x, y, t), broadcasting over array inputs; requires t >= 0."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("pair potential needs t >= 0")
        out = self.radial(np.abs(x - y), t)
        return float(out) if out.ndim == 0 else out

    def radial(self, u, t):
        """W as a function of u = |x - y| and t (every catalog kind is radial).

        Unchecked: the caller guarantees u >= 0 and t >= 0.  This is the
        form the sampler's hot path and the enumeration oracle call.
        """
        if self.kind == "zero":
            return np.zeros(np.broadcast(u, t).shape)
        if self.kind == "constant":
            return np.full(np.broadcast(u, t).shape, self.value)
        if self.kind == "nelson":
            return -self.coupling / (u ** 2 + t * t + 1.0)
        if self.kind == "step":
            return np.where(u <= 2.0 * t, -self.coupling / (t * t + 1.0), 0.0)
        raise ValueError(f"unknown pair potential kind {self.kind!r}")

    def envelope(self, t):
        """Pointwise dominating function for |W| at time separation t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(t)
        elif self.kind == "constant":
            out = np.full_like(t, abs(self.value))
        elif self.kind in ("nelson", "step"):
            out = self.coupling / (t * t + 1.0)
        else:
            raise ValueError(f"unknown pair potential kind {self.kind!r}")
        return float(out) if out.ndim == 0 else out

    def envelope_tail(self, a: float) -> float:
        """Closed-form integral of the envelope over [a, infinity)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return 0.0 if self.value == 0.0 else math.inf
        if self.kind in ("nelson", "step"):
            return self.coupling * (0.5 * math.pi - math.atan(a))
        raise ValueError(f"unknown pair potential kind {self.kind!r}")


def zero_pair() -> PairPotential:
    return PairPotential("zero", coupling=0.0, monotone_in_t=True)


def constant_pair(value: float) -> PairPotential:
    return PairPotential("constant", value=value, monotone_in_t=True)


def nelson_pair(coupling: float = 1.0) -> PairPotential:
    """W(x, y, t) = -coupling / (|x-y|^2 + t^2 + 1): bounded, increasing in t."""
    return PairPotential("nelson", coupling=coupling, monotone_in_t=True)


def step_pair(coupling: float = 1.0) -> PairPotential:
    """W = -coupling/(t^2+1) on {|x-y| <= 2t}, else 0: not monotone in t.

    Its envelope is integrable, but the interaction between the two half
    lines diverges along linear paths, so it serves as the catalog's
    counterexample entry.
    """
    return PairPotential("step", coupling=coupling, monotone_in_t=False)


def interaction_budget(w: PairPotential) -> float:
    """Twice the half-line envelope integral, 2 * int_0^inf envelope(t) dt.

    This bounds the interaction collected by any single instant against the
    whole time axis, uniformly over paths. It is inf when the envelope is
    not integrable.
    """
    return 2.0 * w.envelope_tail(0.0)


@dataclass
class MonotoneReport:
    monotone: bool
    witness: tuple | None


def check_time_monotone(w: PairPotential, pairs, ts) -> MonotoneReport:
    """Check that t -> W(x, y, t) is nondecreasing, to 1e-12, along every grid line.

    `pairs` is a sequence of (x, y); `ts` the increasing time samples. The
    witness, when present, is (x, y, t_k, t_{k+1}, W_k, W_{k+1}).
    """
    ts = np.asarray(ts, dtype=float)
    if len(pairs) == 0 or ts.size < 2:
        raise ValueError("monotonicity check needs a nonempty (pairs, ts) grid")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("time samples must be strictly increasing")
    for x, y in pairs:
        line = np.asarray(w.evaluate(x, y, ts))
        drops = np.nonzero(np.diff(line) < -1e-12)[0]
        if drops.size:
            k = int(drops[0])
            return MonotoneReport(False, (float(x), float(y), float(ts[k]),
                                          float(ts[k + 1]), float(line[k]), float(line[k + 1])))
    return MonotoneReport(True, None)


@dataclass
class SufficientConditionReport:
    holds: bool
    margin: float
    threshold: float
    alpha: float
    mode: str
    note: str = ""


def sufficient_condition_report(v: SitePotential, w: PairPotential,
                                mode: str = "monotone") -> SufficientConditionReport:
    """Margin test for the path-shift stability condition.

    mode "finite_interaction": requires 8 * budget < alpha (valid when the
    half-line interaction is finite). mode "monotone": requires the pair
    potential to be nondecreasing in t and 12 * budget < alpha. The margin
    is alpha minus the threshold.
    """
    alpha = v.effective_alpha
    if alpha == -math.inf:
        raise ValueError("site potential with liminf -inf at infinity is not admissible")
    budget = interaction_budget(w)
    if mode == "finite_interaction":
        factor = 8.0
    elif mode == "monotone":
        factor = 12.0
    else:
        raise ValueError(f"unknown sufficiency mode {mode!r}")
    if mode == "monotone" and not w.monotone_in_t:
        return SufficientConditionReport(False, -math.inf, math.nan, alpha, mode,
                                         "pair potential is not monotone in t")
    threshold = factor * budget
    if math.isinf(threshold) and math.isinf(alpha):
        return SufficientConditionReport(False, -math.inf, threshold, alpha, mode,
                                         "envelope budget diverges")
    margin = alpha - threshold
    # a vanishing interaction never constrains the growth budget
    holds = threshold < alpha or (budget == 0.0 and alpha >= 0.0)
    return SufficientConditionReport(holds, margin, threshold, alpha, mode, "")
