"""Leader-side optimization: analytic derivatives, rate solvers, NE verification.

The publisher's rate-substituted utility separates into an r1 part (driven by
accuracy responses) and an r2 part (driven by freshness responses), so each
rate is a one-dimensional problem.  Each axis has one value and one slope
helper serving two objectives: the smooth surrogate on the unclamped
closed-form responses (`du_dr*`, `solve_r*`), and the realized objective on
the clamped responses clients actually play (`compute_equilibrium`, the
server verifier).  Neither is concave in r1, so one search maximizes both:
it scans the slope on a grid, narrows all sign changes together by
multisection (one vectorized slope call per step), and keeps the best of
those roots, the box edges and the clamp kinks.  Maximizing the realized
objective is what keeps the equilibrium rates undominated by any in-box rate
pair once clamping binds, including for heterogeneous populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .game_core import (
    ACCURACY_MAX,
    ACCURACY_MIN,
    FRESHNESS_MAX,
    ClientProfile,
    RateBox,
    RewardRates,
    Strategy,
    SystemParams,
    best_response,
    client_utility,
    server_utility,
)

FOC_FTOL = 1e-8      # |derivative| below this counts as a stationary point
VERIFY_TOL = 1e-9    # violation threshold for equilibrium certification
_SCAN = 4097         # slope scan resolution per axis
_SECTIONS = 64       # sections per bracket in each refine step
_XTOL = 1e-12        # bracket width at which refinement stops


def _population_arrays(profiles: list[ClientProfile]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gamma = np.array([p.gamma for p in profiles], dtype=float)
    delta = np.array([p.delta for p in profiles], dtype=float)
    t_min = np.array([p.t_min for p in profiles], dtype=float)
    return gamma, delta, t_min


def _r1_value(r1, gamma: np.ndarray, t: np.ndarray, params: SystemParams, clamp: bool):
    """r1-dependent slice of the server utility: sum_k (alpha/n - r1/t_k) A_k(r1).

    A_k is the accuracy response exp(r1/(gamma_k t_k) - 1) - 1, clamped into
    [ACCURACY_MIN, ACCURACY_MAX] when ``clamp`` is set.  Takes a rate or a
    1-D array of rates and returns the same shape.
    """
    r = np.atleast_1d(np.asarray(r1, dtype=float))
    with np.errstate(over="ignore"):  # overflowed responses clip to the cap
        a = np.exp(r[:, None] / (gamma * t) - 1.0) - 1.0
    if clamp:
        np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
    out = (params.alpha / params.n) * a.sum(axis=1) - r * (a @ (1.0 / t))
    return out if np.ndim(r1) else float(out[0])


def _r1_slope(r1, gamma: np.ndarray, t: np.ndarray, params: SystemParams, clamp: bool):
    """Right derivative of `_r1_value` in r1, with dA_k/dr1 = exp(r1/(gamma_k t_k) - 1)/(gamma_k t_k).

    A clamped response has zero slope.  A client counts as unclamped on
    [ACCURACY_MIN, ACCURACY_MAX), where its response rises just right of r1.
    """
    r = np.atleast_1d(np.asarray(r1, dtype=float))
    gt = gamma * t
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(r[:, None] / gt - 1.0)
        a = x - 1.0
        if clamp:
            x[~((a >= ACCURACY_MIN) & (a < ACCURACY_MAX))] = 0.0
            np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
        out = (
            x @ ((params.alpha / params.n) / gt)
            - r * (x @ (1.0 / (t * gt)))
            - a @ (1.0 / t)
        )
    return out if np.ndim(r1) else float(out[0])


def _r2_value(r2, delta: np.ndarray, params: SystemParams, clamp: bool):
    """r2-dependent slice of the server utility: (beta/n - r2) sum_k F_k(r2).

    F_k is the freshness response ln(r2/delta_k)/delta_k, clamped into
    [0, FRESHNESS_MAX] when ``clamp`` is set.
    """
    r = np.atleast_1d(np.asarray(r2, dtype=float))
    f = np.log(r[:, None] / delta) / delta
    if clamp:
        np.clip(f, 0.0, FRESHNESS_MAX, out=f)
    out = (params.beta / params.n - r) * f.sum(axis=1)
    return out if np.ndim(r2) else float(out[0])


def _r2_slope(r2, delta: np.ndarray, params: SystemParams, clamp: bool):
    """Right derivative of `_r2_value` in r2, with dF_k/dr2 = 1/(delta_k r2).

    A client counts as unclamped on [0, FRESHNESS_MAX), where its response
    rises just right of r2.  At the box floor r2_lo = max delta_k the client
    with the largest delta has freshness exactly 0; dropping its term there
    can hide an interior maximum inside the first scan cell.
    """
    r = np.atleast_1d(np.asarray(r2, dtype=float))
    f = np.log(r[:, None] / delta) / delta
    if clamp:
        live = ((f >= 0.0) & (f < FRESHNESS_MAX)) @ (1.0 / delta)
        np.clip(f, 0.0, FRESHNESS_MAX, out=f)
    else:
        live = np.sum(1.0 / delta)
    out = (params.beta / params.n - r) / r * live - f.sum(axis=1)
    return out if np.ndim(r2) else float(out[0])


def du_dr1(profiles: list[ClientProfile], params: SystemParams, r1: float) -> float:
    """First derivative in r1 of the rate-substituted server utility.

    Uses the unclamped accuracy responses A_k(r1) = exp(r1/(gamma_k t_k) - 1) - 1
    with dA_k/dr1 = exp(r1/(gamma_k t_k) - 1) / (gamma_k t_k).
    """
    gamma, _, t = _population_arrays(profiles)
    return _r1_slope(r1, gamma, t, params, clamp=False)


def du_dr2(profiles: list[ClientProfile], params: SystemParams, r2: float) -> float:
    """First derivative in r2: sum_k [beta/(n delta_k r2) - 1/delta_k - ln(r2/delta_k)/delta_k]."""
    _, delta, _ = _population_arrays(profiles)
    return _r2_slope(r2, delta, params, clamp=False)


def d2u_dr1(profiles: list[ClientProfile], params: SystemParams, r1: float) -> float:
    """Second derivative in r1: sum_k x_k (alpha t_k - n r1 - 2 gamma_k n t_k) / (n gamma_k^2 t_k^3).

    Here x_k = exp(r1/(gamma_k t_k) - 1).  A client's term is positive
    wherever alpha t_k > n (r1 + 2 gamma_k t_k), so the r1 objective is not
    concave and may have several stationary points in the box.
    """
    gamma, _, t = _population_arrays(profiles)
    n = params.n
    num = params.alpha * t - n * r1 - 2.0 * gamma * n * t
    den = n * gamma**2 * t**3
    return float(np.sum(num / den * np.exp(r1 / (gamma * t) - 1.0)))


def d2u_dr2(profiles: list[ClientProfile], params: SystemParams, r2: float) -> float:
    """Second derivative in r2: sum_k [-1/(delta_k r2) - beta/(n delta_k r2^2)] < 0."""
    _, delta, _ = _population_arrays(profiles)
    return float(
        np.sum(-1.0 / (delta * r2) - params.beta / (params.n * delta * r2**2))
    )


def leader_objective(
    profiles: list[ClientProfile], params: SystemParams, r1: float, r2: float
) -> float:
    """Server utility with the unclamped closed-form responses substituted in.

    This is the smooth objective the first-order conditions differentiate;
    accuracy terms may leave [0, 1) outside the per-client feasible ranges.
    """
    gamma, delta, t = _population_arrays(profiles)
    return (
        _r1_value(r1, gamma, t, params, clamp=False)
        + _r2_value(r2, delta, params, clamp=False)
        - float(np.max(t))
    )


def _refine(slope, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray):
    """Narrow every slope sign change [lo_i, hi_i] at once; return the final brackets.

    Each step evaluates the slope once, at the _SECTIONS - 1 interior points
    of every open bracket, and keeps the first section whose right end has a
    sign other than sign_lo (a zero counts as the other side).  A bracket
    closes at _XTOL width or when no float lies strictly inside it.
    """
    lo, hi = lo.copy(), hi.copy()
    frac = np.arange(1, _SECTIONS) / _SECTIONS
    while True:
        mid = 0.5 * (lo + hi)
        # far from 0 one ulp exceeds _XTOL, so the width test alone never ends
        open_ = (hi - lo > _XTOL) & (lo < mid) & (mid < hi)
        if not open_.any():
            return lo, hi
        a, b = lo[open_], hi[open_]
        pts = a[:, None] + (b - a)[:, None] * frac
        flip = np.sign(slope(pts.ravel())).reshape(pts.shape) != sign_lo[open_, None]
        k = np.where(flip.any(axis=1), flip.argmax(axis=1), _SECTIONS - 1)
        ends = np.column_stack([a, pts, b])
        rows = np.arange(len(a))
        lo[open_], hi[open_] = ends[rows, k], ends[rows, k + 1]


def _search(slope, value, lo: float, hi: float, kinks=()) -> tuple[float, bool]:
    """Global maximizer of a piecewise-smooth axis objective on [lo, hi].

    Scans the slope on a _SCAN-point grid, refines every sign change with
    `_refine`, and returns the best by value of those roots, the edges and
    the in-box kinks, plus whether a root won.  A root is its bracket's
    midpoint, or the exact kink where the slope jumps if the bracket holds
    one (to within the bracket's width, since the clamp tests round).
    Candidates within 1e-10 relative of the best tie toward the earliest, so
    a root is preferred over an edge or kink that beats it only by
    floating-point dust.
    """
    if hi <= lo:
        return lo, False
    xs = np.linspace(lo, hi, _SCAN)
    s = slope(xs)
    bad = ~np.isfinite(s)
    if bad.any():
        raise NumericError(f"derivative not finite at rate {xs[bad][0]}")
    signs = np.sign(s)
    i = np.nonzero(signs[:-1] != signs[1:])[0]
    b_lo, b_hi = _refine(slope, xs[i], xs[i + 1], signs[i])
    roots = 0.5 * (b_lo + b_hi)
    kinks = np.asarray(kinks, dtype=float)
    kinks = kinks[(lo < kinks) & (kinks < hi)]
    if kinks.size:
        w = (b_hi - b_lo)[:, None]
        held = (b_lo[:, None] - w <= kinks) & (kinks <= b_hi[:, None] + w)
        roots = np.where(held.any(axis=1), kinks[held.argmax(axis=1)], roots)
    candidates = [*roots.tolist(), lo, hi, *kinks.tolist()]
    values = value(np.array(candidates))
    best = float(np.max(values))
    snap = 1e-10 * max(1.0, abs(best))
    idx = int(np.nonzero(values >= best - snap)[0][0])
    return candidates[idx], idx < len(roots)


def _argmax_r1(
    profiles: list[ClientProfile], params: SystemParams, box: RateBox, clamp: bool
) -> tuple[float, bool]:
    gamma, _, t = _population_arrays(profiles)
    kinks = ()
    if clamp:  # where an accuracy response enters or leaves the clamp rectangle
        gt = gamma * t
        kinks = np.concatenate(
            [gt * (1.0 + math.log1p(ACCURACY_MIN)), gt * (1.0 + math.log1p(ACCURACY_MAX))]
        )
    return _search(
        lambda r: _r1_slope(r, gamma, t, params, clamp),
        lambda r: _r1_value(r, gamma, t, params, clamp),
        box.r1_lo,
        box.r1_hi,
        kinks,
    )


def _argmax_r2(
    profiles: list[ClientProfile], params: SystemParams, box: RateBox, clamp: bool
) -> tuple[float, bool]:
    _, delta, _ = _population_arrays(profiles)
    # freshness reaches FRESHNESS_MAX there; it leaves 0 at r2 = delta <= r2_lo
    kinks = delta * np.exp(FRESHNESS_MAX * delta) if clamp else ()
    return _search(
        lambda r: _r2_slope(r, delta, params, clamp),
        lambda r: _r2_value(r, delta, params, clamp),
        box.r2_lo,
        box.r2_hi,
        kinks,
    )


def solve_r1(
    profiles: list[ClientProfile], params: SystemParams, box: RateBox
) -> tuple[float, bool]:
    """Maximizer in r1 of the substituted (unclamped) utility within the box.

    Returns (rate, boundary): boundary is True when no stationary point beats
    the box edges and the better edge is returned instead.
    """
    r1, root = _argmax_r1(profiles, params, box, clamp=False)
    return r1, not root


def solve_r2(
    profiles: list[ClientProfile], params: SystemParams, box: RateBox
) -> tuple[float, bool]:
    """Maximizer in r2 of the substituted (unclamped) utility within the box."""
    r2, root = _argmax_r2(profiles, params, box, clamp=False)
    return r2, not root


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved reward rates plus the client responses and utilities they induce."""

    rates: RewardRates
    strategies: tuple[Strategy, ...]
    server_utility: float
    client_utilities: tuple[float, ...]
    r1_boundary: bool
    r2_boundary: bool
    foc_residuals: tuple[float, float]


def compute_equilibrium(
    profiles: list[ClientProfile], params: SystemParams, box: RateBox
) -> EquilibriumResult:
    """Solve both rate dimensions, instantiate best responses, evaluate utility.

    Each rate maximizes the realized objective (clamped responses) over its
    box interval, so the reported rates dominate every in-box rate pair under
    actual client behaviour, not just under the smooth surrogate.  The FOC
    residuals are the surrogate derivatives at those rates.
    """
    r1_star, _ = _argmax_r1(profiles, params, box, clamp=True)
    r2_star, _ = _argmax_r2(profiles, params, box, clamp=True)

    rates = RewardRates(r1=r1_star, r2=r2_star)
    responses = [best_response(p, rates) for p in profiles]
    strategies = tuple(r.strategy for r in responses)
    utilities = tuple(
        client_utility(p, rates, s, params.comm_size)
        for p, s in zip(profiles, strategies)
    )
    res1 = du_dr1(profiles, params, r1_star)
    res2 = du_dr2(profiles, params, r2_star)
    eps = 1e-12 * max(1.0, box.r1_hi)
    r1_interior = box.r1_lo + eps < r1_star < box.r1_hi - eps
    eps2 = 1e-12 * max(1.0, box.r2_hi)
    r2_interior = box.r2_lo + eps2 < r2_star < box.r2_hi - eps2
    return EquilibriumResult(
        rates=rates,
        strategies=strategies,
        server_utility=server_utility(params, rates, list(strategies)),
        client_utilities=utilities,
        r1_boundary=not (r1_interior and abs(res1) < FOC_FTOL),
        r2_boundary=not (r2_interior and abs(res2) < FOC_FTOL),
        foc_residuals=(res1, res2),
    )


@dataclass(frozen=True)
class GridSpec:
    """Deviation grid used by the equilibrium verifiers."""

    accuracy_step: float = 0.01
    freshness_step: float = 0.05
    freshness_max: float = 5.0
    time_factors: tuple[float, ...] = (1.0, 1.5, 2.0)

    def accuracy_values(self) -> np.ndarray:
        # deviations are restricted to the strategy set clients may actually
        # play, i.e. the clamp rectangle
        raw = np.arange(0.0, 1.0, self.accuracy_step)
        return np.unique(np.clip(raw, ACCURACY_MIN, ACCURACY_MAX))

    def freshness_values(self) -> np.ndarray:
        raw = np.arange(0.0, self.freshness_max + 1e-12, self.freshness_step)
        return np.unique(np.clip(raw, 0.0, FRESHNESS_MAX))


@dataclass(frozen=True)
class ClientEquilibriumReport:
    """Worst grid deviation found against a client's best response."""

    worst_violation: float
    worst_strategy: Strategy | None
    checked: int
    passed: bool


def verify_client_equilibrium(
    profile: ClientProfile,
    rates: RewardRates,
    grid: GridSpec | None = None,
    comm_size: float = 0.0,
    tol: float = VERIFY_TOL,
    strategy: Strategy | None = None,
) -> ClientEquilibriumReport:
    """Check that no grid strategy beats the client's (possibly clamped) response.

    Exhaustive over the grid's accuracy x freshness x completion-time cube;
    returns the worst utility excess and where it occurred.  Pass an explicit
    strategy to audit a candidate other than the computed best response.
    """
    grid = grid or GridSpec()
    if strategy is None:
        strategy = best_response(profile, rates).strategy
    u_star = client_utility(profile, rates, strategy, comm_size)

    a = grid.accuracy_values()
    f = grid.freshness_values()
    gain_a = rates.r1 * a  # divided by T per time grid value below
    cost_a = profile.gamma * (1.0 + a) * np.log1p(a)
    gain_f = rates.r2 * f - np.exp(profile.delta * f)
    best_f_idx = int(np.argmax(gain_f))

    worst = -math.inf
    worst_strategy = None
    for factor in grid.time_factors:
        t_val = factor * profile.t_min
        part_a = gain_a / t_val - cost_a
        best_a_idx = int(np.argmax(part_a))
        u = part_a[best_a_idx] + gain_f[best_f_idx] - comm_size
        if u > worst:
            worst = u
            worst_strategy = Strategy(
                accuracy=float(a[best_a_idx]),
                freshness=float(f[best_f_idx]),
                completion_time=t_val,
            )
    violation = worst - u_star
    return ClientEquilibriumReport(
        worst_violation=violation,
        worst_strategy=worst_strategy,
        checked=len(a) * len(f) * len(grid.time_factors),
        passed=violation <= tol,
    )


@dataclass(frozen=True)
class ServerEquilibriumReport:
    """Worst rate deviation found against the solved rates."""

    worst_violation: float
    worst_rates: tuple[float, float] | None
    grid_points: int
    axis_points: int
    passed: bool


def verify_server_equilibrium(
    profiles: list[ClientProfile],
    params: SystemParams,
    rates_star: RewardRates,
    box: RateBox,
    grid_n: int = 50,
    tol: float = VERIFY_TOL,
) -> ServerEquilibriumReport:
    """Certify the solved rates against rate deviations over the box.

    Clients re-best-respond at every candidate rate pair (the deviation-with-
    fixed-strategies inequality is vacuous here: utility is strictly
    decreasing in the rates once strategies are frozen, so only the
    response-substituted comparison is informative).  Runs a grid_n x grid_n
    joint grid plus denser single-axis sweeps through the solved point.
    """
    gamma, delta, t = _population_arrays(profiles)
    part1 = lambda r: _r1_value(r, gamma, t, params, clamp=True)  # noqa: E731
    part2 = lambda r: _r2_value(r, delta, params, clamp=True)  # noqa: E731

    u1_star = part1(rates_star.r1)
    u2_star = part2(rates_star.r2)

    r1_grid = np.linspace(box.r1_lo, box.r1_hi, grid_n)
    r2_grid = np.linspace(box.r2_lo, box.r2_hi, grid_n)
    v1 = np.asarray(part1(r1_grid))
    v2 = np.asarray(part2(r2_grid))

    # joint grid: utilities separate, so the worst pair combines the axis maxima
    i = int(np.argmax(v1))
    j = int(np.argmax(v2))
    worst = (v1[i] + v2[j]) - (u1_star + u2_star)
    worst_rates = (float(r1_grid[i]), float(r2_grid[j]))

    # denser single-axis sweeps through the solved point
    r1_fine = np.linspace(box.r1_lo, box.r1_hi, 4 * grid_n)
    r2_fine = np.linspace(box.r2_lo, box.r2_hi, 4 * grid_n)
    f1 = np.asarray(part1(r1_fine))
    f2 = np.asarray(part2(r2_fine))
    if float(np.max(f1)) - u1_star > worst:
        worst = float(np.max(f1)) - u1_star
        worst_rates = (float(r1_fine[int(np.argmax(f1))]), rates_star.r2)
    if float(np.max(f2)) - u2_star > worst:
        worst = float(np.max(f2)) - u2_star
        worst_rates = (rates_star.r1, float(r2_fine[int(np.argmax(f2))]))

    return ServerEquilibriumReport(
        worst_violation=float(worst),
        worst_rates=worst_rates,
        grid_points=grid_n * grid_n,
        axis_points=8 * grid_n,
        passed=worst <= tol,
    )
