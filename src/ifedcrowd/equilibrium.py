"""Leader-side optimization: analytic derivatives, rate solvers, NE verification.

The publisher's rate-substituted utility separates into an r1 part (driven by
accuracy responses) and an r2 part (driven by freshness responses), so each
rate is a one-dimensional problem.  Each axis has one value and one slope
helper serving two objectives: the smooth surrogate on the unclamped
closed-form responses (`du_dr*`, `solve_r*`), and the realized objective on
the clamped responses clients actually play (`compute_equilibrium`, the
server verifier).

r2 is solved exactly.  With the clients sorted by their freshness kinks,
prefix sums give the r2 slice at any rate in O(log n), and between
neighbouring kinks it is concave, so each segment holds at most one root,
bracketed by the slope signs at its ends.  That root solves
B/r - ln r = K for the segment's constants, and Newton's method from the
segment's left end rises to it monotonically.  r1 is concave in neither
objective, so it keeps a search.  It cuts the box into cells at 65 equally
spaced points and at the clamp kinks where the slope jumps down, reads the
slope on each cell's own points, and keeps the best of the box edges, the
kinks and the sign changes that can hold a maximum.  A cell end at a kink
is read just inside the cell, so a sign change across a kink is never a
bracket: the kink is its root, and it is valued as a candidate.  A sign
change that leaves a negative slope rises, so it is a local minimum; the
rest are narrowed together by multisection (one vectorized slope call per
step).  Only what can win is refined.  On the realized objective the search
stops at c = (alpha/n) max t: past it every client's term
(alpha/n - r/t_k) A_k has right slope at most -A_k/t_k < 0, since
A_k >= ACCURACY_MIN.  So no slope is computed there, and at c <= r1_lo the
slice falls across the whole box: r1_lo is its maximum, and nothing is read
or valued.

Below c the realized search first bounds the cells, in the manner of
Piyavskii and Shubert with a curvature bound in place of a Lipschitz
constant.  The slice is valued at every cell end.  Inside a cell the slope
jumps only up, and the slice's curvature is at least -M, M summed over the
clients live in the cell, so the slice is at most
max(V(a), V(b)) + M (b - a)^2/8 there.  A cell whose bound falls short of
the best cell end by more than the final pick's tie snap cannot hold the
pick, so only the other cells are read.  A kept cell is read on the same
points as when every cell is read, so the search returns that reading's
rate and source bit for bit whenever it is the global maximum.  The
surrogate has no kinks and no bound, and reads every cell of the same
search.

An r1 value or slope call larger than _BLOCK rates x clients entries takes
exponentials over the live clients only.  With the clients sorted by
g_k = gamma_k t_k, client k is live on
[g_k (1 + ln 1.001), g_k (1 + ln 1.999)), so the live clients at a rate are
one contiguous window of that order; the clamped clients on either side
add constants from prefix sums of 1/t.  Rates are taken in blocks of at
most _BLOCK entries, so memory is O(_BLOCK), not O(rates x n).  Each value or
slope call allocates one scratch buffer, and every block writes its rates x
clients temporaries into it in place.

Maximizing the realized objective is what keeps the equilibrium rates
undominated by any in-box rate pair once clamping binds, including for
heterogeneous populations.  A client is certified by strong concavity: its
utility separates into an accuracy and a freshness part, each with a
curvature bound on the clamp rectangle, so a closed form bounds what any
deviation gains over its best response (`_deviation_bounds`).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError
from .game_core import (
    ACCURACY_MAX,
    ACCURACY_MIN,
    FRESHNESS_MAX,
    ClientProfile,
    RateBox,
    RewardRates,
    Strategy,
    SystemParams,
    _population_arrays,
    best_response,
    best_responses,
    client_utility,
    population_utilities,
)

VERIFY_TOL = 1e-9    # violation threshold for equilibrium certification
# Relative rounding slack of a client's utility slope: a few roundings of its
# terms, each within half an ulp, with room to spare.
_SLACK = 16 * np.finfo(float).eps
_CELLS = 64          # coarse cells of an r1 search
_SECTIONS = 64       # sections per coarse cell read, and per bracket in each refine step
_XTOL = 1e-12        # bracket width at which refinement stops
_BLOCK = 1 << 16     # rates x clients entries per block of an r1 value or slope call
_PAD = 1e-9          # relative margin of an r1 live window
# r1/(gamma t) at which an accuracy response enters and leaves the clamp rectangle
_C_IN, _C_OUT = 1.0 + math.log1p(ACCURACY_MIN), 1.0 + math.log1p(ACCURACY_MAX)


def _scratch(entries: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two float buffers and a bool buffer of ``entries`` each, for `_r1_block`.

    They share one allocation, so the allocator gets back one block it can
    hand out whole to the next call.
    """
    buf = np.empty(2 * entries + -(-entries // 8))
    return buf[:entries], buf[entries : 2 * entries], buf[2 * entries :].view(bool)[:entries]


def _r1_block(
    r: np.ndarray,
    g: np.ndarray,
    t: np.ndarray,
    share: float,
    clamp: bool,
    slope: bool,
    scratch: tuple[np.ndarray, ...],
):
    """The r1 slice (or its slope) at rates r over the clients (g_k = gamma_k t_k, t_k) alone.

    Its rates x clients temporaries are views of the `_scratch` buffers,
    which hold at least len(r) * len(g) entries each.  ``share`` is alpha/n.
    """
    shape = (len(r), len(g))
    x, a, dead = (buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
    # an overflowed response clips to the cap; the slope's products may hold inf*0
    with np.errstate(over="ignore", invalid="ignore" if slope else None):
        np.divide(r[:, None], g, out=x)
        np.subtract(x, 1.0, out=x)
        np.exp(x, out=x)
        np.subtract(x, 1.0, out=a)
        if clamp:
            if slope:  # a clamped response has zero slope
                np.less(a, ACCURACY_MIN, out=dead)
                np.copyto(x, 0.0, where=dead)
                np.greater_equal(a, ACCURACY_MAX, out=dead)
                np.copyto(x, 0.0, where=dead)
            np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
        if slope:
            return x @ (share / g) - r * (x @ (1.0 / (t * g))) - a @ (1.0 / t)
        return share * a.sum(axis=1) - r * (a @ (1.0 / t))


def _r1_windowed(
    r: np.ndarray,
    g: np.ndarray,
    t: np.ndarray,
    share: float,
    slope: bool,
    scratch: tuple[np.ndarray, ...],
):
    """The realized r1 slice (or its slope) at rates r, over each rate's live clients only.

    Sorted by g_k = gamma_k t_k, a client is live exactly when
    g_k _C_IN <= r < g_k _C_OUT, so the live clients at any rate form one
    contiguous window of that order: the clients before it sit at
    ACCURACY_MAX, those after it at ACCURACY_MIN, and their terms are
    constants times prefix sums of 1/t.  Both window ends rise with the rate,
    so the sorted rates go in blocks of consecutive rates whose rows times
    window width stay within _BLOCK entries (at least one rate per block),
    and exponentials are taken over each block's window only.  A window is
    padded by the relative margin _PAD, so every client outside it clamps
    whatever the rounding of its exponential, and inside it the clamp test
    is the exact one of `_r1_block`.  Every block reuses ``scratch``.
    Returns the results in the order of r.
    """
    order = np.argsort(g, kind="stable")
    g, t = g[order], t[order]
    n = len(g)
    cum = np.concatenate(([0.0], np.cumsum(1.0 / t)))
    rank = np.argsort(r, kind="stable")
    rs = r[rank]
    first = np.searchsorted(g, rs / _C_OUT * (1.0 - _PAD))
    stop = np.searchsorted(g, rs / _C_IN * (1.0 + _PAD), side="right")
    out = np.empty(len(r))
    i = 0
    while i < len(rs):
        width = stop[i : i + _BLOCK] - first[i]
        rows = np.searchsorted(width * np.arange(1, len(width) + 1), _BLOCK, side="right")
        j = i + max(int(rows), 1)
        lo, hi = first[i], stop[j - 1]
        rb = rs[i:j]
        part = _r1_block(rb, g[lo:hi], t[lo:hi], share, True, slope, scratch)
        # the clamped clients outside the window add sum a_k/t_k to the
        # payment rate and, to the value only, sum a_k to the benefit
        paid = ACCURACY_MAX * cum[lo] + ACCURACY_MIN * (cum[n] - cum[hi])
        if slope:
            part -= paid
        else:
            part += share * (ACCURACY_MAX * lo + ACCURACY_MIN * (n - hi)) - rb * paid
        out[rank[i:j]] = part
        i = j
    return out


def _r1_parts(
    r1, gamma: np.ndarray, t: np.ndarray, params: SystemParams, clamp: bool, slope: bool
):
    """`_r1_value` (or, with ``slope``, `_r1_slope`) at every rate of r1, in its order.

    A call of at most _BLOCK rates x clients entries is one `_r1_block` over
    every client.  A larger clamped call goes through `_r1_windowed`, and a
    larger unclamped one, where every client is live, is split into blocks
    of rates over every client.  The blocks share one `_scratch`, allocated
    here: no block holds more than max(_BLOCK, n) entries.
    """
    r = np.atleast_1d(np.asarray(r1, dtype=float))
    g = gamma * t
    share = params.alpha / params.n
    entries = len(r) * len(g)
    scratch = _scratch(min(entries, max(_BLOCK, len(g))))
    if entries <= _BLOCK:
        out = _r1_block(r, g, t, share, clamp, slope, scratch)
    elif clamp:
        out = _r1_windowed(r, g, t, share, slope, scratch)
    else:
        step = max(_BLOCK // len(g), 1)
        out = np.concatenate(
            [
                _r1_block(r[i : i + step], g, t, share, False, slope, scratch)
                for i in range(0, len(r), step)
            ]
        )
    return out if np.ndim(r1) else float(out[0])


def _r1_value(r1, gamma: np.ndarray, t: np.ndarray, params: SystemParams, clamp: bool):
    """r1-dependent slice of the server utility: sum_k (alpha/n - r1/t_k) A_k(r1).

    A_k is the accuracy response exp(r1/(gamma_k t_k) - 1) - 1, clamped into
    [ACCURACY_MIN, ACCURACY_MAX] when ``clamp`` is set.  Takes a rate or a
    1-D array of rates and returns the same shape.
    """
    return _r1_parts(r1, gamma, t, params, clamp, slope=False)


def _r1_slope(r1, gamma: np.ndarray, t: np.ndarray, params: SystemParams, clamp: bool):
    """Right derivative of `_r1_value` in r1, with dA_k/dr1 = exp(r1/(gamma_k t_k) - 1)/(gamma_k t_k).

    A clamped response has zero slope.  A client counts as unclamped on
    [ACCURACY_MIN, ACCURACY_MAX), where its response rises just right of r1.
    """
    return _r1_parts(r1, gamma, t, params, clamp, slope=True)


def _freshness_sums(delta: np.ndarray):
    """The r2 clamp kinks, sorted, and prefix sums over the clients sorted by delta.

    Freshness leaves 0 at r2 = delta_k and reaches FRESHNESS_MAX at
    delta_k exp(FRESHNESS_MAX delta_k).  Both kinks rise with delta_k, so the
    clients live at any rate are one contiguous run of the delta order, and
    their sums of 1/delta and ln(delta)/delta are differences of prefix sums.
    """
    d = np.sort(delta)
    with np.errstate(over="ignore"):  # a cap that overflows is never reached
        cap = d * np.exp(FRESHNESS_MAX * d)
    p1 = np.concatenate(([0.0], np.cumsum(1.0 / d)))
    p2 = np.concatenate(([0.0], np.cumsum(np.log(d) / d)))
    return d, cap, p1, p2


def _live_sums(r, sums, clamp: bool):
    """(S1, S2, m) at rates r: S1 = sum 1/delta_k and S2 = sum ln(delta_k)/delta_k
    over the live clients, m = the number capped at FRESHNESS_MAX.

    A client is live on [delta_k, cap_k), where its response rises just right
    of r; unclamped, every client is live.  Two binary searches per rate.
    """
    d, cap, p1, p2 = sums
    if not clamp:
        return p1[-1], p2[-1], 0
    i = np.searchsorted(d, r, side="right")
    j = np.searchsorted(cap, r, side="right")
    return p1[i] - p1[j], p2[i] - p2[j], j


def _r2_parts(r, live, params: SystemParams):
    """Value and right slope of the r2 slice at rates r, given their `_live_sums`.

    sum_k F_k(r2) = S1 ln r2 - S2 + FRESHNESS_MAX m, and each live client adds
    dF_k/dr2 = 1/(delta_k r2) to the slope.
    """
    s1, s2, m = live
    total = s1 * np.log(r) - s2 + FRESHNESS_MAX * m
    margin = params.beta / params.n - r
    return margin * total, margin / r * s1 - total


def _r2_value(r2, delta: np.ndarray, params: SystemParams, clamp: bool):
    """r2-dependent slice of the server utility: (beta/n - r2) sum_k F_k(r2).

    F_k is the freshness response ln(r2/delta_k)/delta_k, clamped into
    [0, FRESHNESS_MAX] when ``clamp`` is set.  Takes a rate or a 1-D array of
    rates and returns the same shape.
    """
    r = np.asarray(r2, dtype=float)
    value, _ = _r2_parts(r, _live_sums(r, _freshness_sums(delta), clamp), params)
    return value if np.ndim(r2) else float(value)


def _r2_slope(r2, delta: np.ndarray, params: SystemParams, clamp: bool):
    """Right derivative of `_r2_value` in r2, with dF_k/dr2 = 1/(delta_k r2).

    A client counts as unclamped on [0, FRESHNESS_MAX), where its response
    rises just right of r2.  So at the box floor r2_lo = max delta_k the client
    with the largest delta, whose freshness is exactly 0 there, still counts.
    """
    r = np.asarray(r2, dtype=float)
    _, slope = _r2_parts(r, _live_sums(r, _freshness_sums(delta), clamp), params)
    return slope if np.ndim(r2) else float(slope)


def du_dr1(profiles: Sequence[ClientProfile], params: SystemParams, r1: float) -> float:
    """First derivative in r1 of the rate-substituted server utility.

    Uses the unclamped accuracy responses A_k(r1) = exp(r1/(gamma_k t_k) - 1) - 1
    with dA_k/dr1 = exp(r1/(gamma_k t_k) - 1) / (gamma_k t_k).
    """
    gamma, _, t = _population_arrays(profiles)
    return _r1_slope(r1, gamma, t, params, clamp=False)


def du_dr2(profiles: Sequence[ClientProfile], params: SystemParams, r2: float) -> float:
    """First derivative in r2: sum_k [beta/(n delta_k r2) - 1/delta_k - ln(r2/delta_k)/delta_k]."""
    _, delta, _ = _population_arrays(profiles)
    return _r2_slope(r2, delta, params, clamp=False)


def d2u_dr1(profiles: Sequence[ClientProfile], params: SystemParams, r1: float) -> float:
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


def d2u_dr2(profiles: Sequence[ClientProfile], params: SystemParams, r2: float) -> float:
    """Second derivative in r2: sum_k [-1/(delta_k r2) - beta/(n delta_k r2^2)] < 0."""
    _, delta, _ = _population_arrays(profiles)
    return float(
        np.sum(-1.0 / (delta * r2) - params.beta / (params.n * delta * r2**2))
    )


def leader_objective(
    profiles: Sequence[ClientProfile], params: SystemParams, r1: float, r2: float
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


def _best(
    value, roots: np.ndarray, lo: float, hi: float, kinks: np.ndarray
) -> tuple[float, str]:
    """The best by value of the roots, the edges and the kinks, plus its source.

    The source is "edge" for a box edge, "kink" for one of ``kinks`` (a root
    snapped onto a kink counts as one) and "root" otherwise.  Candidates
    within 1e-10 relative of the best tie toward the earliest, so a root is
    preferred over an edge or kink that beats it only by floating-point dust.
    """
    candidates = [*roots.tolist(), lo, hi, *kinks.tolist()]
    values = value(np.array(candidates))
    best = float(np.max(values))
    snap = 1e-10 * max(1.0, abs(best))
    rate = candidates[int(np.nonzero(values >= best - snap)[0][0])]
    if rate in (lo, hi):
        return rate, "edge"
    return rate, "kink" if rate in kinks else "root"


def _r1_rise(gamma: np.ndarray, t: np.ndarray, share: float):
    """How far the realized r1 slice can rise above its higher end, on each cell [a, b].

    With g_k = gamma_k t_k, s = alpha/n and x_k = exp(r/g_k - 1), a live
    client's term (s - r/t_k)(x_k - 1) has second derivative
    x_k ((s - r/t_k)/g_k^2 - 2/(g_k t_k)), and x_k < 1 + ACCURACY_MAX while it
    is live; a clamped client's term is linear.  So on [a, b], with r >= 0,
    the slice's curvature is at least -M for
    M = (1 + ACCURACY_MAX) sum (s/g_k^2 + b/(t_k g_k^2) + 2/(g_k t_k)) over the
    clients live somewhere in [a, b].  Where the slope jumps only up, the
    slice then lies below its chord plus M (x - a)(b - x)/2, so it is at
    most max(V(a), V(b)) + M (b - a)^2/8.  Sorted by g, the clients live in
    [a, b] are one contiguous run (`_r1_windowed`, padded the same way), so
    suffix sums give each cell's M in O(log n), with no cells x clients
    array.  Returns a function of the arrays of cell ends a, b giving
    M (b - a)^2/8.  A client so small in g that its terms overflow makes
    that infinite or NaN on the cells where it is live, and only there.
    """
    g = gamma * t
    order = np.argsort(g, kind="stable")
    g, t = g[order], t[order]
    with np.errstate(over="ignore", divide="ignore"):
        inv = 1.0 / g
        terms = np.stack([inv * (share * inv + 2.0 / t), inv * inv / t])
    # suffix sums, so that the small terms of the large g are added first
    tail = np.zeros((2, len(g) + 1))
    tail[:, :-1] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]

    def rise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        first = np.searchsorted(g, a / _C_OUT * (1.0 - _PAD))
        stop = np.searchsorted(g, b / _C_IN * (1.0 + _PAD), side="right")
        # inf - inf where an overflowed term is live; inf * 0 where b - a underflows
        with np.errstate(over="ignore", invalid="ignore"):
            fixed, per_b = tail[:, first] - tail[:, stop]
            return (1.0 + ACCURACY_MAX) / 8.0 * (fixed + b * per_b) * (b - a) ** 2

    return rise


def _search(
    slope, value, lo: float, hi: float, kinks=(), cut=math.inf, rise=None
) -> tuple[float, str]:
    """Global maximizer of a piecewise-smooth axis objective on [lo, hi].

    The box is cut into cells at _CELLS + 1 equally spaced points, up to the
    first one at or past ``cut``, at ``hi`` and at the in-box ``kinks``,
    where the slope jumps down (an upward jump is a convex corner).  A cell
    [a, b] with a >= ``cut`` is dropped: the objective is known to fall
    strictly past the cut.  With ``rise``, the objective is valued at every
    cell end, ``rise(a, b)`` bounds how far it climbs above max(V(a), V(b))
    inside [a, b] (`_r1_rise`), and a cell whose bound is below the best end
    value less `_best`'s tie snap, 1e-10 max(1, |best|), is dropped too; a
    non-finite bound keeps its cell.  A dropped cell holds only candidates
    more than the tie snap below the best end value, so it cannot hold the
    pick.  Without ``rise`` every cell below the cut is kept.

    The slope is read in one call at the ends of ceil((b - a)/h) equal
    sections of every kept cell, h = (hi - lo)/(_CELLS _SECTIONS), except
    that a cell end at a kink is read max(_XTOL, ulp) inside the cell.  So
    no bracket between neighbouring reads holds a kink or ends on one, and
    a sign change across a kink, which has that kink as its root, is no
    bracket: `_best` values the kink.  Reads at or past the cut take the
    sign -1, their exact sign, and a non-finite read raises.  A sign change
    that leaves a negative slope rises: `_refine` would narrow it to where
    the slope turns from - to 0 or +, a local minimum.  Every other sign
    change is refined with `_refine`.  Its root is its bracket's midpoint,
    or a kink within the bracket's width of it.  `_best` picks among the
    roots, the edges and the kinks that end a kept cell.  A degenerate box
    returns its edge.
    """
    if hi <= lo:
        return lo, "edge"
    kinks = np.asarray(kinks, dtype=float)
    kinks = kinks[(lo < kinks) & (kinks < hi)]
    coarse = np.linspace(lo, hi, _CELLS + 1)
    coarse = coarse[: np.searchsorted(coarse, cut) + 1]
    ends = np.sort(np.concatenate([coarse, kinks, [hi]]))
    # not np.unique, whose first call imports numpy.ma
    ends = ends[np.diff(ends, prepend=-np.inf) > 0]
    at = np.searchsorted(ends, kinks)
    at_kink = np.zeros(len(ends), dtype=bool)
    at_kink[at] = True
    a, b = ends[:-1], ends[1:]
    keep = a < cut
    if rise is not None:
        v = value(ends)
        top = float(np.max(v))
        bound = np.maximum(v[:-1], v[1:]) + rise(a, b)
        keep &= ~(bound < top - 1e-10 * max(1.0, abs(top)))
    ends_kept = np.zeros(len(ends), dtype=bool)
    ends_kept[:-1] = keep
    ends_kept[1:] |= keep
    valued = kinks[ends_kept[at]]
    a, b, kink_a, kink_b = a[keep], b[keep], at_kink[:-1][keep], at_kink[1:][keep]
    # cell i is read at a_i + (b_i - a_i) j/m_i, j = 0..m_i, each end stepped off a kink
    m = np.maximum(np.ceil((b - a) / ((hi - lo) / (_CELLS * _SECTIONS))), 1.0)
    cell = np.repeat(np.arange(len(a)), (m + 1).astype(int))
    j = np.arange(len(cell)) - np.searchsorted(cell, cell)
    xs = a[cell] + (b - a)[cell] * (j / m[cell])
    first, last = j == 0, j == m[cell]
    xs[last] = b[cell[last]]
    step = (first & kink_a[cell]) | (last & kink_b[cell])
    xs[step] += np.where(first[step], 1.0, -1.0) * np.maximum(_XTOL, np.spacing(xs[step]))
    s = np.full(len(xs), -1.0)
    below = xs < cut
    if below.any():
        s[below] = slope(xs[below])
    bad = ~np.isfinite(s)
    if bad.any():
        raise NumericError(f"derivative not finite at rate {xs[bad][0]}")
    signs = np.sign(s)
    i = np.nonzero(
        (cell[:-1] == cell[1:]) & (xs[:-1] < xs[1:]) & (signs[:-1] != signs[1:]) & (signs[:-1] >= 0)
    )[0]
    b_lo, b_hi = _refine(slope, xs[i], xs[i + 1], signs[i])
    roots = 0.5 * (b_lo + b_hi)
    if kinks.size:
        w = (b_hi - b_lo)[:, None]
        held = (b_lo[:, None] - w <= kinks) & (kinks <= b_hi[:, None] + w)
        roots = np.where(held.any(axis=1), kinks[held.argmax(axis=1)], roots)
    return _best(value, roots, lo, hi, valued)


def _argmax_r1(
    gamma: np.ndarray, t: np.ndarray, params: SystemParams, box: RateBox, clamp: bool
) -> tuple[float, str]:
    """Global maximizer of the r1 slice on the box, and its source.

    Client k's realized term (alpha/n - r/t_k) A_k(r) has right slope
    -A_k/t_k + (alpha/n - r/t_k) A_k'(r), with A_k' >= 0 and
    A_k >= ACCURACY_MIN > 0.  So past c = (alpha/n) max t every term, and the
    slice, strictly falls: at c <= r1_lo the maximum is r1_lo, and otherwise
    `_search` computes no slope past c.  The surrogate's unclamped A_k may
    be negative, so it keeps c = inf.
    """
    kinks, cut, rise = (), math.inf, None
    if clamp:
        share = params.alpha / params.n
        cut = share * float(t.max())
        if cut <= box.r1_lo:
            return box.r1_lo, "edge"
        # An accuracy response enters the clamp rectangle at gt*_C_IN and leaves
        # it at gt*_C_OUT, where the client's slope term jumps by a positive
        # multiple of alpha/n - _C_IN*gamma and of _C_OUT*gamma - alpha/n.  Only a
        # kink where the slope jumps down can be a maximum: at most one per client.
        gt = gamma * t
        kinks = np.concatenate(
            [gt[share < _C_IN * gamma] * _C_IN, gt[share > _C_OUT * gamma] * _C_OUT]
        )
        rise = _r1_rise(gamma, t, share)
    return _search(
        lambda r: _r1_slope(r, gamma, t, params, clamp),
        lambda r: _r1_value(r, gamma, t, params, clamp),
        box.r1_lo,
        box.r1_hi,
        kinks,
        cut,
        rise,
    )


def _argmax_r2(
    delta: np.ndarray, params: SystemParams, box: RateBox, clamp: bool
) -> tuple[float, str]:
    """Exact maximizer of the r2 slice on the box, one concave segment at a time.

    Between neighbouring in-box clamp kinks the live set and the capped count
    are fixed, so V(r) = (beta/n - r)(S1 ln r - S2 + FRESHNESS_MAX m) has
    V'' = -S1/r - beta S1/(n r^2) <= 0.  A segment holds an interior maximum
    only when its slope is positive just right of its left end and negative
    just left of its right end.  There the live sums (S1, S2, m) are fixed,
    and with B = beta/n and K = 1 + (FRESHNESS_MAX m - S2)/S1 the slope is
    V'(r) = S1 h(r), h(r) = B/r - ln r - K: the root is r* = B / W0(B e^K).
    h is convex and strictly decreasing, so Newton's method from the left
    end, where h > 0, rises monotonically to r* and never overshoots it.
    All inner segments are iterated at once, each iterate clipped to its
    segment's right end, until no iterate rises: a rising sequence of floats
    below a bound ends.  The unclamped surrogate is one segment with every
    client live.
    """
    lo, hi = box.r2_lo, box.r2_hi
    if hi <= lo:
        return lo, "edge"
    sums = _freshness_sums(delta)
    kinks = np.concatenate(sums[:2]) if clamp else np.empty(0)
    kinks = np.sort(kinks[(lo < kinks) & (kinks < hi)])
    ends = np.concatenate(([lo], kinks, [hi]))
    a, b = ends[:-1], ends[1:]
    live = _live_sums(a, sums, clamp)  # the segment's live set, read just right of a
    _, s_a = _r2_parts(a, live, params)
    _, s_b = _r2_parts(b, live, params)  # the left limit of the slope at b
    bad = ~(np.isfinite(s_a) & np.isfinite(s_b))
    if bad.any():
        raise NumericError(f"derivative not finite at rate {a[bad][0]}")
    inner = (s_a > 0) & (s_b < 0)
    r, end = a[inner], b[inner]
    s1, s2, m = _live_sums(r, sums, clamp)
    share = params.beta / params.n
    k = 1.0 + (FRESHNESS_MAX * m - s2) / s1
    while True:
        # the Newton step -h/h', with B = share and h' = -(B/r + 1)/r
        step = r * (share / r - np.log(r) - k) / (share / r + 1.0)
        nxt = np.minimum(r + step, end)
        rises = nxt > r
        if not rises.any():
            break
        r = np.where(rises, nxt, r)
    return _best(lambda x: _r2_parts(x, _live_sums(x, sums, clamp), params)[0], r, lo, hi, kinks)


def solve_r1(
    profiles: Sequence[ClientProfile], params: SystemParams, box: RateBox
) -> tuple[float, bool]:
    """Maximizer in r1 of the substituted (unclamped) utility within the box.

    Returns (rate, boundary): boundary is True when no stationary point beats
    the box edges and the better edge is returned instead.
    """
    gamma, _, t = _population_arrays(profiles)
    r1, source = _argmax_r1(gamma, t, params, box, clamp=False)
    return r1, source != "root"


def solve_r2(
    profiles: Sequence[ClientProfile], params: SystemParams, box: RateBox
) -> tuple[float, bool]:
    """Maximizer in r2 of the substituted (unclamped) utility within the box."""
    _, delta, _ = _population_arrays(profiles)
    r2, source = _argmax_r2(delta, params, box, clamp=False)
    return r2, source != "root"


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Solved reward rates plus the client responses and utilities they induce.

    The per-client results are the solver's read-only arrays: client k plays
    (accuracy[k], freshness[k], completion_time[k]) for utility utilities[k].
    `strategies` and `client_utilities` give the same as tuples, built when
    first read.  ``r1_source`` and ``r2_source`` say why each rate won its
    axis search: "root" (a stationary point of the realized objective),
    "kink" (a clamp kink) or "edge" (a box edge).
    """

    rates: RewardRates
    accuracy: np.ndarray
    freshness: np.ndarray
    completion_time: np.ndarray
    utilities: np.ndarray
    server_utility: float
    r1_source: str
    r2_source: str

    def __post_init__(self):
        for values in (self.accuracy, self.freshness, self.completion_time, self.utilities):
            values.flags.writeable = False

    @cached_property
    def strategies(self) -> tuple[Strategy, ...]:
        return tuple(
            map(
                Strategy,
                self.accuracy.tolist(),
                self.freshness.tolist(),
                self.completion_time.tolist(),
            )
        )

    @cached_property
    def client_utilities(self) -> tuple[float, ...]:
        return tuple(self.utilities.tolist())


def compute_equilibrium(
    profiles: Sequence[ClientProfile], params: SystemParams, box: RateBox
) -> EquilibriumResult:
    """Solve both rate dimensions, instantiate best responses, evaluate utility.

    Each rate maximizes the realized objective (clamped responses) over its
    box interval, so the reported rates dominate every in-box rate pair under
    actual client behaviour, not just under the smooth surrogate.
    """
    gamma, delta, t = _population_arrays(profiles)
    r1_star, r1_source = _argmax_r1(gamma, t, params, box, clamp=True)
    r2_star, r2_source = _argmax_r2(delta, params, box, clamp=True)

    rates = RewardRates(r1=r1_star, r2=r2_star)
    accuracy, freshness, _, _ = best_responses(gamma, delta, t, rates)
    utilities, server = population_utilities(
        gamma, delta, t, accuracy, freshness, params, rates
    )
    return EquilibriumResult(
        rates, accuracy, freshness, t, utilities, server, r1_source, r2_source
    )


@dataclass(frozen=True)
class ClientEquilibriumReport:
    """Certified bound on what a client gains by leaving its audited strategy."""

    worst_violation: float
    worst_strategy: Strategy
    passed: bool


def _move_gain(x, slope, slack, m, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Bound on what a concave part gains by moving from x within [lo, hi], and where.

    The part's slope at x is ``slope`` to within ``slack``, and its curvature
    is at most -m, so a move s gains at most (slope + slack) s - m s^2/2 for
    s >= 0 and (slope - slack) s - m s^2/2 for s <= 0.  Each side peaks at
    x + (slope +- slack)/m clipped into [x, hi] or [lo, x]; the larger peak is
    the bound, and the point reaching it is returned with it.
    """
    c_up, c_down = slope + slack, slope - slack
    # m may underflow to 0; fmax and fmin then skip the NaN of 0/0, which stays at x
    with np.errstate(divide="ignore", invalid="ignore"):
        y_up = np.fmin(np.fmax(x + c_up / m, x), hi)
        y_down = np.fmax(np.fmin(x + c_down / m, x), lo)
    s_up, s_down = y_up - x, y_down - x
    gain_up = s_up * (c_up - 0.5 * m * s_up)
    gain_down = s_down * (c_down - 0.5 * m * s_down)
    up = gain_up >= gain_down
    # + 0.0 turns the -0.0 of a null move against a falling slope into 0.0
    return np.where(up, gain_up, gain_down) + 0.0, np.where(up, y_up, y_down)


def _deviation_bounds(gamma, delta, t_min, rates: RewardRates) -> tuple[np.ndarray, np.ndarray]:
    """Every client's certified bound on what leaving its best response x gains.

    Returns the bounds and an (n, 3) array of (accuracy, freshness,
    completion time) rows: the strategies reaching them.  A deviation ranges
    over the clamp rectangle and any completion time T >= t_min.  Utility
    falls in T, since every accuracy in the rectangle is positive, so T = t_min,
    and it separates into two strongly concave parts:

    - accuracy: r1 A/t_min - gamma (1 + A) ln(1 + A), with slope
      r1/t_min - gamma (ln(1 + A) + 1) and curvature -gamma/(1 + A), at most
      -gamma/(1 + ACCURACY_MAX) on the rectangle;
    - freshness: r2 F - exp(delta F), with slope r2 - delta exp(delta F) and
      curvature -delta^2 exp(delta F), at most -delta^2.

    `_move_gain` bounds each part from x.  Each slope is padded by _SLACK
    times the sum of its terms' magnitudes (the freshness exponential's
    term once more per unit of delta F, which its argument's rounding
    scales), so the bound holds for the exact slope at the rounded x.
    """
    accuracy, freshness, _, _ = best_responses(gamma, delta, t_min, rates)
    paid_a = rates.r1 / t_min
    cost_a = gamma * (np.log1p(accuracy) + 1.0)
    gain_a, best_a = _move_gain(
        accuracy,
        paid_a - cost_a,
        _SLACK * (paid_a + cost_a),
        gamma / (1.0 + ACCURACY_MAX),
        ACCURACY_MIN,
        ACCURACY_MAX,
    )
    rise_f = delta * freshness
    cost_f = delta * np.exp(rise_f)
    with np.errstate(over="ignore"):  # any smaller curvature bound holds as well
        curve_f = np.minimum(delta * delta, np.finfo(float).max)
    gain_f, best_f = _move_gain(
        freshness,
        rates.r2 - cost_f,
        _SLACK * (rates.r2 + cost_f * (1.0 + rise_f)),
        curve_f,
        0.0,
        FRESHNESS_MAX,
    )
    return gain_a + gain_f, np.column_stack([best_a, best_f, t_min])


def _client_reports(
    violation: np.ndarray, strategy: np.ndarray
) -> tuple[ClientEquilibriumReport, ...]:
    """One `ClientEquilibriumReport` per client from its violation and `_deviation_bounds` row."""
    return tuple(
        ClientEquilibriumReport(
            worst_violation=v, worst_strategy=Strategy(*s), passed=v <= VERIFY_TOL
        )
        for v, s in zip(violation.tolist(), strategy.tolist())
    )


def verify_client_equilibrium(
    profile: ClientProfile,
    rates: RewardRates,
    comm_size: float = 0.0,
    strategy: Strategy | None = None,
) -> ClientEquilibriumReport:
    """Certify that no strategy beats the client's audited one by more than VERIFY_TOL.

    The audited strategy is the best response x unless ``strategy`` is given.
    The violation is u(x) + `_deviation_bounds`(x) - u(audited), both
    utilities by `client_utility`, so a client audited at x scores the bound alone.
    """
    best = best_response(profile, rates).strategy
    audited = best if strategy is None else strategy
    (bound,), (worst,) = _deviation_bounds(*_population_arrays([profile]), rates)
    violation = bound + (
        client_utility(profile, rates, best, comm_size)
        - client_utility(profile, rates, audited, comm_size)
    )
    return _client_reports(np.array([violation]), worst[None, :])[0]


@dataclass(frozen=True)
class ServerEquilibriumReport:
    """Worst rate deviation found against the solved rates."""

    worst_violation: float
    worst_rates: tuple[float, float]
    grid_points: int
    axis_points: int
    passed: bool


def verify_server_equilibrium(
    profiles: Sequence[ClientProfile],
    params: SystemParams,
    rates_star: RewardRates,
    box: RateBox,
    grid_n: int = 50,
) -> ServerEquilibriumReport:
    """Certify the solved rates against rate deviations over the box.

    Clients re-best-respond at every candidate rate pair (the deviation-with-
    fixed-strategies inequality is vacuous here: utility is strictly
    decreasing in the rates once strategies are frozen, so only the
    response-substituted comparison is informative).  Runs a grid_n x grid_n
    joint grid plus denser single-axis sweeps through the solved point;
    ``grid_n`` must be an integer of at least 1.
    """
    try:
        grid_n = operator.index(grid_n)
    except TypeError:
        raise DomainError(f"grid_n must be an integer, got {grid_n!r}") from None
    if grid_n < 1:
        raise DomainError(f"grid_n must be at least 1, got {grid_n}")
    gamma, delta, t = _population_arrays(profiles)
    sums = _freshness_sums(delta)
    part1 = lambda r: _r1_value(r, gamma, t, params, clamp=True)  # noqa: E731
    part2 = lambda r: _r2_parts(r, _live_sums(r, sums, True), params)[0]  # noqa: E731

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
        passed=bool(worst <= VERIFY_TOL),
    )
