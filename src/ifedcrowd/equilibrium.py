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
rest are narrowed together by safeguarded Newton steps on the slice's
closed-form curvature (one vectorized pass per step).  Only what can win is
refined.  On the realized objective the search
stops at c = (alpha/n) max t: past it every client's term
(alpha/n - r/t_k) A_k has right slope at most -A_k/t_k < 0, since
A_k >= ACCURACY_MIN.  So no slope is computed there, and at c <= r1_lo the
slice falls across the whole box: r1_lo is its maximum, and nothing is read
or valued.

Below c the realized search first bounds the cells, in the manner of
Piyavskii and Shubert.  The slice is valued at every cell end, and each
cell takes the bound the server certificate takes (`_R1Bound`): the lesser
of a Lipschitz cone on its end values and a chord bound on a curvature
bound, both summed over the clients live in the cell and padded for
rounding.  A cell whose bound falls short of the best cell end by more
than the final pick's tie snap cannot hold the pick, so only the other
cells are read.  A kept cell is read on the same points as when every cell
is read, so the search returns that reading's rate and source bit for bit
whenever it is the global maximum.  The surrogate has no kinks and no
bound, and reads every cell of the same search.

The solvers work on a stack of P populations of n clients each, one row
per population: a sweep cell solves all its runs in one pass
(`_equilibria`), and `compute_equilibrium` is the stack of one.  Each stage
(the r1 cells, their bounds and reads, the refinement, the pick, the r2
segments and their Newton steps, the best responses) runs once for the
whole stack, on flat arrays whose entries carry their population's index,
grouped by population.  A stage fails only the populations whose reads are
not finite, with the error a solve of its own would raise.  The rule that
keeps the stack exact is that a population sees the arithmetic of its own
solve, bit for bit: the same rates in the same order in every value and
slope call, the same choice between one block and the live windows below,
and every sum over clients taken by that population's own product (or sum)
over exactly its own rows.  A product's rounding depends on how many rows
it is given, so the stack shares only elementwise work and bookkeeping
(gathers, sorts, masks, the refine loop, the group maxima), never a sum.
The refine's slope and curvature pass (`_r1_newton`) shares no sum either:
it sums each rate's gathered row of clients along that row alone.

An r1 value or slope call larger than _BLOCK rates x clients entries for
one population takes exponentials over the live clients only.  With the
clients sorted by g_k = gamma_k t_k, client k is live on
[g_k (1 + ln 1.001), g_k (1 + ln 1.999)), so the live clients at a rate are
one contiguous window of that order; the clamped clients on either side
add constants from prefix sums of 1/t.  Rates are taken in blocks of at
most _BLOCK entries, so memory is O(_BLOCK), not O(rates x n), and the
smaller populations of a stack share blocks of at most _BLOCK entries.
Each value or slope call allocates one scratch buffer, and every block
writes its rates x clients temporaries into it in place.

Maximizing the realized objective is what keeps the equilibrium rates
undominated by any in-box rate pair once clamping binds, including for
heterogeneous populations.  A client is certified by strong concavity: its
utility separates into an accuracy and a freshness part, each with a
curvature bound on the clamp rectangle, so a closed form bounds what any
deviation gains over its best response (`_deviation_bounds`).  The server
is certified the same way, by upper bounds on each axis's slice over the
whole box (`_r1_certificate`, `_r2_certificate`), not by sampling rates.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, IFedCrowdError, NumericError
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
_SECTIONS = 64       # sections per coarse cell read
_XTOL = 1e-12        # bracket width at which refinement stops
_BLOCK = 1 << 16     # rates x clients entries per block of an r1 value or slope call
_PAD = 1e-9          # relative margin of an r1 live window
_CELL_BUDGET = 4096  # r1 cells the server certificate may bound
# r1/(gamma t) at which an accuracy response enters and leaves the clamp rectangle
_C_IN, _C_OUT = 1.0 + math.log1p(ACCURACY_MIN), 1.0 + math.log1p(ACCURACY_MAX)


def _keys(rows: np.ndarray) -> np.ndarray:
    """The keys p + i*v of the entries v of each row p of a stack, flat, for `_find`."""
    keys = np.empty(rows.shape, dtype=complex)
    keys.real, keys.imag = np.arange(len(rows))[:, None], rows
    return keys.ravel()


def _find(rows: np.ndarray, x: np.ndarray, pop: np.ndarray, side: str, keys=None) -> np.ndarray:
    """np.searchsorted(rows[pop[i]], x[i], side) for every i; each row of ``rows`` is sorted.

    A stack is searched once, through its `_keys` (``keys``, or made here):
    numpy orders complex numbers by real part, then by imaginary part, so
    they lay the sorted rows end to end in one sorted array.
    """
    if len(rows) == 1:
        return np.searchsorted(rows[0], x, side)
    keys = _keys(rows) if keys is None else keys
    wanted = np.empty(len(x), dtype=complex)
    wanted.real, wanted.imag = pop, x
    return np.searchsorted(keys, wanted, side) - pop * rows.shape[1]


def _starts(pop: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the grouped ``pop`` begins."""
    new = np.ones(len(pop), dtype=bool)
    np.not_equal(pop[1:], pop[:-1], out=new[1:])
    return np.flatnonzero(new)


def _scratch(entries: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two float buffers and a bool buffer of ``entries`` each, for `_r1_terms`.

    They share one allocation, so the allocator gets back one block it can
    hand out whole to the next call.
    """
    buf = np.empty(2 * entries + -(-entries // 8))
    return buf[:entries], buf[entries : 2 * entries], buf[2 * entries :].view(bool)[:entries]


def _r1_terms(r: np.ndarray, g: np.ndarray, clamp: bool, slope: bool, scratch, rows=None):
    """x = exp(r/g_k - 1) and the accuracy responses x - 1, one row per rate of r.

    ``g`` holds g_k = gamma_k t_k, one row of clients for every rate, or
    with ``rows`` a stack of rows, row rows[i] for rate i, gathered straight
    into x.  The responses are clamped with ``clamp``, and then for a
    ``slope`` x is zeroed wherever its response is clamped, since a clamped
    response has zero slope.  Both are views of the `_scratch` buffers,
    which hold at least len(r) * n entries each.
    """
    shape = (len(r), g.shape[-1])
    x, a, dead = (buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
    if rows is not None:
        g = np.take(g, rows, axis=0, out=x, mode="clip")  # "raise" would buffer the gather
    np.divide(r[:, None], g, out=x)
    np.subtract(x, 1.0, out=x)
    np.exp(x, out=x)
    np.subtract(x, 1.0, out=a)
    if clamp:
        if slope:
            np.less(a, ACCURACY_MIN, out=dead)
            np.copyto(x, 0.0, where=dead)
            np.greater_equal(a, ACCURACY_MAX, out=dead)
            np.copyto(x, 0.0, where=dead)
        np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
    return x, a


def _r1_weights(g: np.ndarray, t: np.ndarray, share: float, slope: bool) -> np.ndarray:
    """The clients' weights in `_r1_rows`, stacked on the second-to-last axis.

    They are alpha/(n g_k), 1/(t_k g_k) and 1/t_k for a slope, and 1/t_k
    alone for a value.
    """
    if slope:
        return np.stack([share / g, 1.0 / (t * g), 1.0 / t], axis=-2)
    return (1.0 / t)[..., None, :]


def _r1_rows(r: np.ndarray, x: np.ndarray, a: np.ndarray, w: np.ndarray, share: float, slope):
    """The r1 slice (or its slope) at rates r from their `_r1_terms` and `_r1_weights`."""
    if slope:
        return x @ w[0] - r * (x @ w[1]) - a @ w[2]
    return share * a.sum(axis=1) - r * (a @ w[0])


def _r1_windowed(r: np.ndarray, g, t, cum, share: float, slope: bool, scratch):
    """The realized r1 slice (or its slope) at rates r, over each rate's live clients only.

    ``g`` and ``t`` hold one population's clients.  Given ``cum``, the
    prefix sums of 1/t_k, they are sorted by g_k = gamma_k t_k; otherwise
    they are sorted here.  A client is live exactly when
    g_k _C_IN <= r < g_k _C_OUT, so the live clients at any rate form one
    contiguous window of that order: the clients before it sit at
    ACCURACY_MAX, those after it at ACCURACY_MIN, and their terms are
    constants times prefix sums of 1/t.  Both window ends rise with the
    rate, so the sorted rates go in blocks of consecutive rates whose rows
    times window width stay within _BLOCK entries (at least one rate per
    block), and exponentials are taken over each block's window only.  A
    window is padded by the relative margin _PAD, so every client outside
    it clamps whatever the rounding of its exponential, and inside it the
    clamp test is the exact one of `_r1_terms`.  Every block reuses
    ``scratch``.  Returns the results in the order of r.
    """
    if cum is None:
        order = np.argsort(g, kind="stable")
        g, t = g[order], t[order]
        cum = np.concatenate(([0.0], np.cumsum(1.0 / t)))
    n = len(g)
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
        x, a = _r1_terms(rb, g[lo:hi], True, slope, scratch)
        part = _r1_rows(rb, x, a, _r1_weights(g[lo:hi], t[lo:hi], share, slope), share, slope)
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


def _r1_parts(r1, gamma, t, params: SystemParams, clamp: bool, slope: bool, pop=None, ranked=None):
    """`_r1_value` (or, with ``slope``, `_r1_slope`) at every rate of r1, in its order.

    Each population's rates are computed as in a call of their own.  At
    most _BLOCK rates x clients entries are one block over every client.  A
    larger clamped call goes through `_r1_windowed`, which sorts the
    population's clients by g unless ``ranked``, the stack's `_R1Bound`,
    holds them sorted; a larger unclamped one, where every client is live,
    is split into blocks of rates over every client.  Populations of at
    most _BLOCK entries share a block with their neighbours while the block
    stays within _BLOCK entries; its exponentials are taken once, and
    `_r1_rows` sums each population's own rows.  The blocks share one
    `_scratch`, allocated here: no block holds more than max(_BLOCK, n)
    entries.
    """
    r = np.atleast_1d(np.asarray(r1, dtype=float))
    if pop is None:
        gamma, t, bounds = gamma[None], t[None], [0, len(r)]
    else:
        bounds = np.searchsorted(pop, np.arange(len(gamma) + 1)).tolist()
    g = gamma * t
    share = params.alpha / params.n
    n = g.shape[1]
    scratch = _scratch(min(len(r) * n, max(_BLOCK, n)))
    out = np.empty(len(r))
    # an overflowed response clips to the cap; the slope's products may hold inf*0
    with np.errstate(over="ignore", invalid="ignore" if slope else None):
        p = 0
        while p < len(g):
            s, e = bounds[p], bounds[p + 1]
            if (e - s) * n > _BLOCK:
                if clamp:
                    clients = (g[p], t[p], None)
                    if ranked is not None:
                        clients = ranked.g[p], ranked.t[p], ranked.cum[0, p]
                    out[s:e] = _r1_windowed(r[s:e], *clients, share, slope, scratch)
                else:
                    w = _r1_weights(g[p], t[p], share, slope)
                    step = max(_BLOCK // n, 1)
                    for i in range(s, e, step):
                        rb = r[i : min(i + step, e)]
                        x, a = _r1_terms(rb, g[p], False, slope, scratch)
                        out[i : i + len(rb)] = _r1_rows(rb, x, a, w, share, slope)
                p += 1
                continue
            q = p + 1
            while q < len(g) and (bounds[q + 1] - s) * n <= _BLOCK:
                q += 1
            rb = r[s : bounds[q]]
            rows = None if q == p + 1 else pop[s : bounds[q]]
            x, a = _r1_terms(rb, g[p] if rows is None else g, clamp, slope, scratch, rows)
            w = _r1_weights(g[p:q], t[p:q], share, slope)
            for k in range(p, q):
                i, j = bounds[k] - s, bounds[k + 1] - s
                if j > i:
                    out[s + i : s + j] = _r1_rows(rb[i:j], x[i:j], a[i:j], w[k - p], share, slope)
            p = q
    return out if np.ndim(r1) else float(out[0])


def _r1_value(r1, gamma, t, params: SystemParams, clamp: bool, pop=None, ranked=None):
    """r1-dependent slice of the server utility: sum_k (alpha/n - r1/t_k) A_k(r1).

    A_k is the accuracy response exp(r1/(gamma_k t_k) - 1) - 1, clamped into
    [ACCURACY_MIN, ACCURACY_MAX] when ``clamp`` is set.  Takes a rate or a
    1-D array of rates and returns the same shape.  With ``pop``, gamma and
    t hold a stack of populations, one per row, and rate i is taken in
    population pop[i], pop nondecreasing; ``ranked`` as in `_r1_parts`.
    """
    return _r1_parts(r1, gamma, t, params, clamp, False, pop, ranked)


def _r1_slope(r1, gamma, t, params: SystemParams, clamp: bool, pop=None, ranked=None):
    """Right derivative of `_r1_value` in r1, with dA_k/dr1 = exp(r1/(gamma_k t_k) - 1)/(gamma_k t_k).

    A clamped response has zero slope.  A client counts as unclamped on
    [ACCURACY_MIN, ACCURACY_MAX), where its response rises just right of r1.
    """
    return _r1_parts(r1, gamma, t, params, clamp, True, pop, ranked)


def _r1_newton(gamma: np.ndarray, t: np.ndarray, share: float, clamp: bool):
    """The r1 slope and curvature at any rates, for `_refine`'s Newton steps.

    With s = alpha/n, g_k = gamma_k t_k and x_k = exp(r/g_k - 1), a live
    client's term (s - r/t_k)(x_k - 1) has slope
    x_k (s/g_k - r/(t_k g_k)) - (x_k - 1)/t_k, as in `_r1_slope`, and
    curvature x_k ((s - r/t_k)/g_k^2 - 2/(g_k t_k)).  With ``clamp`` a
    clamped client's term is linear, -A_k/t_k in the slope and 0 in the
    curvature; without it every client counts, as in `d2u_dr1`.  gamma and
    t hold a stack of populations, one per row.  Returns a function of rates
    r and their populations pop giving (slope, curvature) at every rate.
    Each rate's row of clients is gathered and summed along itself, so its
    results depend on no other rate of the call: a stack refines bit for bit
    as its populations would alone, with none of `_r1_parts`' per-population
    blocks.  Rates go in blocks of at most _BLOCK/8 rates x clients entries
    (at least one rate), so that a block's seven such temporaries stay
    within max(_BLOCK, 8 n) entries.
    """
    g = gamma * t
    n = g.shape[1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv = 1.0 / g
        # the weights of x and r x in the slope and in the curvature, then of A in the slope
        w = np.stack([share * inv, inv / t, inv * (share * inv - 2.0 / t), inv * inv / t, 1.0 / t])

    def newton(r: np.ndarray, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        slope, curve = np.empty(len(r)), np.empty(len(r))
        step = max(_BLOCK // (8 * n), 1)
        # an overflowed x clips its response to the cap; its products may hold inf*0
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(r), step):
                rb, pb = r[i : i + step], pop[i : i + step]
                x = g[pb]
                np.divide(rb[:, None], x, out=x)
                np.subtract(x, 1.0, out=x)
                np.exp(x, out=x)
                a = x - 1.0
                if clamp:
                    x = np.where((a >= ACCURACY_MIN) & (a < ACCURACY_MAX), x, 0.0)
                    np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
                terms = w[:, pb]  # the weights' rows, times x or A in place
                terms[:4] *= x
                terms[4] *= a
                sx, srx, cx, crx, sa = terms.sum(axis=2)
                slope[i : i + step] = sx - rb * srx - sa
                curve[i : i + step] = cx - rb * crx
        return slope, curve

    return newton


def _freshness_sums(delta: np.ndarray):
    """The r2 clamp kinks, sorted, and prefix sums over the clients sorted by delta.

    Freshness leaves 0 at r2 = delta_k and reaches FRESHNESS_MAX at
    delta_k exp(FRESHNESS_MAX delta_k).  Both kinks rise with delta_k, so the
    clients live at any rate are one contiguous run of the delta order, and
    their sums of 1/delta and ln(delta)/delta are differences of prefix sums.
    A stack of populations, one per row, gets the same row by row.
    """
    d = np.sort(delta, axis=-1)
    with np.errstate(over="ignore"):  # a cap that overflows is never reached
        cap = d * np.exp(FRESHNESS_MAX * d)
    zero = np.zeros(d.shape[:-1] + (1,))
    p1 = np.concatenate([zero, np.cumsum(1.0 / d, axis=-1)], axis=-1)
    p2 = np.concatenate([zero, np.cumsum(np.log(d) / d, axis=-1)], axis=-1)
    return d, cap, p1, p2


def _live_sums(r, sums, clamp: bool, pop=None):
    """(S1, S2, m) at rates r: S1 = sum 1/delta_k and S2 = sum ln(delta_k)/delta_k
    over the live clients, m = the number capped at FRESHNESS_MAX.

    A client is live on [delta_k, cap_k), where its response rises just right
    of r; unclamped, every client is live.  Two binary searches per rate.
    With ``pop``, ``sums`` are a stack's, and rate i is taken in population
    pop[i].
    """
    if pop is not None and len(sums[0]) == 1:  # a stack of one is its one row
        sums, pop = [row[0] for row in sums], None
    d, cap, p1, p2 = sums
    if pop is None:
        if not clamp:
            return p1[-1], p2[-1], 0
        i = np.searchsorted(d, r, side="right")
        j = np.searchsorted(cap, r, side="right")
        return p1[i] - p1[j], p2[i] - p2[j], j
    if not clamp:
        return p1[pop, -1], p2[pop, -1], 0
    i = _find(d, r, pop, "right")
    j = _find(cap, r, pop, "right")
    return p1[pop, i] - p1[pop, j], p2[pop, i] - p2[pop, j], j


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


def _refine(curve, lo: np.ndarray, hi: np.ndarray, s_lo: np.ndarray, s_hi: np.ndarray, pop):
    """Narrow every slope sign change [lo_i, hi_i] at once; return the final brackets.

    Bracket i lies in population pop[i], pop nondecreasing, and its ends
    were read with slopes s_lo_i and s_hi_i of different signs.  ``curve``
    is called as curve(rates, pop) and returns the slope and the curvature
    at every rate (`_r1_newton`).  Inside a bracket every read lies on the
    multiples of one step: the largest power of two up to _XTOL, or one ulp
    of the bracket's larger end where that is more, so every multiple is a
    float.  A bracket starts at the multiple nearest the secant point of its
    end slopes.  Each pass calls ``curve`` once, at the iterate x of every
    bracket and at the multiples either side of it (a read at or past an end
    reads that end), and keeps the first of the four sections between the
    bracket's ends and those three points whose right end has a sign other
    than s_lo's (a zero counts as the other side).  The next iterate is the multiple
    nearest the Newton point x - s(x)/c(x), or the new bracket's middle
    multiple where that point is not strictly inside the new bracket or the
    curvature c(x) is not negative and finite.  So an iterate within a step
    of a root closes its bracket in that pass.  A bracket closes at one
    step: within _XTOL, or where one ulp exceeds _XTOL, on adjacent floats.
    A bracket whose reads change sign once ends on the multiples either
    side of that change whatever its start and path, so neither the
    rounding of the end slopes nor where the scan put the ends moves a root
    more than a step inside them.
    """
    # a power of two, so that every multiple of it that a bracket reads is a float
    ulp = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    unit = np.maximum(2.0 ** math.floor(math.log2(_XTOL)), ulp)
    sign_lo = np.sign(s_lo)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        x = lo - s_lo * ((hi - lo) / (s_hi - s_lo))
    # the ends as multiples of the step, at or past each end, and as rates
    k_lo, k_hi = np.floor(lo / unit), np.ceil(hi / unit)
    r_lo, r_hi = lo, hi
    pops = np.repeat(pop, 3)
    rows = np.arange(len(lo))
    while True:
        open_ = (k_hi - k_lo > 1) & (r_hi - r_lo > unit)
        if not open_.any():
            return r_lo, r_hi
        inside = (r_lo < x) & (x < r_hi)  # False for NaN
        k = np.where(inside, np.rint(np.where(inside, x, lo) / unit), np.floor(0.5 * (k_lo + k_hi)))
        k = np.minimum(np.maximum(k, k_lo + 1.0), k_hi - 1.0)
        ks = np.stack([k_lo, k - 1.0, k, k + 1.0, k_hi], axis=1)
        # a multiple at or past an end reads as that end, whose side is known
        rates = np.minimum(np.maximum(ks * unit[:, None], lo[:, None]), hi[:, None])
        s, c = curve(rates[:, 1:4].ravel(), pops)
        s, c = s.reshape(-1, 3), c[1::3]
        inner = rates[:, 1:4]
        flip = (np.sign(s) != sign_lo) & (inner > lo[:, None]) | (inner == hi[:, None])
        j = np.where(flip.any(axis=1), flip.argmax(axis=1), 3)
        # every pass reads every bracket, and only the open ones move
        j_lo, j_hi = np.where(open_, j, 0), np.where(open_, j + 1, 4)
        k_lo, k_hi = ks[rows, j_lo], ks[rows, j_hi]
        r_lo, r_hi = rates[rows, j_lo], rates[rows, j_hi]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = np.where((c < 0) & np.isfinite(c), rates[:, 2] - s[:, 1] / c, np.nan)


def _best(
    value,
    roots: np.ndarray,
    root_pop: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    kinks: np.ndarray,
    kink_pop: np.ndarray,
    pops: np.ndarray,
) -> list[tuple[float, str]]:
    """Each population's best by value of its roots, its edges and its kinks, plus its source.

    One pick is made for each population of ``pops``, which is increasing;
    the roots and kinks are those of its populations, grouped by population.
    One value(rates, pop) call reads every population's candidates, each in
    the order roots, lo_p, hi_p, kinks.
    The source is "edge" for a box edge, "kink" for one of the kinks (a
    root snapped onto a kink counts as one) and "root" otherwise.
    Candidates within 1e-10 relative of the best tie toward the earliest,
    so a root is preferred over an edge or kink that beats it only by
    floating-point dust.
    """
    rates = np.concatenate([roots, lo[pops], hi[pops], kinks])
    pop = np.concatenate([root_pop, pops, pops, kink_pop])
    order = np.argsort(pop, kind="stable")
    rates, pop = rates[order], pop[order]
    values = value(rates, pop)
    starts = np.searchsorted(pop, pops)
    best = np.maximum.reduceat(values, starts)
    snap = 1e-10 * np.maximum(1.0, np.abs(best))
    slot = np.searchsorted(pops, pop)
    ties = np.where(values >= (best - snap)[slot], np.arange(len(values)), len(values))
    # no tie at all (a NaN best) indexes past the end and raises, as it always has
    rate = rates[np.minimum.reduceat(ties, starts)]
    kink = np.zeros(len(pops), dtype=bool)
    if kinks.size:
        kink_slot = np.searchsorted(pops, kink_pop)
        kink[kink_slot[kinks == rate[kink_slot]]] = True
    edge = (rate == lo[pops]) | (rate == hi[pops])
    return [
        (x, "edge" if at_edge else "kink" if at_kink else "root")
        for x, at_edge, at_kink in zip(rate.tolist(), edge.tolist(), kink.tolist())
    ]


class _R1Bound:
    """Upper bounds on the realized r1 slice V over cells [a, b], for a stack of populations.

    With s = alpha/n and g_k = gamma_k t_k, client k is live on
    [g_k _C_IN, g_k _C_OUT), where its term (s - r/t_k) A_k(r) has
    V_k'' = (A_k'/g_k)(s - (r + 2 g_k)/t_k), A_k' = x_k/g_k and
    x_k = e^(r/g_k - 1) in [1 + ACCURACY_MIN, 1 + ACCURACY_MAX]; elsewhere
    it is linear.  Its slope jumps by (s - gamma_k _C_IN)(1 + ACCURACY_MIN)/g_k
    at entry and by (gamma_k _C_OUT - s)(1 + ACCURACY_MAX)/g_k at exit,
    down or up by the sign.  ``kinks`` holds them sorted, with their
    ``jump`` and ``drops`` the sum of the down-jumps before each; only a
    down-kink can be a maximum, and ``down`` lists them with their
    populations ``down_pop``.  ``g``, ``t`` and ``cum`` hold each population
    sorted by g and its prefix sums in that order, which `_r1_windowed`
    reads too.  The clients live somewhere in a cell [a, b] are one run of
    that order (`window`, padded as in `_r1_windowed`), so the prefix sums
    give, with no cells x clients array:

    - M >= -V'', from -V_k'' <= (1 + ACCURACY_MAX)(b + 2 g_k)/(t_k g_k^2);
    - D, the down-jumps strictly inside, summed;
    - U >= V' and F >= -V', from V' = -sum A_k/t_k + sum over the live of
      (s - r/t_k) x_k/g_k, with the clients past the window at
      ACCURACY_MAX and those short of it at ACCURACY_MIN.

    A cell is bounded by the lesser of:

    - the chord bound.  V + M (x - a)(x - b)/2 + sum |J_p| |x - p|/2 over
      the down-kinks p is convex on the cell, so V is at most
      max(V(a), V(b)) + M (b - a)^2/8 + D (b - a)/4;
    - the cone V <= min(V(a) + U (x - a), V(b) + F (b - x)), Piyavskii and
      Shubert's Lipschitz bound (Shubert, SIAM J. Numer. Anal., 1972),
      which is (V(a) + V(b))/2 + L (b - a)/2 when U = F = L.

    Slopes, curvatures and jumps are padded for rounding as in
    `_deviation_bounds`, prefix sums by n eps of their total; V(a) and V(b)
    are compared as computed (ROADMAP item 5).  gamma and t hold a stack of
    populations, one per row.  Called with the cell ends a, b, their values
    V(a), V(b) and the populations pop, it returns each cell's bound and a
    rate where it sits.  A bound that is not a number reads as +inf.  A
    client so small in g that its terms overflow sits first in the g order
    and makes the prefix sums past it infinite, so the cells whose windows
    reach it or lie past it may go unbounded.  Every step is elementwise or
    a prefix sum along one population's row, so a population's bounds in a
    stack equal its bounds alone, bit for bit.
    """

    def __init__(self, gamma: np.ndarray, t: np.ndarray, share: float):
        g = gamma * t
        n = g.shape[1]
        rows, order = np.arange(len(g))[:, None], np.argsort(g, axis=1, kind="stable")
        self.g, self.t, self.share = g[rows, order], t[rows, order], share
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            enter = (share - _C_IN * gamma) * (1.0 + ACCURACY_MIN) / g
            leave = (_C_OUT * gamma - share) * (1.0 + ACCURACY_MAX) / g
            inv = 1.0 / self.g
            terms = np.stack([1.0 / self.t, inv, inv / self.t, inv * inv / self.t])
        jump = np.concatenate([enter, leave], axis=1)  # in the clients' order
        kinks, down = np.concatenate([g * _C_IN, g * _C_OUT], axis=1), jump < 0
        self.down, self.down_pop = kinks[down], np.nonzero(down)[0]
        # sorted by rate from the g order, entries then exits, in which equal kinks stay
        slots = np.concatenate([order, order + n], axis=1)
        by_rate = slots[rows, np.argsort(kinks[rows, slots], axis=1, kind="stable")]
        self.kinks, self.jump = kinks[rows, by_rate], jump[rows, by_rate]
        self.drops = np.zeros((len(g), 2 * n + 1))
        np.cumsum(np.where(self.jump < 0, -self.jump, 0.0), axis=1, out=self.drops[:, 1:])
        self.cum = np.zeros((4, len(g), n + 1))  # of 1/t, 1/g, 1/(g t) and 1/(g^2 t)
        np.cumsum(terms, axis=2, out=self.cum[:, :, 1:])
        self.fuzz = n * np.finfo(float).eps
        self.keys = [_keys(self.g), _keys(self.kinks)] if len(g) > 1 else [None, None]

    def window(self, a, b, pop):
        """The run [first, stop) of the g order of the clients live somewhere in [a, b]."""
        first = _find(self.g, a / _C_OUT * (1.0 - _PAD), pop, "left", self.keys[0])
        stop = _find(self.g, b / _C_IN * (1.0 + _PAD), pop, "right", self.keys[0])
        return first, stop

    def __call__(self, a, b, va, vb, pop) -> tuple[np.ndarray, np.ndarray]:
        first, stop = self.window(a, b, pop)
        n = self.g.shape[1]
        # one flat gather over the populations' rows laid end to end, faster than a 2-D one
        at, cum = pop * (n + 1), self.cum.reshape(4, -1)
        cum_first, cum_stop = np.take(cum, at + first, axis=1), np.take(cum, at + stop, axis=1)
        total = cum[0, at + n]
        at, drops = pop * (2 * n + 1), self.drops.ravel()
        drop_a = drops[at + _find(self.kinks, a, pop, "right", self.keys[1])]
        drop_b = drops[at + _find(self.kinks, b, pop, "left", self.keys[1])]
        w = b - a
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the window's sums of 1/g, 1/(g t) and 1/(g^2 t)
            live = (cum_stop[1:] - cum_first[1:]) * (1.0 + _SLACK) + self.fuzz * cum_stop[1:]
            least = ACCURACY_MAX * cum_first[0] + ACCURACY_MIN * (total - cum_first[0])
            most = ACCURACY_MAX * cum_stop[0] + ACCURACY_MIN * (total - cum_stop[0])
            summed = self.fuzz * total  # the rounding of the prefix sums of 1/t
            rise = (1.0 + ACCURACY_MAX) * self.share * live[0] - least * (1.0 - _SLACK) + summed
            fall = (1.0 + ACCURACY_MAX) * b * live[1] + most * (1.0 + _SLACK) + summed
            y = np.clip((vb - va + fall * w) / (rise + fall), 0.0, w)
            flat, steep = rise <= 0, fall <= 0
            y = np.where(flat, 0.0, np.where(steep, w, y))
            cone = np.where(flat, va, np.where(steep, vb, va + rise * y))
            curve = (1.0 + ACCURACY_MAX) * (b * live[2] + 2.0 * live[1])
            drop = (drop_b - drop_a) * (1.0 + _SLACK) + self.fuzz * drop_b
            chord = np.maximum(va, vb) + curve * w * w / 8.0 + drop * w / 4.0
            out = np.minimum(cone, chord)
            where = np.where(cone < chord, a + y, np.where(va >= vb, a, b))
        return np.where(np.isnan(out), math.inf, out), where


def _coarse(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.linspace(lo_p, hi_p, _CELLS + 1) as row p, for every p, rounded as linspace rounds."""
    j = np.arange(_CELLS + 1)
    width = (hi - lo)[:, None]
    step = width / _CELLS
    # linspace scales j/_CELLS by the width where the step underflows to 0
    points = np.where(step == 0, j / _CELLS * width, j * step) + lo[:, None]
    points[:, -1] = hi
    return points


def _search(
    slope,
    curve,
    value,
    lo: np.ndarray,
    hi: np.ndarray,
    kinks: np.ndarray,
    kink_pop: np.ndarray,
    cut: np.ndarray,
    bound=None,
) -> list:
    """Global maximizer of a piecewise-smooth axis objective on [lo_p, hi_p], for each population p.

    ``slope``, ``curve`` (`_refine`'s slope and curvature), ``value`` and
    ``bound`` take their rates (or cells) with the population of each,
    grouped; ``kinks`` are grouped by their populations
    ``kink_pop``, and ``cut`` holds one cut per population.  The box is cut
    into cells at _CELLS + 1 equally spaced points, up to the first one at
    or past ``cut``, at ``hi`` and at the in-box ``kinks``, where the slope
    jumps down (an upward jump is a convex corner).  A cell [a, b] with
    a >= ``cut`` is dropped: the objective is known to fall strictly past
    the cut.  With ``bound``, the objective is valued at every cell end,
    ``bound(a, b, V(a), V(b), pop)[0]`` bounds it on each cell [a, b]
    (`_R1Bound`), and a cell whose bound is below the best end value less
    `_best`'s tie snap, 1e-10 max(1, |best|), is dropped too; an infinite
    bound keeps its cell.  A dropped cell holds only candidates more than
    the tie snap below the best end value, so it cannot hold the pick.
    Without ``bound`` every cell below the cut is kept.

    The slope is read in one call at the ends of equal sections of every
    kept cell: _SECTIONS of a cell between neighbouring coarse points, and
    ceil((b - a)/h) of any other, h = (hi - lo)/(_CELLS _SECTIONS), whose
    rounding would read a whole coarse cell at 65 sections about half the
    time.  A cell end at a kink is read max(_XTOL, ulp) inside the cell.  So
    no bracket between neighbouring reads holds a kink or ends on one, and
    a sign change across a kink, which has that kink as its root, is no
    bracket: `_best` values the kink.  Reads at or past the cut take the
    sign -1, their exact sign, and a non-finite read fails its population.
    A sign change that leaves a negative slope rises: `_refine` would narrow
    it to where the slope turns from - to 0 or +, a local minimum.  Every
    other sign change is refined with `_refine`, from the slopes read at its
    ends.  Its root is its bracket's midpoint, or a kink within the
    bracket's width of it.  `_best` picks
    among the roots, the edges and the kinks that end a kept cell.  A
    degenerate box returns its edge.

    Returns (rate, source) for each population, or the NumericError of its
    first non-finite read.
    """
    out: list = [(float(x), "edge") for x in lo]
    live = hi > lo
    if not live.any():
        return out
    inside = live[kink_pop] & (lo[kink_pop] < kinks) & (kinks < hi[kink_pop])
    kinks, kink_pop = kinks[inside], kink_pop[inside]
    coarse = _coarse(lo, hi)
    below_cut = np.sum(coarse < cut[:, None], axis=1)
    coarse_kept = live[:, None] & (np.arange(_CELLS + 1) <= below_cut[:, None])
    points = np.concatenate([coarse[coarse_kept], kinks, hi[live]])
    point_pop = np.concatenate([np.nonzero(coarse_kept)[0], kink_pop, np.flatnonzero(live)])
    order = np.lexsort((points, point_pop))
    points, point_pop = points[order], point_pop[order]
    # not np.unique, whose first call imports numpy.ma
    new = np.ones(len(points), dtype=bool)
    new[1:] = (points[1:] > points[:-1]) | (point_pop[1:] != point_pop[:-1])
    ends, pop = points[new], point_pop[new]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    n_coarse = int(coarse_kept.sum())
    at = rank[n_coarse : n_coarse + len(kinks)]  # the end at each kink
    at_kink = np.zeros(len(ends), dtype=bool)
    at_kink[at] = True
    at_coarse = np.zeros(len(ends), dtype=bool)
    at_coarse[rank[:n_coarse]] = True
    left = np.flatnonzero(pop[:-1] == pop[1:])
    a, b, cell_pop = ends[left], ends[left + 1], pop[left]
    keep = a < cut[cell_pop]
    if bound is not None:
        v = value(ends, pop)
        top = np.full(len(lo), np.nan)
        starts = _starts(pop)
        top[pop[starts]] = np.maximum.reduceat(v, starts)
        floor = top - 1e-10 * np.maximum(1.0, np.abs(top))
        keep &= ~(bound(a, b, v[left], v[left + 1], cell_pop)[0] < floor[cell_pop])
    ends_kept = np.zeros(len(ends), dtype=bool)
    ends_kept[left[keep]] = True
    ends_kept[left[keep] + 1] = True
    valued = ends_kept[at]
    kink_a, kink_b = at_kink[left][keep], at_kink[left + 1][keep]
    whole = (at_coarse[left] & at_coarse[left + 1])[keep]  # between neighbouring coarse points
    a, b, cell_pop = a[keep], b[keep], cell_pop[keep]
    # cell i is read at a_i + (b_i - a_i) j/m_i, j = 0..m_i, each end stepped off a kink
    h = (hi - lo) / (_CELLS * _SECTIONS)
    m = np.where(whole, _SECTIONS, np.maximum(np.ceil((b - a) / h[cell_pop]), 1.0))
    cell = np.repeat(np.arange(len(a)), (m + 1).astype(int))
    j = np.arange(len(cell)) - np.searchsorted(cell, cell)
    xs = a[cell] + (b - a)[cell] * (j / m[cell])
    first, last = j == 0, j == m[cell]
    xs[last] = b[cell[last]]
    step = (first & kink_a[cell]) | (last & kink_b[cell])
    xs[step] += np.where(first[step], 1.0, -1.0) * np.maximum(_XTOL, np.spacing(xs[step]))
    xs_pop = cell_pop[cell]
    s = np.full(len(xs), -1.0)
    below = xs < cut[xs_pop]
    if below.any():
        s[below] = slope(xs[below], xs_pop[below])
    failed = np.zeros(len(lo), dtype=bool)
    bad = np.flatnonzero(~np.isfinite(s))
    for i in bad[_starts(xs_pop[bad])].tolist() if bad.size else ():
        failed[xs_pop[i]] = True
        out[xs_pop[i]] = NumericError(f"derivative not finite at rate {xs[i]}")
    signs = np.sign(s)
    i = np.flatnonzero(
        (cell[:-1] == cell[1:])
        & (xs[:-1] < xs[1:])
        & (signs[:-1] != signs[1:])
        & (signs[:-1] >= 0)
        & ~failed[xs_pop[:-1]]
    )
    bracket_pop = xs_pop[i]
    b_lo, b_hi = _refine(curve, xs[i], xs[i + 1], s[i], s[i + 1], bracket_pop)
    roots = 0.5 * (b_lo + b_hi)
    if kinks.size:
        w = (b_hi - b_lo)[:, None]
        held = (
            (bracket_pop[:, None] == kink_pop)
            & (b_lo[:, None] - w <= kinks)
            & (kinks <= b_hi[:, None] + w)
        )
        roots = np.where(held.any(axis=1), kinks[held.argmax(axis=1)], roots)
    pops = np.flatnonzero(live & ~failed)
    if pops.size:
        shown = valued & ~failed[kink_pop]
        picks = _best(value, roots, bracket_pop, lo, hi, kinks[shown], kink_pop[shown], pops)
        for p, pick in zip(pops.tolist(), picks):
            out[p] = pick
    return out


def _argmax_r1(
    gamma: np.ndarray, t: np.ndarray, params: SystemParams, boxes: Sequence[RateBox], clamp: bool
) -> list:
    """Global maximizer of the r1 slice on each box, and its source, for a stack of populations.

    Client k's realized term (alpha/n - r/t_k) A_k(r) has right slope
    -A_k/t_k + (alpha/n - r/t_k) A_k'(r), with A_k' >= 0 and
    A_k >= ACCURACY_MIN > 0.  So past c = (alpha/n) max t, rounded up
    (`_r1_cut`), every term, and the slice, strictly falls: at c <= r1_lo
    the maximum is r1_lo, and otherwise `_search` computes no slope past c
    and prunes the cells below it by `_R1Bound`.  The surrogate's unclamped
    A_k may be negative, so it keeps c = inf and no bound.  gamma and t
    hold one population per row, with its box in ``boxes``.
    """
    lo = np.array([box.r1_lo for box in boxes], dtype=float)
    hi = np.array([box.r1_hi for box in boxes], dtype=float)
    out: list = [(float(x), "edge") for x in lo]
    todo = np.arange(len(lo))
    cut = np.full(len(lo), math.inf)
    kinks, kink_pop, bound = np.empty(0), np.empty(0, dtype=np.intp), None
    share = params.alpha / params.n
    if clamp:
        cut = _r1_cut(params, t)
        todo = np.flatnonzero(~(cut <= lo))
        if not todo.size:
            return out
        gamma, t, lo, hi, cut = gamma[todo], t[todo], lo[todo], hi[todo], cut[todo]
        bound = _R1Bound(gamma, t, share)
        kinks, kink_pop = bound.down, bound.down_pop
    found = _search(
        lambda r, pop: _r1_slope(r, gamma, t, params, clamp, pop, bound),
        _r1_newton(gamma, t, share, clamp),
        lambda r, pop: _r1_value(r, gamma, t, params, clamp, pop, bound),
        lo,
        hi,
        kinks,
        kink_pop,
        cut,
        bound,
    )
    for p, result in zip(todo.tolist(), found):
        out[p] = result
    return out


def _argmax_r2(
    delta: np.ndarray, params: SystemParams, boxes: Sequence[RateBox], clamp: bool
) -> list:
    """Exact maximizer of the r2 slice on each box, one concave segment at a time.

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
    below a bound ends.  An iterate that has stopped stays where it is, so
    the segments of a whole stack are iterated together.  The unclamped
    surrogate is one segment with every client live.  delta holds one
    population per row, with its box in ``boxes``; returns (rate, source)
    for each, or the NumericError of a non-finite segment slope.
    """
    lo = np.array([box.r2_lo for box in boxes], dtype=float)
    hi = np.array([box.r2_hi for box in boxes], dtype=float)
    out: list = [(float(x), "edge") for x in lo]
    live = np.flatnonzero(hi > lo)
    if not live.size:
        return out
    sums = _freshness_sums(delta)
    kinks, kink_pop = np.empty(0), np.empty(0, dtype=np.intp)
    if clamp:
        both = np.concatenate(sums[:2], axis=1)
        inside = (lo[:, None] < both) & (both < hi[:, None])
        kinks, kink_pop = both[inside], np.repeat(np.arange(len(lo)), inside.sum(axis=1))
        order = np.lexsort((kinks, kink_pop))
        kinks, kink_pop = kinks[order], kink_pop[order]
    # each population's segments run from lo through its sorted kinks to hi
    end_pop = np.concatenate([live, kink_pop, live])
    order = np.argsort(end_pop, kind="stable")
    ends, end_pop = np.concatenate([lo[live], kinks, hi[live]])[order], end_pop[order]
    left = np.flatnonzero(end_pop[:-1] == end_pop[1:])
    a, b, pop = ends[left], ends[left + 1], end_pop[left]
    segment = _live_sums(a, sums, clamp, pop)  # the segment's live set, read just right of a
    _, s_a = _r2_parts(a, segment, params)
    _, s_b = _r2_parts(b, segment, params)  # the left limit of the slope at b
    failed = np.zeros(len(lo), dtype=bool)
    bad = np.flatnonzero(~(np.isfinite(s_a) & np.isfinite(s_b)))
    for i in bad[_starts(pop[bad])].tolist() if bad.size else ():
        failed[pop[i]] = True
        out[pop[i]] = NumericError(f"derivative not finite at rate {a[i]}")
    inner = (s_a > 0) & (s_b < 0) & ~failed[pop]
    r, end, root_pop = a[inner], b[inner], pop[inner]
    s1, s2, m = _live_sums(r, sums, clamp, root_pop)
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
    pops = live[~failed[live]]
    if pops.size:
        keep = ~failed[kink_pop]
        picks = _best(
            lambda x, p: _r2_parts(x, _live_sums(x, sums, clamp, p), params)[0],
            r,
            root_pop,
            lo,
            hi,
            kinks[keep],
            kink_pop[keep],
            pops,
        )
        for p, pick in zip(pops.tolist(), picks):
            out[p] = pick
    return out


def _solved(result):
    """A stack solver's result for one population, with its error raised."""
    if isinstance(result, IFedCrowdError):
        raise result
    return result


def solve_r1(
    profiles: Sequence[ClientProfile], params: SystemParams, box: RateBox
) -> tuple[float, bool]:
    """Maximizer in r1 of the substituted (unclamped) utility within the box.

    Returns (rate, boundary): boundary is True when no stationary point beats
    the box edges and the better edge is returned instead.
    """
    gamma, _, t = _population_arrays(profiles)
    (found,) = _argmax_r1(gamma[None], t[None], params, [box], clamp=False)
    r1, source = _solved(found)
    return r1, source != "root"


def solve_r2(
    profiles: Sequence[ClientProfile], params: SystemParams, box: RateBox
) -> tuple[float, bool]:
    """Maximizer in r2 of the substituted (unclamped) utility within the box."""
    _, delta, _ = _population_arrays(profiles)
    (found,) = _argmax_r2(delta[None], params, [box], clamp=False)
    r2, source = _solved(found)
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


def _equilibria(
    gamma: np.ndarray,
    delta: np.ndarray,
    t: np.ndarray,
    params: SystemParams,
    boxes: Sequence[RateBox],
) -> list:
    """`compute_equilibrium` for every population of a stack, in one pass.

    gamma, delta and t hold one population of params.n clients per row,
    with its box in ``boxes``.  Returns each population's EquilibriumResult,
    or the error its own solve raises: a non-finite r1 read stops it before
    r2 is solved, as in a solve of its own.  The best responses and
    utilities of the solved populations are taken in one pass, each
    population's rates broadcast over its row.
    """
    out = _argmax_r1(gamma, t, params, boxes, clamp=True)
    ok = [p for p, found in enumerate(out) if not isinstance(found, IFedCrowdError)]
    solving = delta if len(ok) == len(delta) else delta[ok]
    for p, found in zip(ok, _argmax_r2(solving, params, [boxes[p] for p in ok], clamp=True)):
        if isinstance(found, IFedCrowdError):
            out[p] = found
            continue
        (r1_star, r1_source), (r2_star, r2_source) = out[p], found
        try:
            out[p] = RewardRates(r1=r1_star, r2=r2_star), r1_source, r2_source
        except DomainError as exc:
            out[p] = exc
    ok = [p for p in ok if not isinstance(out[p], IFedCrowdError)]
    if not ok:
        return out
    if len(ok) < len(gamma):
        gamma, delta, t = gamma[ok], delta[ok], t[ok]
    r1 = np.array([[out[p][0].r1] for p in ok])
    r2 = np.array([[out[p][0].r2] for p in ok])
    accuracy, freshness, _, _ = best_responses(gamma, delta, t, r1, r2)
    utilities, _, server = population_utilities(
        gamma, delta, t, accuracy, freshness, params, r1, r2
    )
    for i, p in enumerate(ok):
        rates, r1_source, r2_source = out[p]
        out[p] = EquilibriumResult(
            rates,
            accuracy[i],
            freshness[i],
            t[i],
            utilities[i],
            float(server[i]),
            r1_source,
            r2_source,
        )
    return out


def compute_equilibrium(
    profiles: Sequence[ClientProfile], params: SystemParams, box: RateBox
) -> EquilibriumResult:
    """Solve both rate dimensions, instantiate best responses, evaluate utility.

    Each rate maximizes the realized objective (clamped responses) over its
    box interval, so the reported rates dominate every in-box rate pair under
    actual client behaviour, not just under the smooth surrogate.  This is
    `_equilibria` on a stack of one population.
    """
    gamma, delta, t = _population_arrays(profiles)
    (result,) = _equilibria(gamma[None], delta[None], t[None], params, [box])
    return _solved(result)


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
    accuracy, freshness, _, _ = best_responses(gamma, delta, t_min, rates.r1, rates.r2)
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


def _peak(slope, curve, width):
    """The largest slope y + curve y^2/2 over 0 <= y <= width, and a y reaching it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.clip(-slope / curve, 0.0, width)
    rises = slope * width + 0.5 * curve * width * width > 0
    y = np.where(curve < 0, inner, np.where(rises, width, 0.0))
    return y * (slope + 0.5 * curve * y), y


def _r1_cut(params: SystemParams, t: np.ndarray):
    """c = (alpha/n) max t, rounded up past the rounding of its two operations.

    Each rounds by at most half an ulp, so the exact (alpha/n) t_k of every
    client is at most c, the bound the r1 cut rests on.  A stack of
    populations, one per row of t, gets one c per row.
    """
    return params.alpha / params.n * np.max(t, axis=-1) * (1.0 + _SLACK)


def _r1_side_slopes(r: float, gamma: np.ndarray, t: np.ndarray, share: float):
    """The realized r1 slice's left and right slopes at r, and their rounding pad.

    With s = ``share`` and g_k = gamma_k t_k, client k's term
    (s - r/t_k) A_k(r) has slope -A_k/t_k + (s - r/t_k) x_k/g_k where its
    response moves, x_k = e^(r/g_k - 1), and -A_k/t_k where it is clamped.
    It moves just right of r on [g_k _C_IN, g_k _C_OUT) and just left of r
    on (g_k _C_IN, g_k _C_OUT], so at its kinks the two slopes differ.  The
    pad is _SLACK times the sum of the terms' magnitudes.
    """
    g = gamma * t
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.exp(r / g - 1.0)
        paid = np.sum(np.clip(raw - 1.0, ACCURACY_MIN, ACCURACY_MAX) / t)
        term = (share - r / t) * np.clip(raw, 1.0 + ACCURACY_MIN, 1.0 + ACCURACY_MAX) / g
    enter, leave = g * _C_IN, g * _C_OUT
    right, left = (enter <= r) & (r < leave), (enter < r) & (r <= leave)
    pad = _SLACK * (paid + np.sum(np.abs(term), where=right | left))
    return -paid + np.sum(term, where=left), -paid + np.sum(term, where=right), pad


def _r2_certificate(delta: np.ndarray, params: SystemParams, lo: float, hi: float, star: float):
    """Upper bound on the realized r2 slice over [lo, hi], where it sits, V(star) and the segments.

    The in-box clamp kinks delta_k and delta_k e^(FRESHNESS_MAX delta_k),
    and ``star`` when it lies inside, cut [lo, hi] into segments on which
    the live set and the capped count are fixed, so
    f(r) = (beta/n - r)(S1 ln r - S2 + FRESHNESS_MAX m) has
    f'' = -S1 (1/r + (beta/n)/r^2) <= 0 there (Boyd & Vandenberghe 2004,
    §3.1.3): the tangents at a segment's ends bound it from above.  Their
    bound is f(a) if the slope at a is at most 0, f(b) if the slope at b
    is at least 0, and otherwise the tangents' crossing.  Since also
    f'' <= -m, m = S1 (1/b + (beta/n)/b^2), each end's tangent less
    m (r - end)^2/2 bounds the segment, and the least of the three bounds
    counts; at a root r2*, where the tangent is flat only to within
    rounding, the parabola keeps the bound from growing with the segment's
    width.  Each slope is read from the segment's own sums (`_live_sums`
    just right of a), so the slope at b is the left limit, and it is padded
    outward by _SLACK plus n eps, the rounding of the prefix sums, times
    the sum of its terms' magnitudes.  O(log n) per point after the
    O(n log n) sort.
    """
    sums = _freshness_sums(delta)
    d, cap, p1, _ = sums
    kinks = [e[np.searchsorted(e, lo, side="right") : np.searchsorted(e, hi)] for e in (d, cap)]
    inside = [star] if lo < star < hi else []
    points = np.sort(np.concatenate([[lo], *kinks, inside, [hi]]))
    points = points[np.concatenate([[True], points[1:] > points[:-1]])]
    rates = np.append(points, star)
    live = _live_sums(rates, sums, True)
    values, slopes = _r2_parts(rates, live, params)
    u_star = float(values[-1])
    values[:-1][points == star] = u_star
    if len(points) == 1:
        return float(values[0]), lo, u_star, 0
    a, b = points[:-1], points[1:]
    segment = tuple(x[: len(a)] for x in live)
    v_b, s_b = _r2_parts(b, segment, params)
    v_b[b == star] = u_star  # f is continuous; compare one computed value of f(star)
    v_a, s_a = values[: len(a)], slopes[: len(a)]
    share = params.beta / params.n
    fuzz = _SLACK + d.shape[-1] * np.finfo(float).eps
    ln_d = max(abs(math.log(d[0])), abs(math.log(d[-1])))

    def pad(r):
        terms = p1[-1] * (abs(share - r) / r + np.abs(np.log(r)) + ln_d)
        return fuzz * (terms + FRESHNESS_MAX * segment[2])

    up, down = s_a + pad(a), s_b - pad(b)
    w = b - a
    # an overflowed or vanished term only weakens a bound
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.clip((v_b - v_a - down * w) / (up - down), 0.0, w)
        bound = np.where(up <= 0, v_a, np.where(down >= 0, v_b, v_a + up * y))
        at = np.where(up <= 0, a, np.where(down >= 0, b, a + y))
        # f'' <= -m on the segment, so each end's parabola bounds it too
        curve = -(1.0 - fuzz) * segment[0] * (1.0 / b + share / (b * b))
        for end, slope, side, base in ((a, up, 1.0, v_a), (b, -down, -1.0, v_b)):
            gain, y = _peak(slope, curve, w)
            lower = base + gain < bound
            bound, at = np.where(lower, base + gain, bound), np.where(lower, end + side * y, at)
    bound = np.where(np.isnan(bound), math.inf, bound)
    k = int(np.argmax(bound))
    return float(bound[k]), float(at[k]), u_star, len(a)


def _r1_certificate(
    gamma: np.ndarray,
    t: np.ndarray,
    params: SystemParams,
    lo: float,
    hi: float,
    star: float,
    cells: int,
    room: float,
):
    """Upper bound on the realized r1 slice V over [lo, hi], where it sits, V(star) and the cells.

    Past the cut.  With s = alpha/n, let c = s max t rounded up
    (`_r1_cut`), so that s <= c/t_k for every k.  On r >= c client k's term
    (s - r/t_k) A_k(r) is the product of s - r/t_k <= 0, which falls, and
    A_k(r) >= ACCURACY_MIN > 0, which rises.  For c <= r < r',
    (s - r'/t)A(r') <= (s - r/t)A(r') since A(r') > 0, and
    (s - r/t)A(r') <= (s - r/t)A(r) since s - r/t <= 0 and A(r') >= A(r).
    So every term, and V, is nonincreasing there: V <= V(e) on [e, hi] for
    e = max(c, lo), one value.

    Below the cut, [lo, e] starts as ``cells`` equal cells, with ``star``
    as one more cell end when it lies inside.  Each cell takes the lesser
    of `_R1Bound`'s padded cone and chord bounds, and, for a cell ending at
    ``star`` with no up-kink inside, Taylor's bound from star when that is
    less: V(star + y) <= V(star) + V'(star+) y + K y^2/2 for y >= 0, and
    leftward with V'(star-), where K >= V'' sums each live client's largest
    curvature over the cell (down-kinks only lower V).  It is tight where
    K < 0 and the one-sided slopes point away from star.

    A cell whose bound exceeds V(star) + ``room`` is halved, and the halves
    are bounded again; every halving values one rate.  It stops when every
    cell has closed, when the next level would pass _CELL_BUDGET cells, or
    when a valued rate already exceeds V(star) + ``room``, so that no cell
    holding it could close; the open cells then keep the bounds they have.
    A cell too narrow to halve keeps its bound, and a bound that is not a
    number is infinite.  The side slopes and K are padded for rounding as
    in `_deviation_bounds`; V itself is compared as computed.
    """
    share = params.alpha / params.n
    end = min(max(float(_r1_cut(params, t)), lo), hi)
    cone_chord = _R1Bound(gamma[None], t[None], share) if end > lo else None
    value = lambda r: _r1_value(r, gamma, t, params, True, None, cone_chord)  # noqa: E731
    ends = np.linspace(lo, end, cells + 1) if end > lo else np.array([lo])
    if lo < star < end and not np.any(ends == star):
        ends = np.insert(ends, np.searchsorted(ends, star), star)
    v = value(np.append(ends, star))
    v_star, v = float(v[-1]), v[:-1]
    v[ends == star] = v_star
    top, at, examined = float(v[-1]), end, int(end < hi)
    if end == lo:
        return top, at, v_star, examined

    sides = []  # (direction, padded slope away from star) of the cells that end at star
    if lo <= star <= end:
        left, right, pad = _r1_side_slopes(star, gamma, t, share)
        sides = [(1.0, right + pad), (-1.0, pad - left)]
    gs, ts, kinks = cone_chord.g[0], cone_chord.t[0], cone_chord.kinks[0]
    ups = np.concatenate([[0], np.cumsum(cone_chord.jump[0] > 0)])

    def upper_curve(a, b):
        first, stop = cone_chord.window(a, b, 0)
        gw, tw = gs[first:stop], ts[first:stop]
        phi = share - (a + 2.0 * gw) / tw
        whole = (gw * _C_IN <= a) & (b <= gw * _C_OUT)
        with np.errstate(over="ignore", invalid="ignore"):
            low = np.where(whole, (1.0 + ACCURACY_MIN) * phi, 0.0)
            k = np.where(phi > 0, (1.0 + ACCURACY_MAX) * phi, low) / (gw * gw)
            return float(np.sum(k) + _SLACK * np.sum(np.abs(k)))

    def bound(a, b, va, vb):
        out, where = cone_chord(a, b, va, vb, np.zeros(len(a), dtype=np.intp))
        no_up = ups[np.searchsorted(kinks, b)] == ups[np.searchsorted(kinks, a, side="right")]
        for side, slope in sides:
            for k in np.flatnonzero(((a if side > 0 else b) == star) & no_up).tolist():
                gain, y = _peak(slope, upper_curve(a[k], b[k]), b[k] - a[k])
                if v_star + gain < out[k]:
                    out[k], where[k] = v_star + gain, star + side * y
        return out, where

    target = v_star + max(room, 0.0)
    a, b, va, vb = ends[:-1], ends[1:], v[:-1], v[1:]
    examined += len(a)
    beaten = bool(np.max(v) > target)
    while True:
        out, where = bound(a, b, va, vb)
        mid = 0.5 * (a + b)
        split = ~(out <= target) & (a < mid) & (mid < b)
        if beaten or examined + 2 * int(split.sum()) > _CELL_BUDGET:
            split[:] = False
        done = np.flatnonzero(~split)
        if done.size:
            k = done[np.argmax(out[done])]
            if out[k] > top:
                top, at = float(out[k]), float(where[k])
        if not split.any():
            break
        a, b, va, vb, mid = a[split], b[split], va[split], vb[split], mid[split]
        vm = value(mid)
        beaten = bool(np.max(vm) > target)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        examined += len(a)
    return top, at, v_star, examined


@dataclass(frozen=True)
class ServerEquilibriumReport:
    """Certified bound on what any in-box rate pair gains over the audited rates.

    ``worst_violation`` is the r1 slice's upper bound plus the r2 slice's,
    less u1* + u2*, the slices at the audited rates; ``worst_rates`` is
    where each axis's largest bound sits, and ``cells`` counts the r1 cells
    and r2 segments bounded.
    """

    worst_violation: float
    worst_rates: tuple[float, float]
    cells: int
    passed: bool


def verify_server_equilibrium(
    profiles: Sequence[ClientProfile],
    params: SystemParams,
    rates_star: RewardRates,
    box: RateBox,
    grid_n: int = 50,
) -> ServerEquilibriumReport:
    """Certify that no in-box rate pair beats the audited rates by more than VERIFY_TOL.

    Clients re-best-respond at every candidate rate pair (the deviation-with-
    fixed-strategies inequality is vacuous here: utility is strictly
    decreasing in the rates once strategies are frozen, so only the
    response-substituted comparison is informative).  The realized server
    utility separates, so no pair is worth more than the r1 slice's upper
    bound plus the r2 slice's.  `_r2_certificate` bounds each concave r2
    segment between kinks by its end tangents and curvature, with no
    iteration.
    `_r1_certificate` bounds r1 past c = (alpha/n) max t by its value at c,
    and below c by cell bounds, starting from ``grid_n`` cells (an integer
    of at least 1) and halving the cells that do not close to within
    VERIFY_TOL of u1*, less what the r2 bound already uses.  The rates pass
    when the bounds exceed u1* + u2* by at most VERIFY_TOL.  No rate grid is
    read, so a rise narrower than any grid cell is still bounded.
    """
    try:
        grid_n = operator.index(grid_n)
    except TypeError:
        raise DomainError(f"grid_n must be an integer, got {grid_n!r}") from None
    if grid_n < 1:
        raise DomainError(f"grid_n must be at least 1, got {grid_n}")
    gamma, delta, t = _population_arrays(profiles)
    top2, at2, u2, segments = _r2_certificate(delta, params, box.r2_lo, box.r2_hi, rates_star.r2)
    room = VERIFY_TOL - (top2 - u2)
    top1, at1, u1, cells = _r1_certificate(
        gamma, t, params, box.r1_lo, box.r1_hi, rates_star.r1, grid_n, room
    )
    worst = (top1 + top2) - (u1 + u2)
    return ServerEquilibriumReport(
        worst_violation=float(worst),
        worst_rates=(at1, at2),
        cells=cells + segments,
        passed=bool(worst <= VERIFY_TOL),
    )
