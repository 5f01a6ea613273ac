"""Leader-side optimization: analytic derivatives, rate solvers, NE verification.

The publisher's rate-substituted utility separates into an r1 part (driven by
accuracy responses) and an r2 part (driven by freshness responses), so each
rate is a one-dimensional problem on two objectives: the smooth surrogate on
the unclamped closed-form responses (`du_dr*`, `solve_r*`), and the realized
objective on the clamped responses clients actually play
(`compute_equilibrium`, the server verifier).

r2 is solved exactly.  With the clients sorted by their freshness kinks,
prefix sums give the r2 slice at any rate in O(log n), and between
neighbouring kinks it is concave, so each segment holds at most one root,
bracketed by the slope signs at its ends; Newton's method from the
segment's left end rises to it monotonically (`_r2_segments`).

r1 is concave in neither objective, but between its clamp kinks it is
smooth, with closed-form bounds on its slope and curvature over any cell
(`_R1Bound`).  One branch and bound (`_r1_cells`, after Piyavskii and
Shubert) finds its maximum and certifies it.  It starts from 65 equally
spaced points below c = (alpha/n) max t, past which every realized term
(alpha/n - r/t_k) A_k falls, since A_k >= ACCURACY_MIN; at c <= r1_lo
r1_lo is the maximum and nothing is built or valued.  Each level bounds
every open cell and closes those that cannot hold the maximum.  A cell
with no kink inside that is concave or convex closes exactly: its maximum
is an end or the root of its end slopes' sign change.  Every other cell
is split at up to 15 of its kinks, or into 16 sections, and the new
points are valued in one call.  The solver closes cells against its best
value so far and narrows the roots together by safeguarded Newton steps
(`_refine`); the certificate closes them against a fixed target.  A cell
budget bounds the work of both.

The solvers work on a stack of populations, one row each: a sweep cell
solves all its runs in one pass (`_equilibria`), and `compute_equilibrium`
is the stack of one.  Each stage runs once for the whole stack on flat
arrays whose entries carry their population's index, and fails only the
populations whose reads are not finite.  A population sees the arithmetic
of its own solve, bit for bit: the same rates in every value call, and
every sum over clients taken over its own rows (or one cell's or one
rate's own clients).  The stack shares only elementwise work and
bookkeeping, never a sum.

An r1 value call larger than _BLOCK rates x clients entries for one
population takes exponentials over the live clients only: with the
clients sorted by g_k = gamma_k t_k, client k is live on
[g_k (1 + ln 1.001), g_k (1 + ln 1.999)), so the live clients at a rate
are one window of that order, and the clamped ones outside it add prefix
sums of 1/t.  Memory is O(_BLOCK), in one scratch buffer per call.

A client is certified by strong concavity: its utility separates into an
accuracy and a freshness part, each with a curvature bound on the clamp
rectangle, so a closed form bounds what any deviation gains over its best
response (`_deviation_bounds`).  The server is certified by upper bounds on
each axis's slice over the whole box (`_r1_certificate`,
`_r2_certificate`), not by sampling rates.
"""

from __future__ import annotations

import math
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
_CELLS = 64          # cells an r1 box starts from
_SPLIT = 16          # cells a split r1 cell is cut into
_XTOL = 1e-12        # bracket width at which refinement stops
_BLOCK = 1 << 16     # rates x clients entries per block of an r1 value call
_PAD = 1e-9          # relative margin of an r1 live window
_CELL_BUDGET = 4096  # r1 cells a population may bound, solving or certifying
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


def _scratch(entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float buffers of ``entries`` each, for `_r1_terms`.

    They share one allocation, so the allocator gets back one block it can
    hand out whole to the next call.
    """
    buf = np.empty(2 * entries)
    return buf[:entries], buf[entries:]


def _r1_terms(r: np.ndarray, g: np.ndarray, clamp: bool, scratch, rows=None):
    """x = exp(r/g_k - 1) and the accuracy responses x - 1, one row per rate of r.

    ``g`` holds g_k = gamma_k t_k, one row of clients for every rate, or
    with ``rows`` a stack of rows, row rows[i] for rate i, gathered straight
    into x.  The responses are clamped with ``clamp``.  Both are views of
    the `_scratch` buffers, which hold at least len(r) * n entries each.
    """
    shape = (len(r), g.shape[-1])
    x, a = (buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
    if rows is not None:
        g = np.take(g, rows, axis=0, out=x, mode="clip")  # "raise" would buffer the gather
    np.divide(r[:, None], g, out=x)
    np.subtract(x, 1.0, out=x)
    np.exp(x, out=x)
    np.subtract(x, 1.0, out=a)
    if clamp:
        np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
    return x, a


def _r1_rows(r: np.ndarray, x: np.ndarray, a: np.ndarray, inv_t: np.ndarray, share: float):
    """The r1 slice at rates r from their `_r1_terms`, each rate's row summed along itself.

    ``inv_t`` holds 1/t_k, a row of its own for each rate or one row for
    all; x is overwritten.
    """
    return share * a.sum(axis=1) - r * np.multiply(a, inv_t, out=x).sum(axis=1)


def _r1_windowed(r: np.ndarray, g, t, cum, share: float, scratch):
    """The realized r1 slice at rates r, over each rate's live clients only.

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
        x, a = _r1_terms(rb, g[lo:hi], True, scratch)
        part = _r1_rows(rb, x, a, 1.0 / t[lo:hi], share)
        # the clamped clients outside the window add sum a_k to the benefit
        # and sum a_k/t_k to the payment rate
        paid = ACCURACY_MAX * cum[lo] + ACCURACY_MIN * (cum[n] - cum[hi])
        part += share * (ACCURACY_MAX * lo + ACCURACY_MIN * (n - hi)) - rb * paid
        out[rank[i:j]] = part
        i = j
    return out


def _r1_value(r1, gamma, t, params: SystemParams, clamp: bool, pop=None, ranked=None):
    """r1-dependent slice of the server utility: sum_k (alpha/n - r1/t_k) A_k(r1).

    A_k is the accuracy response exp(r1/(gamma_k t_k) - 1) - 1, clamped into
    [ACCURACY_MIN, ACCURACY_MAX] when ``clamp`` is set.  Takes a rate or a
    1-D array of rates and returns the same shape.  With ``pop``, gamma and
    t hold a stack of populations, one per row, and rate i is taken in
    population pop[i], pop nondecreasing.  Each population's rates are
    computed as in a call of their own.  At most _BLOCK rates x clients
    entries are one block over every client.  A larger clamped call goes
    through `_r1_windowed`, which sorts the population's clients by g unless
    ``ranked``, the stack's `_R1Bound`, holds them sorted; a larger
    unclamped one, where every client is live, is split into blocks of
    rates over every client.  Populations of at most _BLOCK entries share a
    block with their neighbours while the block stays within _BLOCK
    entries; its exponentials are taken once, and `_r1_rows` sums each
    rate's own row.  The blocks share one `_scratch`, allocated here: no
    block holds more than max(_BLOCK, n) entries.
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
    # an overflowed response clips to the cap; the products may hold inf*0 or
    # inf - inf, and a population whose read is not finite fails
    with np.errstate(over="ignore", invalid="ignore"):
        p = 0
        while p < len(g):
            s, e = bounds[p], bounds[p + 1]
            if (e - s) * n > _BLOCK:
                if clamp:
                    clients = (g[p], t[p], None)
                    if ranked is not None:
                        clients = ranked.g[p], ranked.t[p], ranked.cum[0, p]
                    out[s:e] = _r1_windowed(r[s:e], *clients, share, scratch)
                else:
                    step = max(_BLOCK // n, 1)
                    for i in range(s, e, step):
                        rb = r[i : min(i + step, e)]
                        x, a = _r1_terms(rb, g[p], False, scratch)
                        out[i : i + len(rb)] = _r1_rows(rb, x, a, 1.0 / t[p], share)
                p += 1
                continue
            q = p + 1
            while q < len(g) and (bounds[q + 1] - s) * n <= _BLOCK:
                q += 1
            rb = r[s : bounds[q]]
            rows = None if q == p + 1 else pop[s : bounds[q]]
            x, a = _r1_terms(rb, g[p] if rows is None else g, clamp, scratch, rows)
            # each rate's own population's payments per unit of accuracy
            inv_t = 1.0 / (t[p] if rows is None else t[rows])
            out[s : bounds[q]] = _r1_rows(rb, x, a, inv_t, share)
            p = q
    return out if np.ndim(r1) else float(out[0])


def _r1_newton(gamma: np.ndarray, t: np.ndarray, share: float, clamp: bool):
    """The r1 slope and curvature at any rates, for `_refine`'s Newton steps.

    With s = alpha/n, g_k = gamma_k t_k and x_k = exp(r/g_k - 1), a live
    client's term (s - r/t_k)(x_k - 1) has slope
    x_k (s/g_k - r/(t_k g_k)) - (x_k - 1)/t_k and curvature
    x_k ((s - r/t_k)/g_k^2 - 2/(g_k t_k)).  With ``clamp`` a clamped client
    adds -A_k/t_k to the slope and 0 to the curvature; without it every
    client counts, as in `d2u_dr1`.  gamma and t hold a stack of
    populations, one per row.  Returns a function of rates r and their
    populations pop giving (slope, curvature) at every rate.  Each rate's
    row of clients is gathered and summed along itself, so its results
    depend on no other rate of the call.  Rates go in blocks of at most
    _BLOCK/8 rates x clients entries (at least one rate), so a block's
    seven such temporaries stay within max(_BLOCK, 8 n) entries.
    """
    g = gamma * t
    n = g.shape[1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv = 1.0 / g
        # the weights of x and r x in the slope and in the curvature, then of A in the slope
        w = np.stack([share * inv, inv / t, inv * (share * inv - 2.0 / t), inv * inv / t, 1.0 / t])
    # an overflowed weight stays finite, so a clamped client's zeroed x zeroes its terms
    np.clip(w, -np.finfo(float).max, np.finfo(float).max, out=w)

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
    g = gamma * t
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(r1 / g - 1.0)
        return float(np.sum((params.alpha / params.n - r1 / t) * x / g - (x - 1.0) / t))


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

    Bracket i lies in population pop[i], and its ends have slopes s_lo_i
    and s_hi_i of different signs.  ``curve(rates, pop)`` returns the slope
    and the curvature at every rate (`_r1_newton`).  Every read inside a
    bracket lies on the multiples of one step: the largest power of two up
    to _XTOL, or one ulp of the bracket's larger end where that is more, so
    every multiple is a float.  A bracket starts at the multiple nearest
    the secant point of its end slopes.  Each pass calls ``curve`` once, at
    the iterate x of every bracket and the multiples either side of it (a
    read at or past an end reads that end), and keeps the first of the four
    sections between the ends and those points whose right end has a sign
    other than s_lo's (a zero counts as the other side).  The next iterate
    is the multiple nearest the Newton point x - s(x)/c(x), or the new
    bracket's middle multiple where that point is not strictly inside it or
    c(x) is not negative and finite, so an iterate within a step of a root
    closes its bracket in that pass.  A bracket closes at one step.  One
    whose reads change sign once ends on the multiples either side of that
    change whatever its start and path, so neither the rounding of the end
    slopes nor where its ends lie moves a root more than a step inside them.
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
    """Cells [a, b] of the r1 slice V for a stack of populations: bounds, kinks and sums.

    With s = alpha/n and g_k = gamma_k t_k, client k is live on
    [g_k _C_IN, g_k _C_OUT), where its term (s - r/t_k) A_k(r) has
    V_k'' = (x_k/g_k^2)(s - (r + 2 g_k)/t_k), A_k' = x_k/g_k and
    x_k = e^(r/g_k - 1) in [1 + ACCURACY_MIN, 1 + ACCURACY_MAX]; elsewhere
    it is linear.  Its slope jumps by (s - gamma_k _C_IN)(1 + ACCURACY_MIN)/g_k
    at entry and by (gamma_k _C_OUT - s)(1 + ACCURACY_MAX)/g_k at exit,
    down or up by the sign; ``kinks`` holds them sorted, with their
    ``jump``.  ``g``, ``t``, ``enter`` and ``exit`` hold each population in
    the g order, and ``cum`` its prefix sums of 1/t, which `_r1_windowed`
    reads too.  The clients live somewhere in a cell are one run of that
    order (`window`, padded as in `_r1_windowed`), so sums of 1/g, 1/(g t),
    1/(g^2 t) and of the down-jumps give, with no cells x clients array,
    M >= -V'' from -V_k'' <= (1 + ACCURACY_MAX)(b + 2 g_k)/(t_k g_k^2),
    D, the down-jumps strictly inside, and U >= V' and F >= -V' from
    V' = -sum A_k/t_k + sum over the live of (s - r/t_k) x_k/g_k.

    Called with cells a, b, their values V(a), V(b) and populations pop,
    it returns each cell's bound and a rate where it sits: the least of

    - the chord bound max(V(a), V(b)) + M (b - a)^2/8 + D (b - a)/4, since
      V + M (x - a)(x - b)/2 + sum |J_p| |x - p|/2 over the down-kinks p
      is convex on the cell;
    - the cone min(V(a) + U (x - a), V(b) + F (b - x)), Piyavskii and
      Shubert's Lipschitz bound (Shubert, SIAM J. Numer. Anal., 1972);
    - the range bound: each term is at most s ACCURACY_MAX - a ACCURACY_MIN/t_k
      there, and a clamped one at most its value at a;

    floored at max(V(a), V(b)).  Slopes, curvatures and jumps are padded
    for rounding as in `_deviation_bounds`, sums by n eps of their total;
    V(a) and V(b) are compared as computed (ROADMAP item 5), and a bound
    that is not a number reads as +inf.  The sums of 1/g, 1/(g t),
    1/(g^2 t) and of the down-jumps run from the large end, so a client so
    small in g that they overflow leaves every window without it finite.
    With ``clamp`` unset (the surrogate) there are no kinks, every client
    is live, and a cell's bound is the chord bound on `smooth`'s curvature.
    Every step is elementwise or a sum along one population's row or one
    cell's clients, so a population's results in a stack are its own.
    """

    def __init__(self, gamma: np.ndarray, t: np.ndarray, share: float, clamp: bool = True):
        g = gamma * t
        n = g.shape[1]
        rows, order = np.arange(len(g))[:, None], np.argsort(g, axis=1, kind="stable")
        self.g, self.t, self.share, self.clamp = g[rows, order], t[rows, order], share, clamp
        self.fuzz = n * np.finfo(float).eps
        self.keys = [None, None]
        # sums of 1/t from the start, and of 1/g, 1/(g t) and 1/(g^2 t) to the end
        self.cum = np.zeros((4, len(g), n + 1))
        with np.errstate(over="ignore"):  # a non-finite value fails the population
            np.cumsum(1.0 / self.t, axis=1, out=self.cum[0, :, 1:])
        if not clamp:
            self.kinks = self.jump = np.empty((len(g), 0))
            return
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            enter = (share - _C_IN * gamma) * (1.0 + ACCURACY_MIN) / g
            leave = (_C_OUT * gamma - share) * (1.0 + ACCURACY_MAX) / g
            inv = 1.0 / self.g
            terms = np.stack([inv, inv / self.t, inv * inv / self.t])
        np.cumsum(terms[..., ::-1], axis=2, out=self.cum[1:, :, -2::-1])
        jump = np.concatenate([enter, leave], axis=1)  # in the clients' order
        kinks = np.concatenate([g * _C_IN, g * _C_OUT], axis=1)
        # sorted by rate from the g order, entries then exits, in which equal kinks stay
        slots = np.concatenate([order, order + n], axis=1)
        by_rate = slots[rows, np.argsort(kinks[rows, slots], axis=1, kind="stable")]
        self.kinks, self.jump = kinks[rows, by_rate], jump[rows, by_rate]
        # how many clients have entered, and how many left, at or before each kink
        self.entered = np.zeros((len(g), 2 * n + 1), dtype=np.intp)
        self.left = np.zeros((len(g), 2 * n + 1), dtype=np.intp)
        np.cumsum(by_rate < n, axis=1, out=self.entered[:, 1:])
        np.cumsum(by_rate >= n, axis=1, out=self.left[:, 1:])
        self.drops = np.zeros((len(g), 2 * n + 1))  # the down-jumps from each kink on
        drop = np.where(self.jump < 0, -self.jump, 0.0)
        np.cumsum(drop[:, ::-1], axis=1, out=self.drops[:, -2::-1])
        if len(g) > 1:
            self.keys = [_keys(self.g), _keys(self.kinks)]

    def window(self, a, b, pop):
        """The run [first, stop) of the g order of the clients live somewhere in [a, b]."""
        first = _find(self.g, a / _C_OUT * (1.0 - _PAD), pop, "left", self.keys[0])
        stop = _find(self.g, b / _C_IN * (1.0 + _PAD), pop, "right", self.keys[0])
        return first, stop

    def inside(self, a, b, pop):
        """The run [first, stop) of ``kinks`` strictly inside each cell (a, b)."""
        return (
            _find(self.kinks, a, pop, "right", self.keys[1]),
            _find(self.kinks, b, pop, "left", self.keys[1]),
        )

    def split(self, a, b, pop, kink_a, kink_b):
        """The points that split each cell [a, b], one row of _SPLIT - 1 per cell.

        A cell holding the kinks kink_a..kink_b - 1 is split at most
        _SPLIT - 1 of them spread by index (the rest of its row is b), one
        holding none into _SPLIT equal sections.  Returns the points, which
        of them are new (inside the cell and past the point before), and
        which of the new ones are down-kinks.
        """
        points = _sections(a, b, _SPLIT)[:, 1:-1]
        down = np.zeros(points.shape, dtype=bool)
        m = kink_b - kink_a
        c = np.minimum(m, _SPLIT - 1)[:, None]
        if c.any():
            j = np.arange(1, _SPLIT)
            use = j <= c
            k = np.where(use, kink_a[:, None] + j * m[:, None] // (c + 1), 0)
            k += pop[:, None] * self.kinks.shape[1]
            points = np.where(use, self.kinks.ravel()[k], np.where(c > 0, b[:, None], points))
            down = use & (self.jump.ravel()[k] < 0)
        before = np.concatenate([a[:, None], points[:, :-1]], axis=1)
        new = (points > before) & (points < b[:, None])
        return points, new, down & new

    def __call__(self, a, b, va, vb, pop) -> tuple[np.ndarray, np.ndarray]:
        w = b - a
        top = np.maximum(va, vb)
        at_top = np.where(va >= vb, a, b)
        if not self.clamp:
            *_, down = self.smooth(a, b, pop, None)
            with np.errstate(over="ignore", invalid="ignore"):
                out = top + np.maximum(-down, 0.0) * w * w / 8.0
            return np.where(np.isnan(out), math.inf, out), at_top
        first, stop = self.window(a, b, pop)
        n = self.g.shape[1]
        # one flat gather over the populations' rows laid end to end, faster than a 2-D one
        at, cum = pop * (n + 1), self.cum.reshape(4, -1)
        cum_first, cum_stop = np.take(cum, at + first, axis=1), np.take(cum, at + stop, axis=1)
        total = cum[0, at + n]
        kink_a, kink_b = self.inside(a, b, pop)
        at, drops = pop * (2 * n + 1), self.drops.ravel()
        drop_a, drop_b = drops[at + kink_a], drops[at + kink_b]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the window's sums of 1/g, 1/(g t) and 1/(g^2 t)
            live = (cum_first[1:] - cum_stop[1:]) * (1.0 + _SLACK) + self.fuzz * cum_first[1:]
            least = ACCURACY_MAX * cum_first[0] + ACCURACY_MIN * (total - cum_first[0])
            most = ACCURACY_MAX * cum_stop[0] + ACCURACY_MIN * (total - cum_stop[0])
            summed = self.fuzz * total  # the rounding of the prefix sums of 1/t
            rise = (1.0 + ACCURACY_MAX) * self.share * live[0] - least * (1.0 - _SLACK) + summed
            fall = (1.0 + ACCURACY_MAX) * b * live[1] + most * (1.0 + _SLACK) + summed
            y = np.clip((vb - va + fall * w) / (rise + fall), 0.0, w)
            flat, steep = rise <= 0, fall <= 0
            y = np.where(flat, 0.0, np.where(steep, w, y))
            cone = np.where(flat, va, np.where(steep, vb, va + rise * y))
            # each line alone, where the other's slope overflows and the peak is not a number
            cone = np.fmin(cone, np.fmin(va + rise * w, vb + fall * w))
            curve = (1.0 + ACCURACY_MAX) * (b * live[2] + 2.0 * live[1])
            drop = (drop_a - drop_b) * (1.0 + _SLACK) + self.fuzz * drop_a
            chord = top + curve * w * w / 8.0 + drop * w / 4.0
            gain = self.share * (ACCURACY_MAX * stop + ACCURACY_MIN * (n - stop))
            cost = a * least
            span = gain - cost + _SLACK * (gain + cost) + a * summed
            out = np.fmin(np.fmin(cone, chord), span)
        out = np.maximum(np.where(np.isnan(out), math.inf, out), top)
        return out, np.where(cone < chord, a + np.fmin(y, w), at_top)  # fmin: y may be NaN

    def smooth(self, a, b, pop, kink_a):
        """The slopes just inside the ends of kink-free cells [a, b], and bounds on V''.

        kink_a kinks lie at or before a and none inside, so the live clients
        are those entered and not left by a: a run of the g order, counted
        in ``entered`` and ``left``.  Over them it returns s_a = V'(a+),
        s_b = V'(b-), their rounding pads, and up >= V'' >= down on the
        cell.  As r rises x_k rises and s - (r + 2 g_k)/t_k falls, so a live
        V_k'' is at most that factor at a times x_k at b where the factor is
        positive (at a where not), and at least the factor at b times x_k at
        a where that is positive (at b where not).  Each is padded by _SLACK
        plus n eps of its terms' magnitudes; the clamped clients add
        -A_k/t_k to both slopes.  Cells that share an end and its live
        clients read the same slope there.
        """
        n = self.g.shape[1]
        if self.clamp:
            first, stop = self.left[pop, kink_a], self.entered[pop, kink_a]
        else:
            first, stop = np.zeros(len(a), dtype=np.intp), np.full(len(a), n)
        width = stop - first
        cell = np.repeat(np.arange(len(a)), width)
        k = np.arange(len(cell)) + np.repeat(first + pop * n - (np.cumsum(width) - width), width)
        g, t = self.g.ravel()[k], self.t.ravel()[k]
        ra, rb, s = a[cell], b[cell], self.share
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            xa, xb = np.exp(ra / g - 1.0), np.exp(rb / g - 1.0)
            fa, fb = s - ra / t, s - rb / t
            g2, lift = g * g, 2.0 * g / t
            phi_a, phi_b = fa - lift, fb - lift
            terms = (
                fa * xa / g - (xa - 1.0) / t,
                fb * xb / g - (xb - 1.0) / t,
                (s + ra / t) * xa / g + np.abs(xa - 1.0) / t,
                (s + rb / t) * xb / g + np.abs(xb - 1.0) / t,
                np.where(phi_a > 0, xb, xa) * phi_a / g2,
                np.where(phi_b > 0, xa, xb) * phi_b / g2,
                (s + rb / t + lift) * xb / g2,
            )
            # each cell's sums over its own run of clients; an empty run sums to 0
            sums = np.zeros((len(terms), len(cell) + 1))
            sums[:, :-1] = terms
            sums = np.add.reduceat(sums, np.cumsum(width) - width, axis=1)
            sums[:, width == 0] = 0.0
            s_a, s_b, size_a, size_b, up, down, size = sums
            if self.clamp:
                at, cum = pop * (n + 1), self.cum[0].ravel()
                paid = ACCURACY_MAX * cum[at + first]
                paid += ACCURACY_MIN * (cum[at + n] - cum[at + stop])
                s_a, s_b, size_a, size_b = s_a - paid, s_b - paid, size_a + paid, size_b + paid
            fuzz = _SLACK + self.fuzz
            return s_a, s_b, fuzz * size_a, fuzz * size_b, up + fuzz * size, down - fuzz * size


def _sections(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """a + (b - a) j/m for j = 0..m, one row per cell [a, b], with b itself as the last.

    For a power of two m this rounds as np.linspace(a, b, m + 1) does.
    """
    points = a[:, None] + (b - a)[:, None] * (np.arange(m + 1) / m)
    points[:, -1] = b
    return points


def _r1_cells(bound, cells: _R1Bound, value, lo, hi, cut, newton=None, target=None, star=None):
    """Branch and bound of the r1 slice on [lo_p, hi_p], for every population p of a stack.

    ``value`` and ``bound`` take rates or cells with the population of each
    (`_r1_value`; `_R1Bound` or the certificate's bound), and ``cells`` is
    the stack's `_R1Bound`.  The cells start between the _CELLS + 1 equally
    spaced points of each box up to the first at or past ``cut``, past which
    the slice falls, and ``star`` (a rate and its value, in a stack of one).
    Each level values its new points in one ``value`` call, then takes all
    open cells at once.  It closes a cell whose bound is below the incumbent,
    the best value read, by more than `_best`'s tie snap (the solver, with
    no ``target``), or at most its ``target`` (the certificate).  With
    ``newton`` (the solver) it closes a cell with no kink strictly inside
    that `_R1Bound.smooth` shows convex, whose maximum is an end, or
    concave, whose maximum is an end unless its end slopes change sign: then
    the cell is a bracket of `_refine`, narrowed after the last level
    together with the rest.  Every other cell is split (`_R1Bound.split`),
    or closed when no float lies inside.  A population whose next level
    would pass _CELL_BUDGET cells stops with its cells open, and the solver
    counts its incumbent as a root; the certificate also stops once a value
    passes its target, since no cell holding that rate can close.  In the
    solver a population whose value is not finite fails.

    Returns the roots (rising within each population) and the valued
    down-kinks with their populations, the failed populations'
    NumericErrors, and for the certificate the largest bound of a closed
    cell (at a stop, of every cell), a rate where it sits, and the number of
    cells bounded.
    """
    rows = _sections(lo, hi, _CELLS)
    inner = np.arange(_CELLS + 1) <= np.sum(rows < cut[:, None], axis=1)[:, None]
    if star is not None:
        last = rows[inner][-1]
        rows = np.sort(np.append(rows, star[0]))[None]
        inner = (lo[0] <= rows) & (rows <= last)
        inner[0, 1:] &= rows[0, 1:] > rows[0, :-1]
    known = np.full(rows.shape, np.nan)
    if star is not None:
        known[rows == star[0]] = star[1]
    fresh = inner & np.isnan(known)
    pop = np.arange(len(lo))
    best = np.full(len(lo), -math.inf)
    spent = np.zeros(len(lo), dtype=np.intp)
    stopped = np.zeros(len(lo), dtype=bool)
    failed, valued, brackets, kinks = {}, [], [], [(np.empty(0), pop[:0])]
    top, at, beaten = -math.inf, math.nan, False
    while True:
        q, q_pop = rows[fresh], pop[np.nonzero(fresh)[0]]
        if q.size:
            known[fresh] = v = value(q, q_pop)
            if target is not None:
                beaten = beaten or bool(np.any(v > target[q_pop]))
            else:
                valued.append((q, q_pop, v))
                np.fmax.at(best, q_pop, v)
                bad = np.flatnonzero(~np.isfinite(v))
                for i in bad[_starts(q_pop[bad])].tolist() if bad.size else ():
                    error = NumericError(f"r1 value not finite at rate {q[i]}")
                    failed.setdefault(int(q_pop[i]), error)
        # the cells between neighbouring points of each row
        row = np.repeat(np.arange(len(rows)), inner.sum(axis=1))
        ends, vals = rows[inner], known[inner]
        left = np.flatnonzero(row[:-1] == row[1:])
        a, b, va, vb, p = ends[left], ends[left + 1], vals[left], vals[left + 1], pop[row[left]]
        if failed:
            ok = ~np.isin(p, list(failed))
            a, b, va, vb, p = a[ok], b[ok], va[ok], vb[ok], p[ok]
        if not a.size:
            break
        spent += np.bincount(p, minlength=len(lo))
        out, where = bound(a, b, va, vb, p)
        if target is None:
            close = out < (best - 1e-10 * np.maximum(1.0, np.abs(best)))[p]
        else:
            close = out <= target[p]
        kink_a, kink_b = cells.inside(a, b, p)
        plain = np.flatnonzero(~close & (kink_a == kink_b)) if newton is not None else []
        if len(plain):
            s_a, s_b, _, _, up, down = cells.smooth(a[plain], b[plain], p[plain], kink_a[plain])
            close[plain[(up <= 0) | (down >= 0)]] = True
            rise = (up <= 0) & (s_a > 0) & (s_b < 0)
            i = plain[rise]
            brackets.append((a[i], b[i], s_a[rise], s_b[rise], p[i]))
        split = np.flatnonzero(~close)
        points, new, down = cells.split(a[split], b[split], p[split], kink_a[split], kink_b[split])
        count = new.sum(axis=1)
        over = spent + np.bincount(p[split], count + 1, minlength=len(lo)) > _CELL_BUDGET
        if target is not None:
            # the closed cells, those too narrow to split and, at a stop, every cell
            stop = beaten or bool(over.any())
            done = np.ones(len(a), dtype=bool) if stop else close
            done[split[count == 0]] = True
            if done.any():
                k = np.flatnonzero(done)[np.argmax(out[done])]
                if out[k] > top:
                    top, at = float(out[k]), float(where[k])
            if stop:
                break
        stopped |= over
        keep = (count > 0) & ~over[p[split]]
        split, points, new, down = split[keep], points[keep], new[keep], down[keep]
        pop = p[split]
        kinks.append((points[down], pop[np.nonzero(down)[0]]))
        rows = np.concatenate([a[split, None], points, b[split, None]], axis=1)
        edge = np.zeros((len(split), 1), dtype=bool)
        fresh = np.concatenate([edge, new, edge], axis=1)
        inner = np.concatenate([~edge, new, ~edge], axis=1)
        known = np.full(rows.shape, np.nan)
        known[:, 0], known[:, -1] = va[split], vb[split]
    roots = [(np.empty(0), pop[:0])]
    if brackets:
        a, b, s_a, s_b, p = (np.concatenate(x) for x in zip(*brackets))
        if a.size:
            r_lo, r_hi = _refine(newton, a, b, s_a, s_b, p)
            roots.append((0.5 * (r_lo + r_hi), p))
    if stopped.any() and target is None:
        q, q_pop, v = (np.concatenate(x) for x in zip(*valued))
        for k in np.flatnonzero(stopped).tolist():
            mine = np.flatnonzero(q_pop == k)
            roots.append((q[mine[[np.argmax(v[mine])]]], np.array([k])))
    roots, root_pop = (np.concatenate(x) for x in zip(*roots))
    order = np.lexsort((roots, root_pop))
    kinks, kink_pop = (np.concatenate(x) for x in zip(*kinks))
    return roots[order], root_pop[order], kinks, kink_pop, failed, top, at, int(spent.sum())


def _argmax_r1(
    gamma: np.ndarray, t: np.ndarray, params: SystemParams, boxes: Sequence[RateBox], clamp: bool
) -> list:
    """Global maximizer of the r1 slice on each box, and its source, for a stack of populations.

    Past c = (alpha/n) max t, rounded up (`_r1_cut`), client k's realized
    term (alpha/n - r/t_k) A_k(r) has right slope at most -A_k/t_k < 0, as
    A_k >= ACCURACY_MIN: at c <= r1_lo the maximum is r1_lo, found with
    nothing built or valued.  Otherwise `_r1_cells` keeps the roots and
    down-kinks that can win, and `_best` picks among them and the edges:
    "root", "kink" or "edge".  The surrogate's A_k may be negative, so it
    keeps c = inf, and its cells hold no kinks.  gamma and t hold one
    population per row, with its box in ``boxes``; returns (rate, source)
    for each, or the NumericError of a value that is not finite.
    """
    lo = np.array([box.r1_lo for box in boxes], dtype=float)
    hi = np.array([box.r1_hi for box in boxes], dtype=float)
    out: list = [(float(x), "edge") for x in lo]
    cut = _r1_cut(params, t) if clamp else np.full(len(lo), math.inf)
    todo = np.flatnonzero(~(cut <= lo) & (hi > lo))
    if not todo.size:
        return out
    if len(todo) < len(lo):
        gamma, t, lo, hi, cut = gamma[todo], t[todo], lo[todo], hi[todo], cut[todo]
    share = params.alpha / params.n
    cells = _R1Bound(gamma, t, share, clamp)
    value = lambda r, pop: _r1_value(r, gamma, t, params, clamp, pop, cells)  # noqa: E731
    roots, root_pop, kinks, kink_pop, failed, *_ = _r1_cells(
        cells, cells, value, lo, hi, cut, _r1_newton(gamma, t, share, clamp)
    )
    for p, error in failed.items():
        out[todo[p]] = error
    pops = np.array([p for p in range(len(todo)) if p not in failed], dtype=np.intp)
    if pops.size:
        root, kink = ~np.isin(root_pop, list(failed)), ~np.isin(kink_pop, list(failed))
        roots, root_pop, kinks, kink_pop = roots[root], root_pop[root], kinks[kink], kink_pop[kink]
        picks = _best(value, roots, root_pop, lo, hi, kinks, kink_pop, pops)
        for p, pick in zip(pops.tolist(), picks):
            out[todo[p]] = pick
    return out


def _r2_segments(sums, params: SystemParams, lo, hi, clamp: bool, star=None):
    """The r2 segments of each box between its in-box clamp kinks, with their sums and end reads.

    ``sums`` are a stack's `_freshness_sums`, with boxes [lo_p, hi_p];
    ``star`` (a stack of one) is one more end when it lies inside, and an
    unclamped box is one segment.  Returns the sorted in-box kinks and
    their populations, the segments [a, b] (grouped by population and
    rising) and their populations, their live sums (`_live_sums` just right
    of a), and the value and slope at a and at b from those sums.
    """
    live = np.flatnonzero(hi > lo)
    kinks, kink_pop = np.empty(0), np.empty(0, dtype=np.intp)
    if clamp:
        both = np.concatenate(sums[:2], axis=1)
        inside = (lo[:, None] < both) & (both < hi[:, None])
        kinks, kink_pop = both[inside], np.repeat(np.arange(len(lo)), inside.sum(axis=1))
        order = np.lexsort((kinks, kink_pop))
        kinks, kink_pop = kinks[order], kink_pop[order]
    extra = [star] if star is not None and lo[0] < star < hi[0] else []
    ends = np.concatenate([lo[live], kinks, extra, hi[live]])
    end_pop = np.concatenate([live, kink_pop, np.zeros(len(extra), dtype=np.intp), live])
    order = np.lexsort((ends, end_pop))
    ends, end_pop = ends[order], end_pop[order]
    # not np.unique, whose first call imports numpy.ma
    new = np.ones(len(ends), dtype=bool)
    new[1:] = (ends[1:] > ends[:-1]) | (end_pop[1:] != end_pop[:-1])
    ends, end_pop = ends[new], end_pop[new]
    left = np.flatnonzero(end_pop[:-1] == end_pop[1:])
    a, b, pop = ends[left], ends[left + 1], end_pop[left]
    segment = _live_sums(a, sums, clamp, pop)
    ends = _r2_parts(a, segment, params), _r2_parts(b, segment, params)
    return kinks, kink_pop, a, b, pop, segment, *ends


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
    kinks, kink_pop, a, b, pop, _, (_, s_a), (_, s_b) = _r2_segments(sums, params, lo, hi, clamp)
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


def _r2_certificate(delta: np.ndarray, params: SystemParams, lo: float, hi: float, star: float):
    """Upper bound on the realized r2 slice over [lo, hi], where it sits, V(star) and the segments.

    The in-box clamp kinks delta_k and delta_k e^(FRESHNESS_MAX delta_k),
    and ``star`` when it lies inside, cut [lo, hi] into segments on which
    the live set and the capped count are fixed (`_r2_segments`), so
    f(r) = (beta/n - r)(S1 ln r - S2 + FRESHNESS_MAX m) has
    f'' = -S1 (1/r + (beta/n)/r^2) <= 0 there (Boyd & Vandenberghe 2004,
    §3.1.3): the tangents at a segment's ends bound it from above.  Their
    bound is f(a) if the slope at a is at most 0, f(b) if the slope at b
    is at least 0, and otherwise the tangents' crossing.  Since also
    f'' <= -m, m = S1 (1/b + (beta/n)/b^2), each end's tangent less
    m (r - end)^2/2 bounds the segment, and the least of the three bounds
    counts; at a root r2*, where the tangent is flat only to within
    rounding, the parabola keeps the bound from growing with the segment's
    width.  Each slope is read from the segment's own sums, so the slope at
    b is the left limit, and it is padded outward by _SLACK plus n eps, the
    rounding of the prefix sums, times the sum of its terms' magnitudes.
    O(log n) per point after the O(n log n) sort.
    """
    sums = _freshness_sums(delta[None])
    u_star = float(_r2_parts(star, _live_sums(star, [x[0] for x in sums], True), params)[0])
    box = np.array([lo]), np.array([hi])
    _, _, a, b, _, segment, (v_a, s_a), (v_b, s_b) = _r2_segments(sums, params, *box, True, star)
    if not a.size:
        return u_star if lo == star else float(_r2_value(lo, delta, params, True)), lo, u_star, 0
    v_a[a == star] = u_star
    v_b[b == star] = u_star  # f is continuous; compare one computed value of f(star)
    d, p1 = sums[0][0], sums[2][0]
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


def _r1_certificate(gamma, t, params: SystemParams, lo: float, hi: float, star: float, room: float):
    """Upper bound on the realized r1 slice V over [lo, hi], where it sits, V(star) and the cells.

    Past the cut.  With s = alpha/n, let c = s max t rounded up
    (`_r1_cut`), so that s <= c/t_k for every k.  On r >= c client k's term
    (s - r/t_k) A_k(r) is the product of s - r/t_k <= 0, which falls, and
    A_k(r) >= ACCURACY_MIN > 0, which rises.  For c <= r < r',
    (s - r'/t)A(r') <= (s - r/t)A(r') since A(r') > 0, and
    (s - r/t)A(r') <= (s - r/t)A(r) since s - r/t <= 0 and A(r') >= A(r).
    So V is nonincreasing there: V <= V(e) on [e, hi] for e = max(c, lo).

    Below the cut the solver's branch and bound (`_r1_cells`) runs with
    the fixed target V(star) + ``room`` and ``star`` as one more cell end.
    A kink-free cell ending at ``star`` also takes Taylor's bound from
    star, V(star + y) <= V(star) + V'(star+) y + K y^2/2 for y >= 0 and
    leftward with V'(star-), with K >= V'' and the one-sided slopes from the
    cell's own live clients (`_R1Bound.smooth`), tight where K < 0.  The
    bound is the largest of V(e) and the bounds of the closed cells, and of
    the open ones where the loop stopped.
    """
    share = params.alpha / params.n
    cut = _r1_cut(params, t[None])
    end = min(max(float(cut[0]), lo), hi)
    if end == lo:
        v = _r1_value(np.array([lo, star]), gamma, t, params, True)
        return float(v[1] if lo == star else v[0]), lo, float(v[1]), int(lo < hi)
    gamma, t = gamma[None], t[None]
    cells = _R1Bound(gamma, t, share)
    value = lambda r, pop: _r1_value(r, gamma, t, params, True, pop, cells)  # noqa: E731
    v = value(np.array([star, end]), np.zeros(2, dtype=np.intp))
    v_star = float(v[0])
    top, at = (v_star if end == star else float(v[1])), end

    def bound(a, b, va, vb, pop):
        out, where = cells(a, b, va, vb, pop)
        i = np.flatnonzero((a == star) | (b == star))
        kink_a, kink_b = cells.inside(a[i], b[i], pop[i])
        i, kink_a = i[kink_a == kink_b], kink_a[kink_a == kink_b]
        if i.size:
            s_a, s_b, pad_a, pad_b, up, _ = cells.smooth(a[i], b[i], pop[i], kink_a)
            right = a[i] == star
            gain, y = _peak(np.where(right, s_a + pad_a, pad_b - s_b), up, b[i] - a[i])
            lower = v_star + gain < out[i]
            out[i[lower]] = v_star + gain[lower]
            where[i[lower]] = np.where(right, star + y, star - y)[lower]
        return out, where

    target = np.array([v_star + max(room, 0.0)])
    box = np.array([lo]), np.array([hi])
    *_, top1, at1, bounded = _r1_cells(bound, cells, value, *box, cut, None, target, (star, v_star))
    if top1 > top:
        top, at = top1, at1
    return top, at, v_star, bounded + int(end < hi)


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
) -> ServerEquilibriumReport:
    """Certify that no in-box rate pair beats the audited rates by more than VERIFY_TOL.

    Clients re-best-respond at every candidate rate pair (the deviation-with-
    fixed-strategies inequality is vacuous here: utility is strictly
    decreasing in the rates once strategies are frozen, so only the
    response-substituted comparison is informative).  The realized server
    utility separates, so no pair is worth more than the r1 slice's upper
    bound plus the r2 slice's.  `_r2_certificate` bounds each concave r2
    segment between kinks by its end tangents and curvature, with no
    iteration.  `_r1_certificate` bounds r1 past c = (alpha/n) max t by its
    value at c, and below c runs the solver's branch and bound
    (`_r1_cells`) from the same cells, with the fixed target u1* plus what
    VERIFY_TOL leaves after the r2 bound: the cells that do not close are
    split until they do, the cell budget runs out or a valued rate passes
    the target, and the open cells keep their bounds.  The rates pass when
    the bounds exceed u1* + u2* by at most VERIFY_TOL.  No rate grid is
    read, so a rise narrower than any grid cell is still bounded.
    """
    gamma, delta, t = _population_arrays(profiles)
    top2, at2, u2, segments = _r2_certificate(delta, params, box.r2_lo, box.r2_hi, rates_star.r2)
    room = VERIFY_TOL - (top2 - u2)
    top1, at1, u1, cells = _r1_certificate(
        gamma, t, params, box.r1_lo, box.r1_hi, rates_star.r1, room
    )
    worst = (top1 + top2) - (u1 + u2)
    return ServerEquilibriumReport(
        worst_violation=float(worst),
        worst_rates=(at1, at2),
        cells=cells + segments,
        passed=bool(worst <= VERIFY_TOL),
    )
