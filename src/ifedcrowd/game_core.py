"""Core game quantities: rewards, costs, utilities and client best responses.

Everything in this module is a pure function of its inputs.  Clients choose a
training strategy (accuracy level, data freshness, completion time); the task
publisher announces two reward rates, pays ``r1 * A/T + r2 * F`` per client,
and values the aggregate outcome through ``alpha`` (accuracy) and ``beta``
(freshness).  All logarithms are natural.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError

# Clamp bounds for client responses.  Closed-form best responses can leave
# (0, 1) whenever a uniform rate sits outside a client's own feasible range;
# clamping keeps every population solvable.  ACCURACY_MIN is positive so that
# accuracy-dependent simulation terms never degenerate; freshness 0 is legal
# (the collection cost floor is exp(0) = 1).
ACCURACY_MIN = 0.001
ACCURACY_MAX = 0.999
FRESHNESS_MAX = 10.0

# Default cap closing the r2 search interval from above; the marginal value of
# freshness is eventually dominated by the payment term, so it rarely binds.
DEFAULT_R2_CAP = 100.0

# Upper feasible-range factor for r1: accuracy responses stay below 1 only
# while r1 < (1 + ln 2) * gamma * t_min.
R1_RANGE_FACTOR = 1.0 + math.log(2.0)


@dataclass(frozen=True)
class ClientProfile:
    """One worker's private cost parameters.

    gamma scales the computation cost per unit of training effort, delta
    scales the data-collection cost per unit of freshness, and t_min is the
    shortest completion time the worker can reach.
    """

    id: int
    gamma: float
    delta: float
    t_min: float

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise DomainError(f"gamma must be positive and finite, got {self.gamma}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise DomainError(f"delta must be positive and finite, got {self.delta}")
        if not (self.t_min > 0 and math.isfinite(self.t_min)):
            raise DomainError(f"t_min must be positive and finite, got {self.t_min}")


class Population(Sequence):
    """A population of workers held as four read-only arrays.

    Worker k is ``ClientProfile(ids[k], gamma[k], delta[k], t_min[k])``.  The
    arrays are copied and validated in one vectorized pass, with the messages
    `ClientProfile` raises.  The profiles themselves are built once, when the
    first one is read, so array code never pays for them.  A slice is a
    Population, and a Population equals any sequence of equal profiles.
    """

    def __init__(self, ids, gamma, delta, t_min):
        self.ids = np.array(ids, dtype=np.int64)
        columns = (gamma, delta, t_min)
        if self.ids.ndim != 1 or any(np.ndim(v) != 1 or len(v) != len(self.ids) for v in columns):
            raise DomainError("ids, gamma, delta and t_min must be 1-D arrays of one length")
        values = np.array(columns, dtype=float)  # one copy; each row is contiguous
        ok = (values > 0) & (values < math.inf)  # NaN fails both tests
        if not ok.all():
            row, k = np.unravel_index(np.argmin(ok), ok.shape)
            name = ("gamma", "delta", "t_min")[row]
            raise DomainError(f"{name} must be positive and finite, got {values[row, k].item()}")
        self.ids.flags.writeable = values.flags.writeable = False
        self.gamma, self.delta, self.t_min = values

    @cached_property
    def _profiles(self) -> tuple[ClientProfile, ...]:
        return tuple(
            map(
                ClientProfile,
                self.ids.tolist(),
                self.gamma.tolist(),
                self.delta.tolist(),
                self.t_min.tolist(),
            )
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Population(
                self.ids[index], self.gamma[index], self.delta[index], self.t_min[index]
            )
        return self._profiles[index]

    def __iter__(self):
        return iter(self._profiles)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Population(n={len(self)})"


@dataclass(frozen=True)
class RewardRates:
    """The publisher's decision variables: accuracy-per-time and freshness rates."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (self.r1 > 0 and math.isfinite(self.r1)):
            raise DomainError(f"r1 must be positive and finite, got {self.r1}")
        if not (self.r2 > 0 and math.isfinite(self.r2)):
            raise DomainError(f"r2 must be positive and finite, got {self.r2}")


@dataclass(frozen=True)
class Strategy:
    """A client's chosen (accuracy level, data freshness, completion time)."""

    accuracy: float
    freshness: float
    completion_time: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy < 1.0):
            raise DomainError(f"accuracy must lie in [0, 1), got {self.accuracy}")
        if not (self.freshness >= 0.0 and math.isfinite(self.freshness)):
            raise DomainError(f"freshness must be non-negative, got {self.freshness}")
        if not (self.completion_time > 0.0 and math.isfinite(self.completion_time)):
            raise DomainError(
                f"completion_time must be positive, got {self.completion_time}"
            )


@dataclass(frozen=True)
class SystemParams:
    """Publisher-side constants: valuations, fixed communication size, worker count."""

    alpha: float
    beta: float
    comm_size: float
    n: int

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not (self.comm_size >= 0 and math.isfinite(self.comm_size)):
            raise DomainError(f"comm_size must be non-negative and finite, got {self.comm_size}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"n must be a positive integer, got {self.n}")


@dataclass(frozen=True)
class CostBreakdown:
    """Per-client cost split into calculation, collection and communication parts."""

    calculation: float
    collection: float
    communication: float
    total: float


@dataclass(frozen=True)
class RateBox:
    """Feasible reward-rate rectangle.

    The population box is the union hull of the per-client r1 ranges (min of
    lower bounds, max of upper bounds) so the search region never collapses
    for heterogeneous populations.  r2 is bounded below by the largest delta:
    the least rate at which no client's freshness response is clamped at 0.
    Below it `best_responses` would clamp those responses at 0, a legitimate
    play, so the floor is a modelling choice, not a domain limit.
    """

    r1_lo: float
    r1_hi: float
    r2_lo: float
    r2_hi: float


@dataclass(frozen=True)
class BestResponse:
    """A clamped best-response strategy plus flags telling whether clamping occurred."""

    strategy: Strategy
    accuracy_clamped: bool
    freshness_clamped: bool

    @property
    def clamped(self) -> bool:
        return self.accuracy_clamped or self.freshness_clamped


def calculation_cost(gamma: float, accuracy: float) -> float:
    """Computation cost gamma * (1 + A) * ln(1 + A) of training to accuracy A."""
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if not (0.0 <= accuracy < 1.0):
        raise DomainError(f"accuracy must lie in [0, 1), got {accuracy}")
    return gamma * (1.0 + accuracy) * math.log1p(accuracy)


def collection_cost(delta: float, freshness_level: float) -> float:
    """Data-collection cost exp(delta * F); equals 1 at zero freshness."""
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if freshness_level < 0:
        raise DomainError(f"freshness must be non-negative, got {freshness_level}")
    try:
        return math.exp(delta * freshness_level)
    except OverflowError:
        raise DomainError(
            f"collection cost exp(delta * F) overflows at delta={delta}, F={freshness_level}"
        ) from None


def total_cost(profile: ClientProfile, strategy: Strategy, comm_size: float) -> CostBreakdown:
    """Full client cost: calculation + collection + fixed communication size."""
    if comm_size < 0:
        raise DomainError(f"comm_size must be non-negative, got {comm_size}")
    calc = calculation_cost(profile.gamma, strategy.accuracy)
    coll = collection_cost(profile.delta, strategy.freshness)
    return CostBreakdown(
        calculation=calc,
        collection=coll,
        communication=comm_size,
        total=calc + coll + comm_size,
    )


def client_reward(rates: RewardRates, strategy: Strategy) -> float:
    """Payout r1 * A/T + r2 * F; also used verbatim for round settlement."""
    if not strategy.completion_time > 0:
        raise DomainError("completion_time must be positive")
    return (
        rates.r1 * strategy.accuracy / strategy.completion_time
        + rates.r2 * strategy.freshness
    )


def client_utility(
    profile: ClientProfile,
    rates: RewardRates,
    strategy: Strategy,
    comm_size: float,
) -> float:
    """Client profit: reward minus total cost.  May be negative."""
    return client_reward(rates, strategy) - total_cost(profile, strategy, comm_size).total


def _server_value(params: SystemParams, accuracy, freshness, completion_time, reward):
    """The publisher-profit formula over arrays of strategy values and payouts.

    Each row of a stack of populations gets its own value; a row's sums
    round as the sums of that row alone.
    """
    benefit = np.sum(params.alpha * accuracy + params.beta * freshness, axis=-1) / params.n
    return benefit - np.max(completion_time, axis=-1) - np.sum(reward, axis=-1)


def server_utility(
    params: SystemParams, rates: RewardRates, strategies: list[Strategy]
) -> float:
    """Publisher profit for a strategy profile.

    Averaged valuation of accuracy and freshness, minus the round wall clock
    (the slowest completion time), minus the summed payouts.  The benefit term
    is averaged over n while the payment term is summed; that asymmetry is
    part of the model definition and is preserved as-is.
    """
    if len(strategies) == 0:
        raise DomainError("server_utility needs at least one strategy")
    if len(strategies) != params.n:
        raise DomainError(
            f"expected {params.n} strategies, got {len(strategies)}"
        )
    a, f, t = np.array([(s.accuracy, s.freshness, s.completion_time) for s in strategies]).T
    return float(_server_value(params, a, f, t, rates.r1 * a / t + rates.r2 * f))


def _population_arrays(profiles: Sequence[ClientProfile]) -> tuple[np.ndarray, ...]:
    """The population's gamma, delta and t_min as three contiguous float arrays.

    A `Population` gives its own read-only arrays, with no copy.
    """
    if isinstance(profiles, Population):
        return profiles.gamma, profiles.delta, profiles.t_min
    values = np.array([(p.gamma, p.delta, p.t_min) for p in profiles], dtype=float)
    return tuple(np.ascontiguousarray(values.reshape(-1, 3).T))


def best_responses(gamma, delta, t_min, r1, r2) -> tuple[np.ndarray, ...]:
    """Closed-form client best responses, clamped into the feasible strategy set.

    The rates r1 and r2 are numbers, or columns that broadcast against the
    clients' arrays: one rate per row of a stack of populations.  Returns
    the accuracy and freshness arrays and their two clamp masks.
    Completion time is always t_min (utility strictly decreases in time for
    positive accuracy).  Accuracy exp(r1/(gamma t_min) - 1) - 1 is clamped
    into [ACCURACY_MIN, ACCURACY_MAX], an overflowed exponential to the cap,
    and freshness ln(r2/delta)/delta into [0, FRESHNESS_MAX].  Because the
    utility is separately concave in accuracy and freshness, the clamped
    point remains optimal over the clamped rectangle.
    """
    with np.errstate(over="ignore"):
        a_raw = np.exp(r1 / (gamma * t_min) - 1.0) - 1.0
    f_raw = np.log(r2 / delta) / delta
    accuracy = np.clip(a_raw, ACCURACY_MIN, ACCURACY_MAX)
    freshness = np.clip(f_raw, 0.0, FRESHNESS_MAX)
    return accuracy, freshness, accuracy != a_raw, freshness != f_raw


def population_utilities(gamma, delta, t, accuracy, freshness, params: SystemParams, r1, r2):
    """Every client's `client_utility` and payout, and the population's `server_utility`.

    Client k plays (accuracy[k], freshness[k], t[k]), e.g. `best_responses`
    at t = t_min, and is paid r1 A/T + r2 F, bit for bit `client_reward`.
    The rates are given as in `best_responses`; a stack of populations gets
    one server utility per row.  The caller keeps exp(delta F) finite: a
    best response's is at most r2/delta.
    """
    reward = r1 * accuracy / t + r2 * freshness
    cost = gamma * (1.0 + accuracy) * np.log1p(accuracy) + np.exp(delta * freshness)
    utilities = reward - (cost + params.comm_size)
    return utilities, reward, _server_value(params, accuracy, freshness, t, reward)


def best_response(profile: ClientProfile, rates: RewardRates) -> BestResponse:
    """One client's `best_responses`: its strategy and clamp flags."""
    (a,), (f,), (a_clamped,), (f_clamped,) = (
        v.tolist() for v in best_responses(*_population_arrays([profile]), rates.r1, rates.r2)
    )
    return BestResponse(Strategy(a, f, profile.t_min), a_clamped, f_clamped)


def client_r1_range(profile: ClientProfile) -> tuple[float, float]:
    """Open interval of r1 values whose unclamped accuracy response lies in (0, 1)."""
    lo = profile.gamma * profile.t_min
    return lo, R1_RANGE_FACTOR * lo


def feasible_rate_box(
    profiles: Sequence[ClientProfile], r2_cap: float = DEFAULT_R2_CAP
) -> RateBox:
    """Population rate box derived from the per-client feasible ranges.

    r1 spans the union hull of the `client_r1_range` intervals.  r2 runs from
    the largest delta, the least rate at which no freshness response is
    clamped at 0 (the client with that delta responds with exactly 0), up to
    the configured cap.
    """
    if not profiles:
        raise DomainError("feasible_rate_box needs a non-empty population")
    if not math.isfinite(r2_cap):
        raise ConfigError(f"r2_cap must be finite, got {r2_cap}")
    gamma, delta, t_min = _population_arrays(profiles)
    lo = gamma * t_min
    r1_lo = float(lo.min())
    # rounding is monotone, so the positive factor commutes with max exactly
    r1_hi = R1_RANGE_FACTOR * float(lo.max())
    r2_lo = float(delta.max())
    if not r2_cap > r2_lo:
        raise ConfigError(
            f"r2_cap={r2_cap} must exceed the largest delta {r2_lo}: empty r2 interval"
        )
    return RateBox(r1_lo=r1_lo, r1_hi=r1_hi, r2_lo=r2_lo, r2_hi=r2_cap)
