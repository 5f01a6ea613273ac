"""Discrete-time round simulation: collection, local training, aggregation, settlement.

Each round the publisher announces rates, every client picks its best
response, collects data so the freshest sample's age matches the freshness
target at upload time, trains its local model to the accuracy target, and
uploads.  Payouts are settled on the ACHIEVED strategy values, so a client
that falls short of its target is paid for what it delivered.

The synthetic task is per-client linear regression on unit-Gaussian features
with client-specific true weights; the accuracy level of a training run is
its relative loss reduction 1 - loss/loss_initial, which makes accuracy
values in (0, 1) literal quantities.  The loss is quadratic, so a client
keeps its samples only as the statistics X^T X, X^T y, y^T y and N: each
round's new rows are folded in and dropped, a merge is a d x d addition, and
every training step costs O(d^2) however many rounds the dataset spans.

Client k's state is held at position k (`SimState`), and one `collect_data`
call schedules every client's samples as array expressions; drawing them,
merging and training run client by client, and one `population_utilities`
pass settles every client that trained.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from .game_core import (
    ACCURACY_MAX,
    FRESHNESS_MAX,
    ClientProfile,
    RewardRates,
    Strategy,
    SystemParams,
    _population_arrays,
    best_responses,
    collection_cost,
    population_utilities,
)

_MIN_AGE = 1e-9  # freshness is undefined at zero age
_EPS = float(np.finfo(float).eps)

# seed-stream tags so per-client generators never collide
_TASK_TAG = 7001
_COLLECT_TAG = 7002


@dataclass
class ModelParams:
    """A fixed-length real weight vector; one shape shared by all models in a run."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise DomainError("model weights must be a 1-D vector")
        if not np.all(np.isfinite(self.weights)):
            raise DomainError("model weights must be finite")

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ClientDataset:
    """Squared-loss sufficient statistics of the samples one client holds.

    The loss is quadratic, so the rows X, y enter training only through
    gram = X^T X, xty = X^T y, yty = y^T y and the row count size; the rows
    themselves are never kept.
    """

    gram: np.ndarray
    xty: np.ndarray
    yty: float
    size: int

    @classmethod
    def from_rows(cls, features: np.ndarray, labels: np.ndarray) -> "ClientDataset":
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if x.ndim != 2:
            raise DomainError("features must be a 2-D array")
        if y.shape != (x.shape[0],):
            raise DomainError("features and labels must align")
        return cls(x.T @ x, x.T @ y, float(y @ y), x.shape[0])

    @classmethod
    def empty(cls, dim: int) -> "ClientDataset":
        return cls(np.zeros((dim, dim)), np.zeros(dim), 0.0, 0)

    def merged(self, other: "ClientDataset") -> "ClientDataset":
        return ClientDataset(
            self.gram + other.gram,
            self.xty + other.xty,
            self.yty + other.yty,
            self.size + other.size,
        )


def collect_data(
    last_sample: np.ndarray,
    freshness: np.ndarray,
    upload_time: np.ndarray,
    round_start: float,
    interval: float,
    latency: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Schedule every client's samples this round so upload-time freshness hits its target.

    Client k took its newest sample at ``last_sample[k]`` (-inf before any)
    and uploads at ``upload_time[k]``.  Routine samples arrive every
    ``interval``, counted from the later of the newest sample and
    round_start; when the freshness target is positive the last sample is
    scheduled exactly 1/F before upload (collection runs continuously, so
    that moment may predate the round start); with a zero target they stop
    1/FRESHNESS_MAX before upload.  The collection latency bounds how fresh
    a sample can be; a shortfall is flagged only when latency makes the
    target unreachable, i.e. the achieved freshness falls below the target.

    Returns, per client, the sample count, the newest sample's time, the
    achieved freshness (0 with no sample yet) and the shortfall flag.
    """
    last_sample, freshness, upload_time = (
        np.asarray(v, dtype=float) for v in (last_sample, freshness, upload_time)
    )
    if np.any(freshness < 0):
        raise DomainError("freshness target must be non-negative")
    if not (interval > 0 and math.isfinite(interval)):
        raise DomainError(f"collection_interval must be positive and finite, got {interval}")
    positive = freshness > 0
    with np.errstate(divide="ignore"):
        age_target = np.where(positive, np.maximum(1.0 / freshness, _MIN_AGE), 1.0 / FRESHNESS_MAX)
    final_time = upload_time - np.maximum(age_target, latency)
    cadence_start = np.maximum(last_sample, round_start)

    window = final_time - cadence_start
    if np.any(window / interval > 1e6):
        raise DomainError(
            "collection_interval is too small for the round window "
            f"({interval} over {window.max():.3g})"
        )
    # routine samples at cadence_start + j * interval for j = 1..count
    count = np.maximum(0.0, np.floor((final_time + 1e-12 - cadence_start) / interval))
    last = np.where(count > 0, cadence_start + count * interval, last_sample)
    scheduled = (
        positive & (final_time > last_sample) & ((count == 0) | (last < final_time - 1e-12))
    )
    count += scheduled
    last = np.where(scheduled, final_time, last)

    achieved = np.where(np.isfinite(last), 1.0 / np.maximum(upload_time - last, _MIN_AGE), 0.0)
    shortfall = positive & (achieved < freshness * (1 - 1e-12))
    return count.astype(np.int64), last, achieved, shortfall


@dataclass(frozen=True)
class TrainResult:
    model: ModelParams
    achieved_accuracy: float
    iterations: int


def local_train(
    model: ModelParams,
    dataset: ClientDataset,
    target_accuracy: float,
    iteration_scale: float,
    cap_scale: float,
) -> TrainResult:
    """Gradient descent on the client's squared loss until the accuracy target.

    Accuracy is the relative loss reduction 1 - loss/loss_initial.  Steps use
    exact line search; the step that would cross the target is shortened so
    the run lands on the target exactly.  The loss cannot rise: with
    lin = g . X^T r = (2/N)|X^T r|^2 >= 0 and the exact step
    eta = (N/2)(g . g)/|X g|^2, a step takes 2 eta lin/N off the loss and
    adds back eta^2 |X g|^2/N, which is half as much, and a landing step
    stops at the target loss, below the loss it started from.  The iteration
    budget is ceil(iteration_scale * (1 + A) * ln(1 + A) * cap_scale);
    hitting it leaves the achieved accuracy below target, which the caller
    records.

    The run also stops, without taking the step, once a step would leave the
    tracked loss unchanged (new_loss >= loss): its exact decrease
    Delta = lin^2/(N |X g|^2) has fallen below the loss's rounding.  This is
    what ends a target below the least-squares floor (the noise floor), and
    it gives up at most (kappa + 1)^2/(4 kappa) Delta of loss, where kappa
    is the condition number of G over its range, in which the iterates move.
    On a quadratic, steepest descent with exact line search shrinks the
    excess loss E = loss - loss* by at least the factor
    ((kappa - 1)/(kappa + 1))^2 per step (Kantorovich; Luenberger & Ye,
    Linear and Nonlinear Programming, sec. 8.2), so one step's decrease is
    Delta >= (1 - ((kappa - 1)/(kappa + 1))^2) E = 4 kappa/(kappa + 1)^2 E.

    Training starts from the dataset's statistics G = X^T X, b = X^T y and
    c = y^T y: X^T r = G w - b for the residual r = X w - y, and the initial
    loss is (w . (G w - b) - w . b + c)/N.  Each step works in d x d Gram
    space: X^T r moves by -eta G g and the loss follows its exact quadratic
    update loss - 2 eta (g . X^T r)/N + eta^2 (g . G g)/N.

    The statistics cannot resolve a loss below their own rounding level, so
    a start whose loss lies within it counts as interpolating (0 iterations,
    accuracy 1 - 1e-15).  Let u = eps/2 and T = (sum_i |w_i| sqrt(G_ii) +
    sqrt(c))^2.  By Cauchy-Schwarz, sum_k |x_ki x_kj| <= sqrt(G_ii G_jj) and
    sum_k |x_ki y_k| <= sqrt(G_ii c), so T bounds the absolute sum of the
    quadratic form's terms, over the rows as over the statistics.  Forming
    G, b and c from N rows, in any summation order and across any number of
    merges, is then exact to within N u T on the form; evaluating it from
    the statistics adds at most (2d + 3) u T (a matrix-vector product, two
    length-d dot products and three additions).  The floor
    (N + 2d + 3) eps T / N is twice their sum over N, which leaves room for
    the second-order terms.
    """
    if not (0.0 < target_accuracy < 1.0):
        raise DomainError(f"target accuracy must lie in (0, 1), got {target_accuracy}")
    if dataset.size == 0:
        raise DomainError("cannot train on an empty dataset")

    gram = dataset.gram
    n = dataset.size
    w = model.weights.copy()

    xt_res = gram @ w - dataset.xty  # X^T r, kept in step with w
    loss_init = (float(w @ xt_res) - float(w @ dataset.xty) + dataset.yty) / n
    scale = (float(np.abs(w) @ np.sqrt(np.diag(gram))) + math.sqrt(dataset.yty)) ** 2
    if loss_init <= (n + 2 * len(w) + 3) * _EPS * scale / n:
        # already interpolating: nothing left to reduce
        return TrainResult(ModelParams(w), 1.0 - 1e-15, 0)
    target_loss = (1.0 - target_accuracy) * loss_init

    cap = max(
        1,
        math.ceil(
            iteration_scale
            * (1.0 + target_accuracy)
            * math.log1p(target_accuracy)
            * cap_scale
        ),
    )
    loss = loss_init
    iterations = 0
    for _ in range(cap):
        grad = (2.0 / n) * xt_res
        g_grad = gram @ grad
        denom = float(grad @ g_grad)  # |X g|^2
        if denom <= 0.0:
            break  # stationary: gradient in the null space
        lin = float(grad @ xt_res)  # (X g) . r
        eta = (n / 2.0) * float(grad @ grad) / denom
        new_loss = loss - 2.0 * eta * lin / n + eta * eta * denom / n
        if new_loss >= loss:
            break  # stalled: the step no longer moves the loss
        landed = new_loss < target_loss
        if landed:
            # shorten the final step to land exactly on the target loss
            a_q = denom / n
            b_q = -2.0 * lin / n
            c_q = loss - target_loss
            disc = max(b_q * b_q - 4.0 * a_q * c_q, 0.0)
            eta = (-b_q - math.sqrt(disc)) / (2.0 * a_q)
            new_loss = target_loss  # the shortened step lands there by construction
        w = w - eta * grad
        xt_res = xt_res - eta * g_grad
        iterations += 1
        loss = new_loss
        if landed:
            break
        if 1.0 - loss / loss_init >= target_accuracy:
            break
    achieved = min(1.0 - loss / loss_init, ACCURACY_MAX)
    return TrainResult(ModelParams(w), achieved, iterations)


def aggregate(
    client_models: list[ModelParams], weights: list[float] | None = None
) -> ModelParams:
    """Weighted arithmetic mean of client models, weights normalized to sum 1."""
    if not client_models:
        raise DomainError("aggregate needs at least one model")
    dims = {m.dim for m in client_models}
    if len(dims) != 1:
        raise DomainError(f"model dimension mismatch: {sorted(dims)}")
    if weights is None:
        weights = [1.0] * len(client_models)
    if len(weights) != len(client_models):
        raise DomainError("one weight per model required")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise DomainError("weights must be non-negative")
    total = float(np.sum(w))
    if not total > 0:
        raise DomainError("weights must sum to a positive value")
    stacked = np.stack([m.weights for m in client_models])
    return ModelParams((w / total) @ stacked)


@dataclass(frozen=True)
class RoundConfig:
    """Knobs for the simulated training rounds."""

    dim: int = 8
    collection_interval: float = 0.25
    collection_latency: float = 0.0
    noise_std: float = 0.1
    completion_jitter: float = 0.0
    iteration_cap_scale: float = 50.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "dim", operator.index(self.dim))
        except TypeError:
            raise ConfigError(f"dim must be an integer, got {self.dim!r}") from None
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}")
        for key in ("collection_interval", "iteration_cap_scale"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        for key in ("collection_latency", "noise_std", "completion_jitter"):
            value = getattr(self, key)
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigError(f"{key} must be non-negative and finite, got {value}")


@dataclass
class SimState:
    """Mutable cross-round state that `run_round` reads and advances.

    Client k of the population is held at position k: its samples as the
    statistics ``datasets[k]``, the generation time of its newest sample as
    ``last_sample[k]`` (-inf before any) and its private task y = w . x +
    noise as the weights ``true_weights[k]``.
    """

    server_model: ModelParams
    datasets: list[ClientDataset]
    last_sample: np.ndarray
    true_weights: np.ndarray
    clock: float = 0.0


def init_state(
    population: Sequence[ClientProfile], config: RoundConfig, run_seed: int
) -> SimState:
    """Fresh simulation state for ``population``, client k at position k.

    Client k's true weights are drawn from its own stream, seeded by
    (run_seed, client id).  No client holds a sample yet; each may schedule
    its first one before the first round starts (collection runs
    continuously).
    """
    true_weights = np.empty((len(population), config.dim))
    for row, p in zip(true_weights, population):
        rng = np.random.default_rng(np.random.SeedSequence((run_seed, p.id, _TASK_TAG)))
        row[:] = rng.standard_normal(config.dim)
    return SimState(
        server_model=ModelParams(np.zeros(config.dim)),
        datasets=[ClientDataset.empty(config.dim) for _ in population],
        last_sample=np.full(len(population), -math.inf),
        true_weights=true_weights,
    )


@dataclass(frozen=True)
class ClientRoundRecord:
    """Everything one client did and earned in one round."""

    client_id: int
    target: Strategy
    achieved: Strategy | None
    payout: float
    utility: float
    accuracy_clamped: bool
    freshness_clamped: bool
    accuracy_shortfall: bool
    freshness_shortfall: bool
    iterations: int
    dataset_size: int
    failed: bool
    error: str | None = None


@dataclass(frozen=True)
class RoundReport:
    """Immutable record of one completed round."""

    round_index: int
    rates: RewardRates
    clients: tuple[ClientRoundRecord, ...]
    server_model: tuple[float, ...]
    server_utility: float
    wall_clock: float
    n_failed: int
    n_shortfall: int  # clients whose accuracy or freshness fell short, failed ones included

    def to_dict(self) -> dict:
        """The report as plain JSON data: one key per field, at every level."""
        return _plain(self)


_JSON_LEAVES = frozenset((bool, int, float, str, type(None)))


def _plain(value):
    """Records become objects keyed by their field names, tuples become lists.

    Plain leaves are copied without a recursive call; one call per leaf
    makes the walk several times slower, and it runs on every round.
    """
    if isinstance(value, tuple):
        return [v if type(v) in _JSON_LEAVES else _plain(v) for v in value]
    names = getattr(type(value), "__dataclass_fields__", None)
    if names is None:
        return value
    plain = {}
    for name in names:
        v = getattr(value, name)
        plain[name] = v if type(v) in _JSON_LEAVES else _plain(v)
    return plain


def run_round(
    population: Sequence[ClientProfile],
    params: SystemParams,
    rates: RewardRates,
    config: RoundConfig,
    state: SimState,
    run_seed: int,
    round_index: int = 0,
) -> RoundReport:
    """Execute one full round at the announced rates: collect, train, aggregate, settle.

    Every client targets its best response to ``rates``.  The targets, the
    realized completion and upload times and every client's collection are
    computed for the whole population at once; each client then draws its
    new samples from its own (run_seed, round_index, client id) stream,
    merges them and trains.  A client whose training fails is recorded and
    excluded; aggregation weights renormalize over the survivors.  Every
    survivor is then settled in one `population_utilities` pass over the
    achieved strategies: its payout (bit for bit `client_reward`) and
    utility, and the server utility of the game's formula with n the
    number of survivors.  A collection cost that overflows raises the
    DomainError of `collection_cost`, for the first survivor it overflows at.

    ``state`` must hold this population, client k at position k.  It is
    written only once the round has settled, so a round that raises leaves
    it as it was.
    """
    if not population:
        raise DomainError("run_round needs a non-empty population")
    if len(state.datasets) != len(population):
        raise DomainError(
            f"the state holds {len(state.datasets)} clients "
            f"but the population has {len(population)}"
        )

    round_start = state.clock
    gamma, delta, t_min = _population_arrays(population)
    responses = best_responses(gamma, delta, t_min, rates.r1, rates.r2)
    t_real = t_min + config.completion_jitter
    wall_clock = float(t_real.max())
    counts, last_sample, freshness, freshness_shortfall = collect_data(
        state.last_sample,
        responses[1],
        round_start + t_real,
        round_start,
        config.collection_interval,
        latency=config.collection_latency,
    )

    target_a, target_f, accuracy_clamped, freshness_clamped = (v.tolist() for v in responses)
    dim = state.true_weights.shape[1]
    n = len(population)
    achieved = np.zeros(n)
    iterations = [0] * n
    errors: list[str | None] = [None] * n
    models: list[ModelParams] = []
    datasets: list[ClientDataset] = []
    for k, (profile, count) in enumerate(zip(population, counts.tolist())):
        rng = np.random.default_rng(
            np.random.SeedSequence((run_seed, round_index, profile.id, _COLLECT_TAG))
        )
        x = rng.standard_normal((count, dim))
        noise = config.noise_std * rng.standard_normal(count) if config.noise_std > 0 else 0.0
        dataset = state.datasets[k].merged(
            ClientDataset.from_rows(x, x @ state.true_weights[k] + noise)
        )
        datasets.append(dataset)
        try:
            trained = local_train(
                state.server_model,
                dataset,
                target_a[k],
                iteration_scale=profile.gamma,
                cap_scale=config.iteration_cap_scale,
            )
        except DomainError as exc:
            errors[k] = str(exc)  # a failed client is excluded: nothing achieved, nothing paid
        else:
            achieved[k] = trained.achieved_accuracy
            iterations[k] = trained.iterations
            models.append(trained.model)

    # every survivor is settled in one pass, at the strategy it achieved
    failed = [e is not None for e in errors]
    ok = ~np.array(failed)
    payout, utility = np.zeros(n), np.zeros(n)
    server_model, server = state.server_model, math.nan
    if models:
        server_model = aggregate(models, [float(d.size) for d, f in zip(datasets, failed) if not f])
        for k in np.flatnonzero(ok & (delta * freshness > 709.0)).tolist():  # exp(709.79) = inf
            collection_cost(delta[k].item(), freshness[k].item())  # raises its typed error
        utility[ok], payout[ok], server = population_utilities(
            *(v[ok] for v in (gamma, delta, t_real, achieved, freshness)),
            replace(params, n=len(models)),
            rates.r1,
            rates.r2,
        )
    achieved, freshness, t_real, payout, utility, freshness_shortfall = (
        v.tolist() for v in (achieved, freshness, t_real, payout, utility, freshness_shortfall)
    )
    records = tuple(
        ClientRoundRecord(
            client_id=profile.id,
            target=Strategy(target_a[k], target_f[k], profile.t_min),
            achieved=None if failed[k] else Strategy(achieved[k], freshness[k], t_real[k]),
            payout=payout[k],
            utility=utility[k],
            accuracy_clamped=accuracy_clamped[k],
            freshness_clamped=freshness_clamped[k],
            accuracy_shortfall=failed[k] or achieved[k] < target_a[k] * (1 - 1e-12),
            freshness_shortfall=freshness_shortfall[k],
            iterations=iterations[k],
            dataset_size=datasets[k].size,
            failed=failed[k],
            error=errors[k],
        )
        for k, profile in enumerate(population)
    )
    state.server_model = server_model
    state.datasets = datasets
    state.last_sample = last_sample
    state.clock = round_start + wall_clock

    return RoundReport(
        round_index=round_index,
        rates=rates,
        clients=records,
        server_model=tuple(float(v) for v in server_model.weights),
        server_utility=float(server),
        wall_clock=wall_clock,
        n_failed=n - len(models),
        n_shortfall=sum(r.accuracy_shortfall or r.freshness_shortfall for r in records),
    )
