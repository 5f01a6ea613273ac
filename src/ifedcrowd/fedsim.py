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
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

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
    client_reward,
    server_utility,
    total_cost,
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


@dataclass(frozen=True)
class CollectionState:
    """Generation time of the newest sample plus the cadence between samples."""

    last_generation_time: float
    collection_interval: float

    def __post_init__(self):
        if not self.collection_interval > 0:
            raise DomainError("collection_interval must be positive")


@dataclass(frozen=True)
class ClientTask:
    """The client's private data distribution: y = w . x + noise."""

    true_weights: np.ndarray
    noise_std: float

    def sample(self, rng: np.random.Generator, count: int) -> ClientDataset:
        x = rng.standard_normal((count, len(self.true_weights)))
        noise = self.noise_std * rng.standard_normal(count) if self.noise_std > 0 else 0.0
        return ClientDataset.from_rows(x, x @ self.true_weights + noise)


@dataclass(frozen=True)
class CollectionResult:
    delta: ClientDataset
    state: CollectionState
    achieved_freshness: float
    shortfall: bool


def collect_data(
    state: CollectionState,
    strategy: Strategy,
    upload_time: float,
    task: ClientTask,
    rng: np.random.Generator,
    round_start: float,
    latency: float = 0.0,
) -> CollectionResult:
    """Generate this round's samples so upload-time freshness hits the target.

    Routine samples arrive every collection_interval, counted from the later
    of the newest sample and round_start; when the freshness target is
    positive the last sample is scheduled exactly 1/F before upload
    (collection runs continuously, so that moment may predate the round
    start); with a zero target they stop 1/FRESHNESS_MAX before upload.  The
    collection latency bounds how fresh a sample can be; a shortfall is
    flagged only when latency makes the target unreachable, i.e. the
    achieved freshness falls below the target.
    """
    if strategy.freshness < 0:
        raise DomainError("freshness target must be non-negative")
    if strategy.freshness > 0:
        age_target = max(1.0 / strategy.freshness, latency, _MIN_AGE)
    else:
        age_target = max(latency, 1.0 / FRESHNESS_MAX)
    final_time = upload_time - age_target

    cadence_start = max(state.last_generation_time, round_start)

    if (final_time - cadence_start) / state.collection_interval > 1e6:
        raise DomainError(
            "collection_interval is too small for the round window "
            f"({state.collection_interval} over {final_time - cadence_start:.3g})"
        )
    # routine samples at cadence_start + j * interval for j = 1..count
    count = max(0, math.floor((final_time + 1e-12 - cadence_start) / state.collection_interval))
    last = cadence_start + count * state.collection_interval if count else state.last_generation_time
    if (
        strategy.freshness > 0
        and final_time > state.last_generation_time
        and (not count or last < final_time - 1e-12)
    ):
        count += 1
        last = final_time

    if math.isfinite(last):
        achieved = 1.0 / max(upload_time - last, _MIN_AGE)
    else:
        achieved = 0.0  # no samples collected yet
    shortfall = strategy.freshness > 0 and achieved < strategy.freshness * (1 - 1e-12)
    return CollectionResult(
        delta=task.sample(rng, count),
        state=CollectionState(last, state.collection_interval),
        achieved_freshness=float(achieved),
        shortfall=shortfall,
    )


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
    """Mutable cross-round state owned by the simulation driver."""

    server_model: ModelParams
    datasets: dict[int, ClientDataset]
    collection: dict[int, CollectionState]
    tasks: dict[int, ClientTask]
    clock: float = 0.0


def init_state(
    population: Sequence[ClientProfile], config: RoundConfig, run_seed: int
) -> SimState:
    """Fresh simulation state; client tasks are derived from (run_seed, client id)."""
    tasks = {}
    for p in population:
        rng = np.random.default_rng(np.random.SeedSequence((run_seed, p.id, _TASK_TAG)))
        tasks[p.id] = ClientTask(
            true_weights=rng.standard_normal(config.dim), noise_std=config.noise_std
        )
    return SimState(
        server_model=ModelParams(np.zeros(config.dim)),
        datasets={p.id: ClientDataset.empty(config.dim) for p in population},
        collection={
            # no samples exist yet; clients may schedule their first sample
            # before the first round starts (collection runs continuously)
            p.id: CollectionState(-math.inf, config.collection_interval)
            for p in population
        },
        tasks=tasks,
        clock=0.0,
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

    Every client targets its best response to ``rates``.  A client whose
    training fails is recorded and excluded; aggregation weights renormalize
    over the survivors.  Payouts always evaluate the reward formula on the
    achieved strategy, bit-for-bit the same computation the game module
    exposes.
    """
    if not population:
        raise DomainError("run_round needs a non-empty population")

    round_start = state.clock
    records: list[ClientRoundRecord] = []
    models: list[ModelParams] = []
    wall_clock = 0.0

    responses = best_responses(*_population_arrays(population), rates)
    for profile, accuracy, freshness, accuracy_clamped, freshness_clamped in zip(
        population, *(v.tolist() for v in responses)
    ):
        target = Strategy(accuracy, freshness, profile.t_min)
        t_real = profile.t_min + config.completion_jitter
        upload_time = round_start + t_real
        wall_clock = max(wall_clock, t_real)

        rng = np.random.default_rng(
            np.random.SeedSequence((run_seed, round_index, profile.id, _COLLECT_TAG))
        )
        coll = collect_data(
            state.collection[profile.id],
            target,
            upload_time,
            state.tasks[profile.id],
            rng,
            round_start,
            latency=config.collection_latency,
        )
        state.collection[profile.id] = coll.state
        dataset = state.datasets[profile.id].merged(coll.delta)
        state.datasets[profile.id] = dataset

        # a failed client is recorded and excluded: nothing achieved, nothing paid
        achieved, payout, utility, iterations, error = None, 0.0, 0.0, 0, None
        try:
            trained = local_train(
                state.server_model,
                dataset,
                target.accuracy,
                iteration_scale=profile.gamma,
                cap_scale=config.iteration_cap_scale,
            )
        except DomainError as exc:
            error = str(exc)
        else:
            achieved = Strategy(trained.achieved_accuracy, coll.achieved_freshness, t_real)
            payout = client_reward(rates, achieved)
            utility = payout - total_cost(profile, achieved, params.comm_size).total
            iterations = trained.iterations
            models.append(trained.model)
        records.append(
            ClientRoundRecord(
                client_id=profile.id,
                target=target,
                achieved=achieved,
                payout=payout,
                utility=utility,
                accuracy_clamped=accuracy_clamped,
                freshness_clamped=freshness_clamped,
                accuracy_shortfall=(
                    achieved is None or achieved.accuracy < target.accuracy * (1 - 1e-12)
                ),
                freshness_shortfall=coll.shortfall,
                iterations=iterations,
                dataset_size=dataset.size,
                failed=achieved is None,
                error=error,
            )
        )

    survivors = [r for r in records if not r.failed]
    if survivors:
        state.server_model = aggregate(models, [float(r.dataset_size) for r in survivors])
        realized_params = SystemParams(
            alpha=params.alpha,
            beta=params.beta,
            comm_size=params.comm_size,
            n=len(survivors),
        )
        realized_utility = server_utility(realized_params, rates, [r.achieved for r in survivors])
    else:
        realized_utility = float("nan")
    state.clock = round_start + wall_clock

    return RoundReport(
        round_index=round_index,
        rates=rates,
        clients=tuple(records),
        server_model=tuple(float(v) for v in state.server_model.weights),
        server_utility=realized_utility,
        wall_clock=wall_clock,
        n_failed=len(records) - len(survivors),
        n_shortfall=sum(r.accuracy_shortfall or r.freshness_shortfall for r in records),
    )
