"""Rate-selection policies compared in the experiments: equilibrium, Random, MAX."""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

import numpy as np

from .equilibrium import _equilibria, _solved, compute_equilibrium
from .errors import ConfigError, IFedCrowdError
from .game_core import (
    ClientProfile,
    RateBox,
    RewardRates,
    SystemParams,
    best_responses,
    population_utilities,
)


class MechanismKind(Enum):
    """Closed set of rate-selection policies."""

    IFEDCROWD = "ifedcrowd"
    RANDOM = "random"
    MAX = "max"

    @classmethod
    def from_token(cls, token: str) -> "MechanismKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown mechanism {token!r}; expected one of: {valid}")

    @property
    def token(self) -> str:
        return self.value


def _pick(kind: MechanismKind, boxes, seeds) -> list:
    """Each population's rates under a policy, or its error; IFEDCROWD's are None.

    An empty box is a ConfigError.  Random draws each rate uniformly over
    its box interval, seeded by the population's seed; MAX takes the upper
    box corner, the largest rates that keep responses meaningful.
    """
    out: list = []
    for box, seed in zip(boxes, seeds):
        try:
            if not (box.r1_lo < box.r1_hi and box.r2_lo < box.r2_hi):
                raise ConfigError(
                    f"infeasible rate box: r1 [{box.r1_lo}, {box.r1_hi}], "
                    f"r2 [{box.r2_lo}, {box.r2_hi}]"
                )
            if kind is MechanismKind.MAX:
                out.append(RewardRates(r1=box.r1_hi, r2=box.r2_hi))
            elif kind is MechanismKind.RANDOM:
                rng = np.random.default_rng(seed)
                r1 = float(rng.uniform(box.r1_lo, box.r1_hi))
                out.append(RewardRates(r1=r1, r2=float(rng.uniform(box.r2_lo, box.r2_hi))))
            else:
                out.append(None)
        except IFedCrowdError as exc:
            out.append(exc)
    return out


def _play(kind: MechanismKind, gamma, delta, t_min, params: SystemParams, boxes, seeds) -> list:
    """Each population's (rates, client utilities, server utility) under a policy, or its error.

    gamma, delta and t_min hold one population of params.n clients per row,
    with its box in ``boxes`` and its Random seed in ``seeds``.  IFEDCROWD
    solves every population in one `_equilibria` pass; Random and MAX play
    `_pick`'s rates, broadcast over each row, in one payoff pass.
    """
    out = _pick(kind, boxes, seeds)
    todo = [i for i, result in enumerate(out) if not isinstance(result, IFedCrowdError)]
    if not todo:
        return out
    gamma, delta, t_min = gamma[todo], delta[todo], t_min[todo]
    if kind is MechanismKind.IFEDCROWD:
        solved = _equilibria(gamma, delta, t_min, params, [boxes[i] for i in todo])
        for i, result in zip(todo, solved):
            if not isinstance(result, IFedCrowdError):
                result = result.rates, result.utilities, result.server_utility
            out[i] = result
        return out
    r1 = np.array([[out[i].r1] for i in todo])
    r2 = np.array([[out[i].r2] for i in todo])
    accuracy, freshness, _, _ = best_responses(gamma, delta, t_min, r1, r2)
    utilities, _, server = population_utilities(
        gamma, delta, t_min, accuracy, freshness, params, r1, r2
    )
    for k, i in enumerate(todo):
        out[i] = out[i], utilities[k], float(server[k])
    return out


def select_rates(
    kind: MechanismKind,
    profiles: Sequence[ClientProfile],
    params: SystemParams,
    box: RateBox,
    rng_seed: int,
) -> RewardRates:
    """Pick reward rates inside the box according to the given policy.

    This is `_pick` on one population, with its error raised: Random draws
    one pair of rates per seed (one draw per experiment repetition), MAX
    takes the upper box corner and IFEDCROWD returns the rates of
    `compute_equilibrium`, `_equilibria` on a stack of one.  Deterministic
    given (kind, inputs, seed).
    """
    rates = _solved(_pick(kind, [box], [rng_seed])[0])
    return rates or compute_equilibrium(profiles, params, box).rates
