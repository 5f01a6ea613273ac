"""Rate-selection policies compared in the experiments: equilibrium, Random, MAX."""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

import numpy as np

from .equilibrium import compute_equilibrium
from .errors import ConfigError
from .game_core import ClientProfile, RateBox, RewardRates, SystemParams


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


def _check_box(box: RateBox) -> None:
    """Raise ConfigError unless both rate intervals of the box are non-empty."""
    if not (box.r1_lo < box.r1_hi and box.r2_lo < box.r2_hi):
        raise ConfigError(
            f"infeasible rate box: r1 [{box.r1_lo}, {box.r1_hi}], "
            f"r2 [{box.r2_lo}, {box.r2_hi}]"
        )


def select_rates(
    kind: MechanismKind,
    profiles: Sequence[ClientProfile],
    params: SystemParams,
    box: RateBox,
    rng_seed: int,
) -> RewardRates:
    """Pick reward rates inside the box according to the given policy.

    Random draws each rate uniformly over its box interval from a generator
    seeded by rng_seed (one draw per experiment repetition); MAX takes the
    upper box corner, the largest rates that keep responses meaningful;
    IFEDCROWD returns the solved equilibrium rates.  Deterministic given
    (kind, inputs, seed).
    """
    _check_box(box)
    if kind is MechanismKind.MAX:
        return RewardRates(r1=box.r1_hi, r2=box.r2_hi)
    if kind is MechanismKind.RANDOM:
        rng = np.random.default_rng(rng_seed)
        r1 = float(rng.uniform(box.r1_lo, box.r1_hi))
        r2 = float(rng.uniform(box.r2_lo, box.r2_hi))
        return RewardRates(r1=r1, r2=r2)
    return compute_equilibrium(profiles, params, box).rates
