"""Stochastic agent population.

Draws per-account action probabilities from N(0, 0.1) and min-max
rescales them into [0, 1]; the first few accounts become data providers
with a much lower, uniformly drawn publication probability. A profile's
role is the text population.csv prints, PROVIDER or REQUESTER. A requester's
appetite for renewals decays geometrically with every renewal they make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from math import cos, log, sin, sqrt, tau
from typing import Iterator

from .chain import Address, account_addresses, csv_text
from .errors import ConfigError

PROVIDER_PROB_MIN = 0.01  # a provider's publish probability is drawn from [this, provider_prob_max]
PROVIDER, REQUESTER = "provider", "requester"  # the two roles, as reports print them


@dataclass(frozen=True)
class PopulationConfig:
    n_accounts: int = 1000
    decay: float = 0.75
    max_providers: int = 1
    provider_prob_max: float = 0.05

    def __post_init__(self) -> None:
        if type(self.n_accounts) is not int or type(self.max_providers) is not int:  # nor a bool
            raise ConfigError(f"counts must be integers, got {self.n_accounts!r} and {self.max_providers!r}")
        if self.n_accounts < 2:
            raise ConfigError("need at least two accounts")
        if self.max_providers < 1 or self.max_providers >= self.n_accounts:
            raise ConfigError("provider count must leave at least one requester")
        if not 0 < self.decay < 1:
            raise ConfigError("decay must lie strictly between 0 and 1")
        if isinstance(self.provider_prob_max, bool) or not PROVIDER_PROB_MIN <= self.provider_prob_max <= 1:
            raise ConfigError(f"provider probability max must lie in [{PROVIDER_PROB_MIN}, 1]")


@dataclass(slots=True)
class AgentProfile:
    address: Address
    role: str
    base_prob: float
    current_prob: float
    decay: float
    renewals: int = 0


def normal_samples(n: int, rng: random.Random) -> list[float]:
    """[rng.gauss(0.0, 0.1) for _ in range(n)] bit for bit, leaving rng in the same state, from Random.gauss's
    own Box-Muller arithmetic with both halves of each pair used: cosine half first, sine half second."""
    draw = rng.random
    samples = [rng.gauss(0.0, 0.1)] if n and rng.gauss_next is not None else []  # a pending sine half first
    pairs = [(draw() * tau, sqrt(-2.0 * log(1.0 - draw()))) for _ in range((n - len(samples)) // 2)]
    samples += [0.0 + f(x2pi) * g2rad * 0.1 for x2pi, g2rad in pairs for f in (cos, sin)]
    return samples + [rng.gauss(0.0, 0.1) for _ in range(n - len(samples))]  # an odd remainder: its sine pends


def generate_population(cfg: PopulationConfig, rng: random.Random) -> list[AgentProfile]:
    """Create one profile per account, providers first, drawing from rng.

    Draw order is fixed for reproducibility: all normal samples first, then
    one uniform redraw per provider slot.
    """
    samples = normal_samples(cfg.n_accounts, rng)
    lo, hi = min(samples), max(samples)
    probs = [0.5] * len(samples) if hi == lo else [(x - lo) / (hi - lo) for x in samples]
    addresses, k, decay, uniform = account_addresses(cfg.n_accounts), cfg.max_providers, cfg.decay, rng.uniform
    profiles = [AgentProfile(address, PROVIDER, prob := uniform(PROVIDER_PROB_MIN, cfg.provider_prob_max), prob, decay)
                for address in addresses[:k]]
    profiles += [AgentProfile(address, REQUESTER, prob, prob, decay)
                 for address, prob in islice(zip(addresses, probs), k, None)]
    return profiles


def decay_renewal_prob(profile: AgentProfile) -> None:
    """One more renewal happened; damp the appetite for the next one.

    Near the bottom of the float range the power law can round back up to
    the previous value (5e-324 * 0.75 == 5e-324); such a result flushes to
    0.0 so that the probability strictly decreases until it is zero.
    """
    profile.renewals += 1
    prob = profile.base_prob * profile.decay**profile.renewals
    profile.current_prob = prob if prob < profile.current_prob else 0.0


def population_csv(profiles: list[AgentProfile]) -> Iterator[str]:
    return csv_text("address,role,baseProb", (f"{p.address},{p.role},{p.base_prob!r}" for p in profiles))
