"""Stochastic agent population.

Draws per-account action probabilities from a normal distribution and
rescales them into [0, 1]; the first few accounts become data providers
with a much lower, uniformly drawn publication probability. A requester's
appetite for renewals decays geometrically with every renewal they make.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .chain import Address, account_address
from .errors import BadConfigError


class Role(Enum):
    PROVIDER = "provider"
    REQUESTER = "requester"


@dataclass(frozen=True)
class PopulationConfig:
    n_accounts: int = 1000
    mu: float = 0.0
    sigma: float = 0.1
    decay: float = 0.75
    max_providers: int = 1
    provider_prob_min: float = 0.01
    provider_prob_max: float = 0.05
    normalization: str = "minmax"  # minmax | clamp | affine-sigma
    seed: int = 0

    def validate(self) -> None:
        if self.n_accounts < 2:
            raise BadConfigError("need at least two accounts")
        if self.max_providers < 1 or self.max_providers >= self.n_accounts:
            raise BadConfigError("provider count must leave at least one requester")
        if self.sigma <= 0:
            raise BadConfigError("sigma must be positive")
        if not 0 < self.decay < 1:
            raise BadConfigError("decay must lie strictly between 0 and 1")
        if not 0 <= self.provider_prob_min <= self.provider_prob_max <= 1:
            raise BadConfigError("provider probability bounds must satisfy 0 <= min <= max <= 1")
        if self.normalization not in ("minmax", "clamp", "affine-sigma"):
            raise BadConfigError(f"unknown normalization {self.normalization!r}")


@dataclass
class AgentProfile:
    address: Address
    role: Role
    base_prob: float
    current_prob: float
    decay: float
    renewals: int = 0
    last_action_period: int | None = None
    datasets_held: set[Address] = field(default_factory=set)


def _normalize(samples: list[float], mode: str, cfg: PopulationConfig) -> list[float]:
    if mode == "minmax":
        lo, hi = min(samples), max(samples)
        if hi == lo:
            return [0.5] * len(samples)
        return [(x - lo) / (hi - lo) for x in samples]
    if mode == "clamp":
        return [min(1.0, max(0.0, 0.5 + x - cfg.mu)) for x in samples]
    # affine-sigma: place mu at 0.5 and mu +- 3 sigma at the interval edges
    return [min(1.0, max(0.0, 0.5 + (x - cfg.mu) / (6 * cfg.sigma))) for x in samples]


def generate_population(cfg: PopulationConfig, rng: random.Random | None = None) -> list[AgentProfile]:
    """Create one profile per account, providers first.

    Draw order is fixed for reproducibility: all normal samples first, then
    one uniform redraw per provider slot.
    """
    cfg.validate()
    if rng is None:
        rng = random.Random(cfg.seed)
    samples = [rng.gauss(cfg.mu, cfg.sigma) for _ in range(cfg.n_accounts)]
    probs = _normalize(samples, cfg.normalization, cfg)
    profiles = []
    for i in range(cfg.n_accounts):
        if i < cfg.max_providers:
            role = Role.PROVIDER
            prob = rng.uniform(cfg.provider_prob_min, cfg.provider_prob_max)
        else:
            role = Role.REQUESTER
            prob = probs[i]
        profiles.append(
            AgentProfile(
                address=account_address(i),
                role=role,
                base_prob=prob,
                current_prob=prob,
                decay=cfg.decay,
            )
        )
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


def population_csv(profiles: list[AgentProfile]) -> str:
    lines = ["address,role,baseProb"]
    for p in profiles:
        lines.append(f"{p.address.id},{p.role.value},{p.base_prob!r}")
    return "\n".join(lines) + "\n"
