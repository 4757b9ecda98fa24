"""Population generation and renewal-probability decay."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import report_text

from incentiveledger import (
    AgentProfile,
    PopulationConfig,
    decay_renewal_prob,
    generate_population,
)
from incentiveledger.agents import PROVIDER, REQUESTER, normal_samples, population_csv
from incentiveledger.chain import account_address
from incentiveledger.errors import ConfigError


def test_roles_partition_with_providers_first():
    pop = generate_population(PopulationConfig(n_accounts=50, max_providers=3), random.Random(0))
    assert [p.role for p in pop[:3]] == [PROVIDER] * 3
    assert all(p.role == REQUESTER for p in pop[3:])
    assert [p.address for p in pop] == [account_address(i) for i in range(50)]


def test_minmax_normalization_pins_extremes_to_unit_interval():
    pop = generate_population(PopulationConfig(n_accounts=200, max_providers=1), random.Random(0))
    requester_probs = [p.base_prob for p in pop if p.role == REQUESTER]
    assert min(requester_probs) == 0.0
    assert max(requester_probs) == 1.0
    assert all(0.0 <= q <= 1.0 for q in requester_probs)


def test_provider_probability_drawn_within_bounds():
    cfg = PopulationConfig(n_accounts=100, max_providers=5, provider_prob_max=0.05)
    for seed in range(10):
        pop = generate_population(cfg, random.Random(seed))
        for p in pop[:5]:
            assert 0.01 <= p.base_prob <= 0.05


def test_normal_samples_repeat_random_gauss_bit_for_bit():
    """The paired draw yields gauss's own samples, signed zeros included, and leaves the generator where
    gauss would: a pending sine half after an odd count, and a half pending at the start is used first."""
    for seed in range(4):
        for n in (*range(0, 41), 999, 1_000, 1_001):
            for primed in (False, True):
                ours, theirs = random.Random(seed), random.Random(seed)
                if primed:
                    ours.gauss(), theirs.gauss()
                expected = [theirs.gauss(0.0, 0.1) for _ in range(n)]
                assert [x.hex() for x in normal_samples(n, ours)] == [x.hex() for x in expected], (seed, n, primed)
                assert ours.getstate() == theirs.getstate(), (seed, n, primed)


def test_generation_is_deterministic_per_seed():
    cfg = PopulationConfig(n_accounts=64)
    a = generate_population(cfg, random.Random(7))
    b = generate_population(cfg, random.Random(7))
    assert [(p.address, p.role, p.base_prob) for p in a] == [
        (p.address, p.role, p.base_prob) for p in b
    ]
    c = generate_population(cfg, random.Random(8))
    assert [p.base_prob for p in a] != [p.base_prob for p in c]


@pytest.mark.parametrize("overrides", [
    {"n_accounts": 1},
    {"max_providers": 0},
    {"max_providers": 10, "n_accounts": 10},
    {"max_providers": -1},
    {"decay": 0.0},
    {"decay": 1.0},
    {"provider_prob_max": -0.1},
    {"provider_prob_max": 0.005},
    {"provider_prob_max": 1.5},
    {"max_providers": True},  # bool is an int subclass: True must not pass as one provider
    {"provider_prob_max": True},
])
def test_config_validation_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):  # on construction: no invalid config exists
        PopulationConfig(**overrides)


def test_decay_follows_power_law_exactly():
    profile = AgentProfile(
        address=account_address(1), role=REQUESTER,
        base_prob=0.5, current_prob=0.5, decay=0.75,
    )
    for n in range(1, 16):
        decay_renewal_prob(profile)
        assert profile.renewals == n
        assert profile.current_prob == pytest.approx(0.5 * 0.75**n, abs=1e-12)
    # Fifteen renewals at three-quarter decay sit in the sub-percent range.
    assert profile.current_prob == pytest.approx(0.006681730505079031, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(base=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       decay=st.floats(min_value=0.01, max_value=0.99),
       n=st.integers(min_value=1, max_value=50))
@example(base=5e-324, decay=0.75, n=1)
def test_decay_is_strictly_decreasing_while_positive(base, decay, n):
    profile = AgentProfile(
        address=account_address(0), role=REQUESTER,
        base_prob=base, current_prob=base, decay=decay,
    )
    previous = profile.current_prob
    for _ in range(n):
        decay_renewal_prob(profile)
        assert 0.0 <= profile.current_prob <= previous
        if previous > 0:
            assert profile.current_prob < previous or profile.current_prob == 0.0
        previous = profile.current_prob


def test_population_csv_lists_every_account():
    pop = generate_population(PopulationConfig(n_accounts=5, max_providers=2), random.Random(0))
    lines = report_text(population_csv(pop)).splitlines()
    assert lines[0] == "address,role,baseProb"
    assert len(lines) == 6
    assert lines[1].startswith("acct-0000,provider,")
    assert lines[3].startswith("acct-0002,requester,")
