"""Reconciliation replays and report builders."""

from __future__ import annotations

import math
import statistics
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import report_text

from incentiveledger import (
    DEFAULT_LICENSE,
    AgentProfile,
    ChainState,
    DatasetContract,
    PopulationConfig,
    Registry,
    Scenario,
    SimConfig,
    SimResult,
    TokenStore,
    quote_payment,
    request_access,
    run_simulation,
    summarize,
)
from incentiveledger.agents import PROVIDER, REQUESTER
from incentiveledger.chain import (
    ADD_DATA_REQUESTER,
    Address,
    CHECK_USER,
    DEPLOYMENT,
    GWEI,
    MINER_ADDRESS,
    PriceModel,
    RENEW_TOKEN,
    TxReceipt,
    UPDATE_DATA,
)
from incentiveledger.engine import PUBLISH, RENEW, REQUEST, UPDATE, Publication, Records
from incentiveledger.errors import ReconciliationFailureError
from incentiveledger.reporting import (
    ACCRUING_FUNCTIONS,
    REPORT_NAMES,
    TOP_REQUESTERS,
    RunTotals,
    _median,
    _quartiles,
    actions_csv,
    break_even_csv,
    config_text,
    cost_distribution_csv,
    cost_overlay_csv,
    periods_csv,
    profit_series_csv,
    reconcile,
    replay,
    requester_costs_csv,
    summary_csv,
    summary_text,
    top_requesters_csv,
    write_population,
    write_report,
    write_run_reports,
)


@pytest.fixture(scope="module")
def run():
    return run_simulation(SimConfig(
        action_ticker=80,
        population=PopulationConfig(n_accounts=60),
        seed=11,
    ))


def empty_result() -> SimResult:
    chain = ChainState()
    authority = chain.create_named_account("authority", 10**18)
    cfg = SimConfig(population=PopulationConfig(n_accounts=2))
    return SimResult(
        config=cfg, records=Records(), series=[],
        chain=chain, registry=Registry(chain, authority),
        token_store=TokenStore(), population=[], datasets=[],
    )


def test_requester_calls_never_accrue():
    assert ADD_DATA_REQUESTER not in ACCRUING_FUNCTIONS
    assert RENEW_TOKEN not in ACCRUING_FUNCTIONS
    assert DEPLOYMENT in ACCRUING_FUNCTIONS and UPDATE_DATA in ACCRUING_FUNCTIONS


@pytest.mark.parametrize("scenario", list(Scenario))
def test_real_runs_reconcile(scenario):
    result = run_simulation(SimConfig(
        scenario=scenario, action_ticker=50,
        population=PopulationConfig(n_accounts=40), seed=2,
    ))
    reconcile(result)  # must not raise
    replayed = replay(result.chain)[1]
    for c in result.datasets:
        assert replayed[c.contract_address] == (
            c.current_cost_wei, c.provider_cost_wei, c.provider_earnings_wei,
        )


def test_reconcile_catches_conjured_wei(run):
    victim = run.population[5].address
    run.chain.accounts[victim] += 1
    try:
        with pytest.raises(ReconciliationFailureError, match="minted"):
            reconcile(run)
    finally:
        run.chain.accounts[victim] -= 1
    reconcile(run)


def test_reconcile_names_first_diverging_balance(run):
    # Moving 1 wei between two agents keeps conservation, so the balance
    # replay catches it, at the first account in creation order.
    source, sink = run.population[5].address, run.population[6].address
    held = run.chain.accounts[source]
    run.chain.accounts[source] -= 1
    run.chain.accounts[sink] += 1
    try:
        with pytest.raises(ReconciliationFailureError) as excinfo:
            reconcile(run)
    finally:
        run.chain.accounts[source] += 1
        run.chain.accounts[sink] -= 1
    assert str(excinfo.value) == f"replayed balance of {source} is {held} wei, it holds {held - 1}"
    reconcile(run)


def receipt_slots(result: SimResult) -> range:
    """The positions in result.records.flat that hold each action's receipt, in action order."""
    return range(1, len(result.records.flat), 3)


def test_reconcile_catches_tampered_payment(run):
    # The first paid record points at a copy of its receipt that pays 1 wei more.
    flat = run.records.flat
    slot = next(i for i in receipt_slots(run) if flat[i].value_wei > 0)
    paid = flat[slot]
    flat[slot] = replace(paid, value_wei=paid.value_wei + 1)
    try:
        with pytest.raises(ReconciliationFailureError, match="paid by requesters"):
            reconcile(run)
    finally:
        flat[slot] = paid
    reconcile(run)


def test_reconcile_catches_a_tampered_action_fee(run):
    # The last record points at a copy of its receipt with 1 wei more gas fee. Payments and
    # pools still agree; only the agents' outflow gives it away.
    flat = run.records.flat
    action = flat[-2]
    flat[-2] = replace(action, gas_fee_wei=action.gas_fee_wei + 1)
    try:
        with pytest.raises(ReconciliationFailureError, match="agents spent"):
            reconcile(run)
    finally:
        flat[-2] = action
    reconcile(run)


@pytest.mark.parametrize("settled", [True, False], ids=["settled", "recorded"])
def test_reconcile_catches_an_agent_receipt_outside_every_action(market, settled):
    """A record points at its receipt, so it cannot misstate it; that no agent receipt lies outside
    every action is the half of the agents-spent check that stays a check."""
    if settled:
        result = run_simulation(SimConfig(action_ticker=40, population=PopulationConfig(n_accounts=30), seed=4))
        agent = result.population[-1].address
    else:
        result, _ = recorded_run(market)
        agent = market.users[0]
    reconcile(result)
    result.chain.execute(agent, CHECK_USER)  # a metered call that no record points at
    with pytest.raises(ReconciliationFailureError, match="agents spent"):
        reconcile(result)


def test_reconcile_catches_tampered_pool(run):
    contract = run.datasets[0]
    contract.current_cost_wei += 1
    try:
        with pytest.raises(ReconciliationFailureError, match="ledgers"):
            reconcile(run)
    finally:
        contract.current_cost_wei -= 1


def test_reconcile_catches_tampered_period_totals(run):
    last = run.series[-1]
    last.provider_cost_wei += 1
    try:
        with pytest.raises(ReconciliationFailureError, match="last period's totals"):
            reconcile(run)
    finally:
        last.provider_cost_wei -= 1


def test_reconcile_catches_tampered_action_trail(run):
    flat = run.records.flat
    pool = max(i for i in receipt_slots(run) if flat[i].contract == run.datasets[0].contract_address) + 1
    flat[pool] += 1
    try:
        with pytest.raises(ReconciliationFailureError, match="last action"):
            reconcile(run)
    finally:
        flat[pool] -= 1
    reconcile(run)


def ledgers(c: DatasetContract) -> tuple[int, int, int]:
    return (c.current_cost_wei, c.provider_cost_wei, c.provider_earnings_wei)


def publish(market, margin: int = 100) -> DatasetContract:
    return DatasetContract.deploy_and_publish(
        market.chain, market.registry, market.provider, link="data://unit/books",
        required_license=DEFAULT_LICENSE, scenario=Scenario.PROFIT, profit_margin_pct=margin,
    )


def hand_built(market, datasets: list[DatasetContract]) -> SimResult:
    """A result around the market's chain with no action records and no agents."""
    return SimResult(
        config=SimConfig(population=PopulationConfig(n_accounts=2)), records=Records(), series=[],
        chain=market.chain, registry=market.registry,
        token_store=TokenStore(), population=[], datasets=datasets,
    )


def test_replay_prices_each_accrual_at_the_margin_it_was_booked_at(market):
    c = publish(market, margin=200)
    c.set_profit_margin(market.provider, 150)
    c.update_data(market.provider)
    assert c.current_cost_wei == 991_833_156_000_000_000
    assert replay(market.chain)[1][c.contract_address] == ledgers(c)
    reconcile(hand_built(market, [c]))


def test_a_provider_with_two_datasets_reconciles(market):
    first, second = publish(market), publish(market, margin=300)
    first.update_data(market.provider)
    second.set_profit_margin(market.provider, 250)
    second.update_data(market.provider)
    result = hand_built(market, [first, second])
    reconcile(result)
    second.current_cost_wei += 1
    with pytest.raises(ReconciliationFailureError, match=f"{second.contract_address} ledgers"):
        reconcile(result)
    second.current_cost_wei -= 1
    # A payment drains only the pool of the contract it names.
    request_access(market.users[0], second, quote_payment(second, "access"))
    replayed = replay(market.chain)[1]
    assert [replayed[c.contract_address] for c in (first, second)] == [ledgers(first), ledgers(second)]


def recorded_run(market) -> tuple[SimResult, DatasetContract]:
    """A hand-built result whose provider publishes and first user requests, each action
    recorded as settle records it, with both as its agents."""
    chain, provider, user = market.chain, market.provider, market.users[0]
    result = hand_built(market, [])
    result.population = [AgentProfile(provider, PROVIDER, 0.5, 0.5, 0.75),
                         AgentProfile(user, REQUESTER, 0.5, 0.5, 0.75)]
    c = publish(market)
    result.datasets.append(c)
    fee = c.provider_cost_wei
    result.records.flat += PUBLISH, Publication(chain.period, provider, c.contract_address, fee,
                                                chain.price.wei_to_usd(fee)), c.current_cost_wei
    request_access(user, c, quote_payment(c, "access"))
    result.records.flat += REQUEST, chain.receipts[-1], c.current_cost_wei
    return result, c


@pytest.mark.parametrize("field", ["current_cost_wei", "provider_cost_wei", "provider_earnings_wei"])
def test_a_destroyed_contract_replays_to_zeroed_ledgers(market, field):
    """The records of a destroyed contract's actions still reconcile: its earnings count as paid,
    its last recorded pool is gone, and its payout to the provider flows back to an agent."""
    result, c = recorded_run(market)
    c.update_data(market.provider)
    result.records.flat += UPDATE, market.chain.receipts[-1], c.current_cost_wei
    c.destroy(market.provider)
    assert market.chain.receipts[-1].value_wei == result.records.flat[4].value_wei > 0  # the request's payment
    assert replay(market.chain)[1][c.contract_address] == (0, 0, 0)
    reconcile(result)
    setattr(c, field, 1)
    with pytest.raises(ReconciliationFailureError, match=f"{c.contract_address} ledgers"):
        reconcile(result)


def test_a_withdrawal_flows_back_to_its_agent(market):
    result, c = recorded_run(market)
    c.withdraw(market.provider)
    assert market.chain.receipts[-1].value_wei == result.records.flat[4].value_wei > 0  # the request's payment
    reconcile(result)
    market.chain.transfer(market.authority, market.provider, 1, "gift")  # an inflow no payout explains
    with pytest.raises(ReconciliationFailureError, match="agents spent"):
        reconcile(result)


def test_balance_replay_detects_negative_dips():
    chain = ChainState()
    broke = chain.create_named_account("broke", 5)
    chain.receipts.append(TxReceipt(
        period=0, caller=broke, function="updateData",
        gas_used=1, gas_fee_wei=6, value_wei=0, recipient=None, usd_cost=0.0,
    ))
    with pytest.raises(ReconciliationFailureError, match="^receipt 0 drives broke to -1 wei$"):
        replay(chain)


def test_a_dip_names_the_position_of_a_repeated_receipt():
    # A batch logs one receipt object at consecutive positions; the replay walks every position,
    # so the third call of a batch that the payer can fund only twice is the one named.
    chain = ChainState()
    payer = chain.create_named_account("payer", 12)
    receipt = TxReceipt(period=0, caller=payer, function="updateData",
                        gas_used=1, gas_fee_wei=6, value_wei=0, recipient=None, usd_cost=0.0)
    chain.receipts += [receipt] * 3
    with pytest.raises(ReconciliationFailureError, match="^receipt 2 drives payer to -6 wei$"):
        replay(chain)


def test_summary_counts_and_frequencies_add_up(run):
    summary = summarize(run)
    assert summary.actions == len(run.records) == run.config.action_ticker
    assert summary.publishes + summary.updates + summary.requests + summary.renewals == summary.actions
    assert summary.periods == len(run.series)
    assert summary.freq_update == pytest.approx(summary.updates / summary.periods)
    assert summary.profit_wei == summary.provider_earnings_wei - summary.provider_cost_wei
    assert summary.total_payment_wei == sum(r.value_wei for _, r, _ in run.records)
    assert summary.miner_take_wei == run.chain.balance(MINER_ADDRESS)
    usd = [u for _, u in summary.top_requesters]
    assert usd == sorted(usd, reverse=True)
    assert len(summary.top_requesters) <= 3


def test_summary_of_an_empty_run_is_all_zero():
    summary = summarize(empty_result())
    assert summary.actions == 0 and summary.periods == 0
    assert summary.freq_publish == summary.freq_renew == 0.0
    assert summary.break_even_period is None
    assert summary.top_requesters == ()
    assert report_text(profit_series_csv(empty_result())) == "period,scenario,profitWei,profitUsd\n"


def action_fields(result: SimResult) -> list[tuple]:
    """Each action read through its record, as its actions.csv row but the index."""
    return [(r.period, kind, r.caller, r.contract, r.gas_fee_wei, r.value_wei, r.usd_cost, pool)
            for kind, r, pool in result.records]


def test_builders_are_pure(run):
    before = action_fields(run)
    first = report_text(actions_csv(run))
    assert report_text(actions_csv(run)) == first
    assert report_text(periods_csv(run)) == report_text(periods_csv(run))
    assert action_fields(run) == before


def test_actions_csv_mirrors_records(run):
    lines = report_text(actions_csv(run)).splitlines()
    assert lines[0] == "index,period,kind,actor,dataset,gasFeeWei,paymentWei,usdTotal,currentCostAfterWei"
    assert len(lines) == len(run.records) + 1
    kind, first, _ = next(iter(run.records))
    assert lines[1].split(",")[:4] == [
        "0", str(first.period), kind, first.caller,
    ]
    # Each row is numbered by its record's position.
    assert [line.split(",")[0] for line in lines[1:]] == [str(index) for index in range(len(run.records))]


def test_profit_series_has_one_row_per_period(run):
    lines = report_text(profit_series_csv(run)).splitlines()
    assert lines[0] == "period,scenario,profitWei,profitUsd"
    assert len(lines) == len(run.series) + 1
    assert all(line.split(",")[1] == str(run.config.scenario.value) for line in lines[1:])


def test_cost_overlay_interleaves_actions_and_period_costs(run):
    lines = report_text(cost_overlay_csv(run)).splitlines()
    assert lines[0] == "rowType,period,kind,dataset,usdTotal,currentCostWei,currentCostUsd"
    action_rows = [l for l in lines[1:] if l.startswith("action,")]
    cost_rows = [l for l in lines[1:] if l.startswith("cost,")]
    assert len(action_rows) == len(run.records)
    assert len(cost_rows) == len(run.series)
    # Within the trajectory, an update raises the acted-on pool: find one
    # update row and compare with that dataset's previous action row.
    pool_by_dataset: dict[str, int] = {}
    checked = False
    for row in action_rows:
        _, _, kind, dataset, _, pool_wei, _ = row.split(",")
        pool = int(pool_wei)
        if kind == "update" and dataset in pool_by_dataset:
            assert pool > pool_by_dataset[dataset]
            checked = True
        if kind == "request" and dataset in pool_by_dataset and run.config.scenario is not Scenario.NO_COMPENSATION:
            assert pool < pool_by_dataset[dataset]
        pool_by_dataset[dataset] = pool
    assert checked


def test_requester_costs_split_gas_from_payments(run):
    lines = report_text(requester_costs_csv(run, RunTotals(run))).splitlines()
    assert lines[0] == "address,kind,actions,gasFeeWei,paymentWei,gasFeeUsd,paymentUsd,totalUsd"
    gas = payment = actions = 0
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] in ("request", "renew")
        actions += int(fields[2])
        gas += int(fields[3])
        payment += int(fields[4])
    requester_records = [r for kind, r, _ in run.records if kind in (REQUEST, RENEW)]
    assert actions == len(requester_records)
    assert gas == sum(r.gas_fee_wei for r in requester_records)
    assert payment == sum(r.value_wei for r in requester_records)


def test_top_requesters_lists_provider_rows_first(run):
    lines = report_text(top_requesters_csv(run, RunTotals(run))).splitlines()
    assert lines[0] == "role,address,actions,totalWei,totalUsd"
    roles = [line.split(",")[0] for line in lines[1:]]
    n_providers = len(run.datasets)
    assert roles[:n_providers] == ["provider"] * n_providers
    assert set(roles[n_providers:]) == {"requester"}
    assert len(roles[n_providers:]) <= 3
    totals = [int(line.split(",")[3]) for line in lines[1 + n_providers:]]
    assert totals == sorted(totals, reverse=True)
    provider_total = int(lines[1].split(",")[3])
    assert provider_total == run.datasets[0].provider_cost_wei


def test_requester_ranking_breaks_spend_ties_by_lower_address():
    # Scenario 1 charges gas only, so acct-0001 and acct-0003, with one
    # request and one renewal each, spend exactly the same.
    result = run_simulation(SimConfig(
        scenario=Scenario.NO_COMPENSATION, action_ticker=8,
        population=PopulationConfig(n_accounts=30), seed=0,
    ))
    ranked = [
        ("acct-0001", 37_460_016_000_000_000),
        ("acct-0003", 37_460_016_000_000_000),
        ("acct-0002", 34_204_824_000_000_000),
    ]
    rows = [line.split(",") for line in report_text(top_requesters_csv(result, RunTotals(result))).splitlines()]
    assert [(row[1], int(row[3])) for row in rows if row[0] == "requester"] == ranked
    assert [addr for addr, _ in summarize(result).top_requesters] == [addr for addr, _ in ranked]


def requester_reports_from_records(result: SimResult) -> tuple[list[str], list[str]]:
    """requester_costs.csv's rows and top_requesters.csv's requester rows, summed straight from the records
    per (requester, kind) and ranked over every requester by spend, then address."""
    price, per_kind, spend = result.chain.price, {}, {}
    for kind, r, _ in result.records:
        if kind in (REQUEST, RENEW):
            n, fees, paid = per_kind.get((r.caller, kind), (0, 0, 0))
            per_kind[r.caller, kind] = (n + 1, fees + r.gas_fee_wei, paid + r.value_wei)
            n, total = spend.get(r.caller, (0, 0))
            spend[r.caller] = (n + 1, total + r.gas_fee_wei + r.value_wei)
    costs = [f"{address},{kind},{n},{fees},{paid},{price.wei_to_usd(fees):.2f},{price.wei_to_usd(paid):.2f},"
             f"{price.wei_to_usd(fees + paid):.2f}" for (address, kind), (n, fees, paid) in sorted(per_kind.items())]
    ranked = sorted(spend.items(), key=lambda item: (-item[1][1], item[0]))[:TOP_REQUESTERS]
    top = [f"{REQUESTER},{address},{n},{total},{price.wei_to_usd(total):.2f}" for address, (n, total) in ranked]
    return costs, top


@pytest.mark.parametrize("settings", [
    dict(action_ticker=80, population=PopulationConfig(n_accounts=60), seed=11),
    dict(scenario=Scenario.NO_COMPENSATION, action_ticker=8, population=PopulationConfig(n_accounts=30), seed=0),
    dict(scenario=Scenario.PROFIT, action_ticker=300, population=PopulationConfig(n_accounts=200, max_providers=3)),
], ids=["default", "tie", "profit"])
def test_requester_reports_match_the_records(settings):
    """One row per requester in RunTotals prints what a (requester, kind) sum of the records prints,
    for a requester that only requested as for one that also renewed, and ranks spend ties by address."""
    result = run_simulation(SimConfig(**settings))
    totals = RunTotals(result)
    costs, top = requester_reports_from_records(result)
    assert report_text(requester_costs_csv(result, totals)).splitlines()[1:] == costs
    assert [line for line in report_text(top_requesters_csv(result, totals)).splitlines()
            if line.startswith(REQUESTER)] == top
    kinds_of = {}
    for address, kind, *_ in (line.split(",") for line in costs):
        kinds_of.setdefault(address, set()).add(kind)
    assert {"request"} in kinds_of.values() and {"request", "renew"} in kinds_of.values()
    assert summarize(result, totals).distinct_requesters == sum(1 for row in totals.requesters.values() if row[0])


def test_only_the_named_requesters_are_ranked():
    seen = set()
    for actions in range(1, 9):
        result = run_simulation(SimConfig(action_ticker=actions, population=PopulationConfig(n_accounts=30), seed=0))
        requesters = {r.caller for kind, r, _ in result.records if kind in (REQUEST, RENEW)}
        assert len(RunTotals(result).ranked) == min(TOP_REQUESTERS, len(requesters))
        seen.add(len(requesters))
    assert {0, 1, 2, 4} <= seen, seen
    assert RunTotals(empty_result()).ranked == []


def test_run_totals_hold_at_most_400_bytes_per_requester():
    """A requester's six counters share one row; a row per (requester, kind) pair, with every requester
    ranked, cost 526 B per requester of this run, and one row with the top three ranked costs 343 B."""
    result = run_simulation(SimConfig(action_ticker=2_000, seed=0))
    requesters = {r.caller for kind, r, _ in result.records if kind in (REQUEST, RENEW)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        totals = RunTotals(result)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 400 * len(requesters), held / len(requesters)
    assert len(totals.requesters) == len(requesters) > 100


def test_cost_distribution_quartiles_are_ordered(run):
    lines = report_text(cost_distribution_csv(RunTotals(run))).splitlines()
    assert lines[0] == "kind,count,minUsd,q1Usd,medianUsd,q3Usd,maxUsd"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == sorted(kinds)
    total = 0
    for line in lines[1:]:
        fields = line.split(",")
        total += int(fields[1])
        cuts = [float(x) for x in fields[2:]]
        assert cuts == sorted(cuts)
    assert total == len(run.records)


def test_summary_texts_agree_with_summary(run):
    summary = summarize(run)
    text = report_text(summary_text(run, summary))
    assert f"seed {summary.seed}" in text
    assert f"{summary.actions} actions over {summary.periods} periods" in text
    csv_lines = report_text(summary_csv(summary)).splitlines()
    assert len(csv_lines) == 2
    header, row = (line.split(",") for line in csv_lines)
    fields = dict(zip(header, row))
    assert fields["actions"] == str(summary.actions)
    assert fields["breakEvenPeriod"] == ("" if summary.break_even_period is None else str(summary.break_even_period))
    assert fields["freqRequest"] == f"{summary.freq_request:.4f}"


def test_break_even_csv_prints_the_exact_median(run):
    # The median of two periods ends in .5 at most, however large they are.
    cfg, summary = run.config, summarize(run)

    def cell(*periods):
        return cfg, [replace(summary, break_even_period=period) for period in periods]

    lines = report_text(break_even_csv([cell(100000, 100001), cell(37), cell(37, 38), cell(36, 38), cell(None)]))
    assert [line.rsplit(",", 1)[1] for line in lines.splitlines()[1:]] == ["100000.5", "37", "37.5", "37", ""]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(FINITE, min_size=2, max_size=60))
@example([-1e308, 1e308])  # the weighted terms overflow to -inf, nan and inf, as in the standard library
def test_quartiles_repeat_the_standard_library(values):
    # cost_distribution.csv's bytes rest on every cut being the same float, so compare reprs:
    # they tell 0.0 from -0.0, and nan (from overflowing terms) equals itself.
    ours = _quartiles(sorted(values))
    assert list(map(repr, ours)) == list(map(repr, statistics.quantiles(values, n=4, method="inclusive")))


@given(st.lists(FINITE, min_size=2, max_size=60)
       | st.lists(st.integers(-2**63, 2**63) | st.just(math.inf), min_size=2, max_size=60))
@example([0.0, 1e308, 1e308])  # the mean of the last two overflows to inf, as in the standard library
def test_median_repeats_the_standard_library(values):
    # break_even.csv takes the median of periods and inf; an odd count returns a member, an even one a mean.
    for sample in (values, values[1:]):  # one odd count, one even
        assert repr(_median(sample)) == repr(statistics.median(sample))


def test_config_text_uses_flag_names(run):
    text = report_text(config_text(run))
    for key in ("scenario=", "actions=", "access-fraction=", "profit-margin=",
                "gas-price-gwei=", "eth-usd=", "seed="):
        assert any(line.startswith(key) for line in text.splitlines())


def test_write_run_reports_emits_the_full_set(run, tmp_path):
    summary = write_run_reports(run, tmp_path / "run-11")
    assert summary == summarize(run)
    assert sorted(p.name for p in (tmp_path / "run-11").iterdir()) == sorted(REPORT_NAMES)
    write_population(run.population, tmp_path / "run-11")
    write_report(tmp_path / "run-11" / "registry.csv", run.registry.snapshot_csv())
    names = sorted(p.name for p in (tmp_path / "run-11").iterdir())
    assert names == sorted([
        "actions.csv", "periods.csv", "contracts.csv",
        "requester_costs.csv", "top_requesters.csv",
        "cost_distribution.csv", "transactions.csv", "tokens.csv",
        "population.csv", "registry.csv", "summary.txt", "summary.csv",
        "config.txt",
    ])
    for name in names:
        raw = (tmp_path / "run-11" / name).read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw


def test_write_report_refuses_a_bare_string(tmp_path):
    # writelines would write a str one character at a time, so a caller that
    # joined its blocks gets an error instead of a slow, correct-looking file.
    with pytest.raises(TypeError, match="list of text blocks"):
        write_report(tmp_path / "joined.csv", "a,b\n1,2\n")
    assert not (tmp_path / "joined.csv").exists()


def test_writing_reports_holds_about_one_copy_of_the_largest(tmp_path):
    # Measured over the settled run: a report held as its rows, its joined
    # text and its encoded bytes at once peaked at 2.91 times the largest file.
    result = run_simulation(SimConfig(
        action_ticker=5_000,
        population=PopulationConfig(n_accounts=5_000, max_providers=20, provider_prob_max=0.5),
    ))
    tracemalloc.start()
    try:
        settled = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_run_reports(result, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - settled
    finally:
        tracemalloc.stop()
    largest = max(p.stat().st_size for p in tmp_path.iterdir())
    assert peak < 2.3 * largest, (peak, largest)


def test_writing_one_report_holds_about_two_blocks(tmp_path):
    # A block in memory is its row strings, then its joined text; its encoded bytes go to the
    # file. Each report is written as its blocks are built, so no report is ever held whole.
    result = run_simulation(SimConfig(
        action_ticker=20_000, price=PriceModel(gas_price_wei=GWEI),
        population=PopulationConfig(n_accounts=20_000, max_providers=2),
    ))
    for build in (lambda: actions_csv(result), result.chain.log_csv):
        blocks = list(build())
        block = max(sum(map(sys.getsizeof, text.split("\n"))) + sys.getsizeof(text) for text in blocks[1:])
        assert sum(map(sys.getsizeof, blocks)) > 2 * block  # held whole, the report alone would break the bound
        del blocks
        tracemalloc.start()
        try:
            settled = tracemalloc.get_traced_memory()[0]
            write_report(tmp_path / "report.csv", build())
            peak = tracemalloc.get_traced_memory()[1] - settled
        finally:
            tracemalloc.stop()
        assert peak < 2 * block, (peak, block)


def test_no_compensation_reports_zero_payment_columns():
    result = run_simulation(SimConfig(
        scenario=Scenario.NO_COMPENSATION, action_ticker=40,
        population=PopulationConfig(n_accounts=30), seed=6,
    ))
    for line in report_text(requester_costs_csv(result, RunTotals(result))).splitlines()[1:]:
        assert line.split(",")[4] == "0"
    summary = summarize(result)
    assert summary.provider_earnings_wei == 0 and summary.total_payment_wei == 0
