"""Reconciliation and report generation for finished runs.

Reconciliation re-derives balances and cost ledgers in one replay of the
transaction log alone, with none of the contract code involved, and refuses
to write reports when the replay and the run disagree. Builders are pure
functions of the run result and of RunTotals, one aggregation pass over its
action records.
Every output is byte-deterministic: LF line endings, no timestamps, fixed
column orders, USD at two decimals with wei columns authoritative. One
renderer, chain.csv_text, yields every report's lines in blocks, and one
writer, write_report, writes each block as it is built, so no report is held
whole; the sweep's tables are built here.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .agents import PROVIDER, REQUESTER, population_csv
from .chain import (
    DEPLOYMENT,
    DESTROY,
    MINER_ADDRESS,
    PUBLISH_DATA,
    SET_LICENSE,
    SET_MULTIS,
    SET_PRICE,
    SET_PROFIT_MARGIN,
    SET_REGISTRY_ADDRESS,
    UPDATE_DATA,
    Address,
    ChainState,
    csv_text,
)
from .engine import (PUBLISH, RENEW, REQUEST, UPDATE, PeriodStats, SimConfig, SimResult, break_even_period,
                     period_books, settings)
from .errors import ReconciliationFailureError

TOP_REQUESTERS = 3  # how many of the most-spending requesters summaries name
REQUESTER_COLUMNS = {REQUEST: 0, RENEW: 3}  # where a kind's actions, gas fees and payments start in a requester's row

# Owner calls whose fees feed the requester-compensation pool.
ACCRUING_FUNCTIONS = frozenset(
    {
        DEPLOYMENT,
        PUBLISH_DATA,
        UPDATE_DATA,
        SET_LICENSE,
        SET_MULTIS,
        SET_PRICE,
        SET_PROFIT_MARGIN,
        SET_REGISTRY_ADDRESS,
    }
)


def replay(chain: ChainState) -> tuple[dict[Address, int], dict[Address, tuple[int, int, int]],
                                       int, dict[Address, int]]:
    """Recompute every balance from initial funding, (currentCost, providerCost, earnings) per contract,
    the earnings of destroyed contracts and each account's contract payouts, in one walk of the receipts.

    Also proves atomicity after the fact: no account may dip below zero at
    any point of the replay. Each receipt a dataset contract books names that
    contract. An accruing owner call adds its fee at the margin it carries,
    any other call pays the contract and drains its pool, and a contract's
    destroy receipt retires its earnings and zeroes its ledgers.
    """
    balances, ledgers, retired, payouts, mined = dict(chain.funding), {}, 0, {}, 0  # mined: the miner's take
    for index, r in enumerate(chain.receipts):
        balances[r.caller] -= r.gas_fee_wei + r.value_wei
        mined += r.gas_fee_wei
        if r.recipient is not None:
            balances[r.recipient] += r.value_wei
        if balances[r.caller] < 0:  # a paying miner holds its take so far: book it, then check again
            balances[MINER_ADDRESS], mined = balances[MINER_ADDRESS] + mined, 0
            if balances[r.caller] < 0:
                raise ReconciliationFailureError(f"receipt {index} drives {r.caller} to {balances[r.caller]} wei")
        if (contract := r.contract) is not None:
            books = ledgers.get(contract) or ledgers.setdefault(contract, [0, 0, 0])  # new at its first receipt
            if r.function in ACCRUING_FUNCTIONS:
                books[0] += r.gas_fee_wei * r.margin_pct // 100
                books[1] += r.gas_fee_wei
            else:
                pool, value = books[0], r.value_wei
                books[0] = pool - value if pool > value else 0
                books[2] += value
        elif r.caller in ledgers:  # a contract pays its balance out, by withdraw or destroy
            payouts[r.recipient] = payouts.get(r.recipient, 0) + r.value_wei
            if r.function == DESTROY:
                retired += ledgers[r.caller][2]
                ledgers[r.caller] = [0, 0, 0]
    balances[MINER_ADDRESS] += mined
    return balances, {addr: tuple(v) for addr, v in ledgers.items()}, retired, payouts


def reconcile(result: SimResult) -> None:
    """Cross-check the run against an independent replay of its own log."""
    chain = result.chain
    if not chain.conservation_holds():
        raise ReconciliationFailureError(
            f"{chain.total_wei()} wei on accounts, {sum(chain.funding.values())} minted"
        )
    replayed, replayed_ledgers, retired, payouts = replay(chain)
    if replayed != chain.accounts:
        addr = next(a for a in (*chain.accounts, *replayed) if replayed.get(a) != chain.accounts.get(a))
        raise ReconciliationFailureError(
            f"replayed balance of {addr} is {replayed.get(addr)} wei, it holds {chain.accounts.get(addr)}"
        )
    final_cc, payments, fees = {}, 0, 0  # one walk of the action records: last pool per contract, payments, fees
    for _, r, pool in result.records:
        final_cc[r.contract] = pool
        payments += r.value_wei
        fees += r.gas_fee_wei
    for c in result.datasets:
        expected = replayed_ledgers[c.contract_address]
        actual = (c.current_cost_wei, c.provider_cost_wei, c.provider_earnings_wei)
        if expected != actual:
            raise ReconciliationFailureError(
                f"{c.contract_address} ledgers {actual}, replay says {expected}"
            )
        if not c.destroyed and final_cc.get(c.contract_address, expected[0]) != expected[0]:
            raise ReconciliationFailureError(
                f"{c.contract_address} last action records pool "
                f"{final_cc[c.contract_address]}, replay says {expected[0]}"
            )
    for s in result.series[-1:]:  # the totals summarize reports: pool, cost, earnings and tokens
        held = [sum(c.current_cost_wei for c in result.datasets), sum(c.provider_cost_wei for c in result.datasets),
                sum(c.provider_earnings_wei for c in result.datasets), sum(len(c.holders) for c in result.datasets)]
        if [s.current_cost_wei, s.provider_cost_wei, s.provider_earnings_wei, s.active_requesters] != held:
            raise ReconciliationFailureError(f"the last period's totals are not the contracts' {held}")
    earnings = retired + sum(books[2] for books in replayed_ledgers.values())
    if payments != earnings:
        raise ReconciliationFailureError(
            f"{payments} wei paid by requesters, {earnings} wei booked as earnings"
        )
    # Agents spend only through the four actions and receive only contract payouts, so their outflow plus those
    # payouts is exactly what the action records say they spent: an agent receipt no record points at fails here.
    addresses = [p.address for p in result.population]
    outflow = sum(map(chain.funding.__getitem__, addresses)) - sum(map(chain.accounts.__getitem__, addresses))
    outflow += sum(payouts.get(address, 0) for address in addresses) if payouts else 0
    recorded = fees + payments
    if outflow != recorded:
        raise ReconciliationFailureError(
            f"agents spent {outflow} wei, action records say {recorded}"
        )


@dataclass(frozen=True)
class RunSummary:
    """A run's headline figures; summary.csv has a column for each field but
    top_requesters, in field order."""

    seed: int
    scenario: int
    profit_margin_pct: int
    access_fraction_pct: int
    renew_fraction_pct: int
    actions: int
    periods: int
    publishes: int
    updates: int
    requests: int
    renewals: int
    freq_publish: float
    freq_update: float
    freq_request: float
    freq_renew: float
    datasets_published: int
    distinct_requesters: int
    active_tokens_at_end: int
    provider_cost_wei: int
    provider_cost_usd: float
    provider_earnings_wei: int
    provider_earnings_usd: float
    profit_wei: int
    current_cost_wei: int
    break_even_period: int | None
    total_gas_fee_wei: int
    top_requesters: tuple[tuple[str, float], ...]  # (address, total USD), best first


class RunTotals:
    """What the report builders count, from one pass over a run's records: each kind's USD samples, each
    provider's action count, one row of six counters per requester (see REQUESTER_COLUMNS) and the
    TOP_REQUESTERS highest-spending requesters, ranked, as (address, actions, total wei spent)."""

    __slots__ = ("usd_samples", "requesters", "provider_actions", "ranked")

    def __init__(self, result: SimResult) -> None:
        self.usd_samples = samples = {}  # kind -> USD total of each action, in record order
        self.requesters = requesters = {}  # address -> [requests, gas fees, payments, renewals, gas fees, payments]
        self.provider_actions = provider_actions = {}  # publishes plus updates
        for kind, r, _ in result.records:
            samples.setdefault(kind, []).append(r.usd_cost)
            if (j := REQUESTER_COLUMNS.get(kind)) is None:
                provider_actions[r.caller] = provider_actions.get(r.caller, 0) + 1
            else:
                row = requesters.get(r.caller) or requesters.setdefault(r.caller, [0] * 6)
                row[j] += 1
                row[j + 1] += r.gas_fee_wei
                row[j + 2] += r.value_wei
        spend = ((address, row[0] + row[3], row[1] + row[2] + row[4] + row[5]) for address, row in requesters.items())
        self.ranked = heapq.nsmallest(TOP_REQUESTERS, spend, key=lambda t: (-t[2], t[0]))  # highest spend first


def summarize(result: SimResult, totals: RunTotals | None = None) -> RunSummary:
    reconcile(result)
    if totals is None:
        totals = RunTotals(result)
    price = result.chain.price
    counts = {kind: len(totals.usd_samples.get(kind, ())) for kind in (PUBLISH, UPDATE, REQUEST, RENEW)}
    periods = len(result.series)
    per_period = max(1, periods)  # an empty run still gets zero frequencies
    last = result.series[-1] if result.series else PeriodStats(0, 0, 0, 0, 0, 0, 0)  # reconcile checks these
    top = tuple((addr, price.wei_to_usd(total)) for addr, _, total in totals.ranked)
    return RunSummary(
        seed=result.config.seed,
        scenario=result.config.scenario.value,
        profit_margin_pct=result.config.resolved_margin_pct,
        access_fraction_pct=result.config.access_fraction_pct,
        renew_fraction_pct=result.config.renew_fraction_pct,
        actions=len(result.records),
        periods=periods,
        publishes=counts[PUBLISH],
        updates=counts[UPDATE],
        requests=counts[REQUEST],
        renewals=counts[RENEW],
        freq_publish=counts[PUBLISH] / per_period,
        freq_update=counts[UPDATE] / per_period,
        freq_request=counts[REQUEST] / per_period,
        freq_renew=counts[RENEW] / per_period,
        datasets_published=len(result.datasets),
        distinct_requesters=sum(1 for row in totals.requesters.values() if row[0]),
        active_tokens_at_end=sum(1 for _ in result.token_store.live_tokens()),
        provider_cost_wei=last.provider_cost_wei,
        provider_cost_usd=price.wei_to_usd(last.provider_cost_wei),
        provider_earnings_wei=last.provider_earnings_wei,
        provider_earnings_usd=price.wei_to_usd(last.provider_earnings_wei),
        profit_wei=last.profit_wei,
        current_cost_wei=last.current_cost_wei,
        break_even_period=break_even_period(result),
        total_gas_fee_wei=result.chain.balance(MINER_ADDRESS),  # every gas fee, as reconcile's balance replay proves
        top_requesters=top,
    )


def actions_csv(result: SimResult) -> Iterator[str]:
    return csv_text("index,period,kind,actor,dataset,gasFeeWei,paymentWei,usdTotal,currentCostAfterWei", (
        f"{index},{r.period},{kind},{r.caller},{r.contract},{r.gas_fee_wei},{r.value_wei},{r.usd_cost:.2f},{pool}"
        for index, (kind, r, pool) in enumerate(result.records)
    ))


def periods_csv(result: SimResult) -> Iterator[str]:
    price = result.chain.price
    header = ("period,currentCostWei,currentCostUsd,providerCostWei,providerEarningsWei,"
              "profitWei,profitUsd,activeRequesters,actions")
    return csv_text(header, (
        f"{s.period},{s.current_cost_wei},{price.wei_to_usd(s.current_cost_wei):.2f},"
        f"{s.provider_cost_wei},{s.provider_earnings_wei},"
        f"{s.profit_wei},{price.wei_to_usd(s.profit_wei):.2f},"
        f"{s.active_requesters},{s.actions_this_period}"
        for s in result.series
    ))


def contracts_csv(result: SimResult) -> Iterator[str]:
    books = period_books(result.records, [s.actions_this_period for s in result.series])
    return csv_text("period,contract,currentCostWei,providerCostWei,providerEarningsWei,activeTokens,metaVersion", (
        f"{s.period},{address},{pool},{cost},{earnings},{tokens},{version}"
        for s, rows in books for address, pool, cost, earnings, tokens, version in rows
    ))


def profit_series_csv(result: SimResult) -> Iterator[str]:
    """Per period, the scenario and profit. No command writes it: README "Report layout" rebuilds it."""
    price = result.chain.price
    scenario = result.config.scenario.value
    return csv_text("period,scenario,profitWei,profitUsd", (
        f"{s.period},{scenario},{s.profit_wei},{price.wei_to_usd(s.profit_wei):.2f}" for s in result.series
    ))


def cost_overlay_csv(result: SimResult) -> Iterator[str]:
    """Running-cost trajectory, which no command writes (README "Report layout" rebuilds it). Per period: its
    action rows, each with the acted-on contract's pool right after the action, then one cost row with the
    period-end pool summed over contracts. Updates show as upward jumps, payments as downward steps."""
    def rows():
        price = result.chain.price
        records = iter(result.records)  # in period order, as period_books reads them
        for s in result.series:
            for kind, r, pool in islice(records, s.actions_this_period):
                yield f"action,{r.period},{kind},{r.contract},{r.usd_cost:.2f},{pool},{price.wei_to_usd(pool):.2f}"
            yield f"cost,{s.period},,,,{s.current_cost_wei},{price.wei_to_usd(s.current_cost_wei):.2f}"

    return csv_text("rowType,period,kind,dataset,usdTotal,currentCostWei,currentCostUsd", rows())


def requester_costs_csv(result: SimResult, totals: RunTotals) -> Iterator[str]:
    """Base gas cost vs additional compensation payment, per requester and kind."""
    price = result.chain.price
    rows = ((address, kind, *row[j:j + 3]) for address, row in sorted(totals.requesters.items())
            for kind, j in sorted(REQUESTER_COLUMNS.items()) if row[j])  # kinds in text order
    return csv_text("address,kind,actions,gasFeeWei,paymentWei,gasFeeUsd,paymentUsd,totalUsd", (
        f"{address},{kind},{n},{fees},{paid},{price.wei_to_usd(fees):.2f},"
        f"{price.wei_to_usd(paid):.2f},{price.wei_to_usd(fees + paid):.2f}"
        for address, kind, n, fees, paid in rows
    ))


def top_requesters_csv(result: SimResult, totals: RunTotals) -> Iterator[str]:
    """The provider's lifetime cost against the TOP_REQUESTERS most-spending requesters."""
    price = result.chain.price
    provider_spend: dict[Address, int] = {}
    for c in result.datasets:
        provider_spend[c.owner] = provider_spend.get(c.owner, 0) + c.provider_cost_wei
    rows = [
        f"{PROVIDER},{addr},{totals.provider_actions.get(addr, 0)},{total},"
        f"{price.wei_to_usd(total):.2f}"
        for addr, total in sorted(provider_spend.items())
    ]
    rows += (f"{REQUESTER},{addr},{n},{total},{price.wei_to_usd(total):.2f}"
             for addr, n, total in totals.ranked)
    return csv_text("role,address,actions,totalWei,totalUsd", rows)


def _quartiles(data: list) -> list[float]:
    """statistics.quantiles(data, n=4, method="inclusive") of 2+ sorted values, step for step as CPython 3.11."""
    m = len(data) - 1
    return [(data[j] * (4 - delta) + data[j + 1] * delta) / 4 for j, delta in (divmod(i * m, 4) for i in (1, 2, 3))]


def _median(data: list):
    """statistics.median(data) of non-empty data, step for step as CPython 3.11."""
    data, i = sorted(data), len(data) // 2
    return data[i] if len(data) % 2 else (data[i - 1] + data[i]) / 2


def cost_distribution_csv(totals: RunTotals) -> Iterator[str]:
    """Per action kind: quartiles of the total USD cost of one action."""
    rows = []
    for kind in sorted(totals.usd_samples):
        values = sorted(totals.usd_samples[kind])
        cuts = [values[0], *_quartiles(values), values[-1]] if len(values) > 1 else values * 5
        rows.append(f"{kind},{len(values)}," + ",".join(f"{v:.2f}" for v in cuts))
    return csv_text("kind,count,minUsd,q1Usd,medianUsd,q3Usd,maxUsd", rows)


def summary_text(result: SimResult, summary: RunSummary) -> Iterator[str]:
    price = result.chain.price
    even = "never" if summary.break_even_period is None else f"period {summary.break_even_period}"
    top = ", ".join(f"{addr} ${usd:.2f}" for addr, usd in summary.top_requesters) or "none"
    header, *rows = [
        f"seed {summary.seed}, scenario {summary.scenario}, "
        f"margin {summary.profit_margin_pct}%, "
        f"fractions {summary.access_fraction_pct}%/{summary.renew_fraction_pct}%",
        f"{summary.actions} actions over {summary.periods} periods: "
        f"{summary.publishes} publish, {summary.updates} update, "
        f"{summary.requests} request, {summary.renewals} renew",
        f"per-period frequencies: publish {summary.freq_publish:.2f}, "
        f"update {summary.freq_update:.2f}, request {summary.freq_request:.2f}, "
        f"renew {summary.freq_renew:.2f}",
        f"{summary.datasets_published} dataset(s), {summary.distinct_requesters} distinct "
        f"requesters, {summary.active_tokens_at_end} live tokens at end",
        f"provider cost ${summary.provider_cost_usd:.2f}, "
        f"earnings ${summary.provider_earnings_usd:.2f}, "
        f"profit ${price.wei_to_usd(summary.profit_wei):.2f}",
        f"open compensation pool ${price.wei_to_usd(summary.current_cost_wei):.2f}",
        f"break even: {even}",
        f"top requesters: {top}",
        f"gas fees ${price.wei_to_usd(summary.total_gas_fee_wei):.2f} "
        f"({summary.total_gas_fee_wei} wei to the miner)",
    ]
    return csv_text(header, rows)


# Built once: camelCasing the header on every call would cost more than the row.
_SUMMARY_FIELDS = [f.name for f in fields(RunSummary) if f.name != "top_requesters"]
_SUMMARY_HEADER = ",".join(re.sub(r"_(.)", lambda m: m[1].upper(), name) for name in _SUMMARY_FIELDS)


def _summary_row(summary: RunSummary) -> str:
    """One run's row of summary.csv and sweep.csv."""
    cells = []
    for name in _SUMMARY_FIELDS:
        value = getattr(summary, name)
        if value is None:
            cells.append("")
        elif isinstance(value, float):
            cells.append(f"{value:.4f}" if name.startswith("freq_") else f"{value:.2f}")
        else:
            cells.append(str(value))
    return ",".join(cells)


def summary_csv(summary: RunSummary) -> Iterator[str]:
    return csv_text(_SUMMARY_HEADER, [_summary_row(summary)])


def sweep_csv(summaries: Iterable[RunSummary]) -> Iterator[str]:
    """summary.csv of every run of a sweep under one header, in the order given."""
    return csv_text(_SUMMARY_HEADER, map(_summary_row, summaries))


def break_even_csv(cells: Iterable[tuple[SimConfig, list[RunSummary]]]) -> Iterator[str]:
    """Per sweep cell: finished runs, those that broke even, and the median break-even period, if finite."""
    rows = []
    for cfg, summaries in cells:
        evens = [math.inf if s.break_even_period is None else s.break_even_period for s in summaries]
        median = _median(evens) if evens else math.inf
        median_text = "" if median == math.inf else str(median).removesuffix(".0")  # exact: n or n.5
        attained = sum(1 for e in evens if e != math.inf)
        rows.append(f"{cfg.scenario.value},{cfg.access_fraction_pct},{cfg.resolved_margin_pct},"
                    f"{len(evens)},{attained},{median_text}")
    return csv_text("scenario,accessFractionPct,profitMarginPct,runs,attained,medianPeriod", rows)


def config_text(result: SimResult) -> list[str]:
    """Effective settings in config-file form; feeding it back with the run's
    --gas-table, which settings do not carry, reproduces the run. One block."""
    return ["".join(f"{flag}={value}\n" for flag, value in settings(result.config).items())]


# The files of every run directory, in the order write_run_reports writes them.
REPORT_NAMES = ("requester_costs.csv", "top_requesters.csv", "cost_distribution.csv", "actions.csv", "periods.csv",
                "contracts.csv", "transactions.csv", "summary.txt", "summary.csv", "config.txt")
# Shared by runs: a direct run writes all three, a sweep the first two once per seed and registry.csv once.
SHARED_NAMES = ("population.csv", "tokens.csv", "registry.csv")


def write_report(path: Path, blocks: Iterable[str]) -> None:
    """The one report writer: each block as it is built, in order, UTF-8, and LF line endings on every platform."""
    if isinstance(blocks, str):  # writelines would write it one character at a time
        raise TypeError("write_report takes a list of text blocks, not a str")
    with path.open("w", encoding="utf-8", newline="\n") as file:
        file.writelines(blocks)


def write_run_reports(result: SimResult, out_dir: Path) -> RunSummary:
    """Reconcile the run, then write each of REPORT_NAMES under out_dir as soon as it is built."""
    totals = RunTotals(result)
    summary = summarize(result, totals=totals)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = iter(REPORT_NAMES)

    def write(blocks: Iterable[str]) -> None:
        write_report(out_dir / next(names), blocks)

    write(requester_costs_csv(result, totals))
    write(top_requesters_csv(result, totals))
    write(cost_distribution_csv(totals))
    del totals  # the larger builders below reuse its memory rather than raise the peak
    write(actions_csv(result))
    write(periods_csv(result))
    write(contracts_csv(result))
    write(result.chain.log_csv())
    write(summary_text(result, summary))
    write(summary_csv(summary))
    write(config_text(result))
    return summary


def write_seed_reports(result: SimResult, out_dir: Path) -> None:
    """population.csv and tokens.csv, which follow from the seed alone: a direct run's, or a sweep's one per seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(out_dir / "population.csv", population_csv(result.population))
    write_report(out_dir / "tokens.csv", result.token_store.table_csv())
