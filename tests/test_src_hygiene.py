"""Source hygiene: every module-level import of the package is used, only
the dataset contract books its ledgers, only engine.settle books a run, the
cost replay reads the receipts alone, only the token store builds token
events, each ledger rule (liveness, the fee formula, moving value) has
one home, one renderer and one writer make every report's lines and bytes,
each configuration checks itself when it is built, one replay walks the
receipt log, every class rejects an attribute it does not declare,
importing the command line loads no process pool, only the bootstrap
changes a registry, one chain method builds each receipt complete, a
log entry's number is its position, only engine.settle forks a start, the
engine never burns, withdraws, destroys or relicenses, and action kinds and
roles are the plain strings the reports print."""

import ast
import importlib
import os
import subprocess
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path

import pytest

from incentiveledger import agents, engine
from incentiveledger.chain import TxReceipt
from incentiveledger.reporting import actions_csv

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "incentiveledger").glob("*.py")
                 if p.name != "__init__.py")


def used_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, counting those inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def named(node: ast.AST) -> set[str]:
    """Every name and attribute the node reads or writes."""
    return {part.id if isinstance(part, ast.Name) else part.attr
            for part in ast.walk(node) if isinstance(part, (ast.Name, ast.Attribute))}


def functions_of(module: str) -> dict[str, ast.FunctionDef]:
    path = next(p for p in MODULES if p.name == module)
    return {node.name: node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    blocks = [tree.body, *(node.body for node in tree.body if isinstance(node, ast.If))]
    imported = {alias.asname or alias.name.split(".")[0] for body in blocks for node in body
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                for alias in node.names}
    assert imported <= used_names(tree), sorted(imported - used_names(tree))


LEDGER_CALLS = {"accrue_cost", "apply_payment"}
LEDGER_FIELDS = {"current_cost_wei", "provider_cost_wei", "provider_earnings_wei", "meta_version"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dataset.py"], ids=lambda p: p.name)
def test_only_the_dataset_contract_books_its_ledgers(path):
    """A pool or version moves only through DatasetContract: bill, collect and update_data.

    Only the two contracts, dataset and registry, run metered calls.
    """
    calls = LEDGER_CALLS if path.name == "registry.py" else LEDGER_CALLS | {"execute"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in calls:
            found.append(f"line {node.lineno}: calls {node.func.attr}")
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr in LEDGER_FIELDS:
            found.append(f"line {node.lineno}: assigns {node.attr}")
    assert not found, found


BOOKING_CALLS = {"_publish_dataset", "update_data", "request_access", "renew_access_time", "confirm_compliance",
                 "quote_payment", "execute", "bill", "collect"}


def test_settle_is_the_one_booking_driver():
    """engine.simulate only draws: it names no booking call and reads no chain, contract
    or token store. settle is the one engine function that names a booking call."""
    functions = functions_of("engine.py")
    assert sorted(name for name, function in functions.items() if named(function) & BOOKING_CALLS) == ["settle"]
    read = named(functions["simulate"])
    assert not read & {"chain", "contract", "token_store", "TokenStore", "DatasetContract"}, read


REGISTRY_MUTATORS = {"register_new_user", "register_new_users", "new_data_provider", "update_user_license"}


def test_only_the_bootstrap_changes_the_registry():
    """A sweep writes one registry.csv, its bootstrap's, for all its runs: right only while no
    run changes its registry. So outside registry.py only engine.build_start names a registry
    mutator, as a name, an attribute or a string."""
    sites = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            text = (child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute)
                    else child.value if isinstance(child, ast.Constant) else None)
            if text in REGISTRY_MUTATORS:
                sites.add(where)
            visit(child, where)

    for path in MODULES:
        if path.name != "registry.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(sites) == ["engine.build_start"]


def test_the_cost_replay_reads_the_receipts_alone():
    """reporting.replay takes each receipt's contract and margin off the
    receipt: it names no dataset list, owner, contract margin or contract class."""
    inferred = named(functions_of("reporting.py")["replay"]) & {
        "datasets", "owner", "profit_margin_pct", "DatasetContract"}
    assert not inferred, sorted(inferred)


def test_reporting_walks_the_receipt_log_once():
    """One replay derives both the balances and the cost ledgers: reporting has one loop
    over a receipt log."""
    tree = ast.parse(next(p for p in MODULES if p.name == "reporting.py").read_text(encoding="utf-8"))
    loops = [node.iter.lineno for node in ast.walk(tree) if isinstance(node, (ast.For, ast.comprehension))
             and "receipts" in named(node.iter)]
    assert len(loops) == 1, loops


def test_every_class_rejects_an_attribute_it_does_not_declare():
    """Each class in src/ is an Enum, an exception, a frozen dataclass or a class with slots, so
    a misspelt attribute fails at the assignment instead of becoming state that nothing reads."""
    loose = []
    for path in MODULES:
        module = importlib.import_module(f"incentiveledger.{path.stem}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            params = getattr(cls, "__dataclass_params__", None)
            if not (issubclass(cls, (Enum, BaseException)) or (params and params.frozen) or "__slots__" in vars(cls)):
                loose.append(f"{path.stem}.{cls.__name__}")
    assert not loose, loose


def test_only_the_token_store_builds_token_events():
    """TokenStore.events builds every event, and only on read: the store keeps four fields
    per recorded event and per update, and an update stores no event per holder."""
    def builds(node):
        return sum(isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None))
                   == "TokenEvent" for call in ast.walk(node))

    total, builders = 0, {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += builds(tree)
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in (node for node in cls.body if isinstance(node, ast.FunctionDef) and builds(node)):
                builders[f"{path.stem}.{cls.name}.{method.name}"] = builds(method)
    assert sorted(builders) == ["tokens.TokenStore.events"]
    assert sum(builders.values()) == total



def test_one_liveness_guard_raises_destroyed_error():
    raises = [f"{path.name} line {node.lineno}" for path in MODULES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Raise) and node.exc is not None and "DestroyedError" in named(node.exc)]
    assert len(raises) == 1, raises


def test_the_dataset_contract_accrues_the_receipt_fee():
    """PriceModel.fee_wei is the one place gas meets the gas price."""
    path = next(p for p in MODULES if p.name == "dataset.py")
    assert "gas_price_wei" not in named(ast.parse(path.read_text(encoding="utf-8")))


def test_one_chain_method_moves_balances():
    """Outside account creation one ChainState method assigns a balance, and both
    execute and transfer call it: neither does balance arithmetic of its own."""
    path = next(p for p in MODULES if p.name == "chain.py")
    chain = next(node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ClassDef) and node.name == "ChainState")
    methods = {node.name: node for node in chain.body if isinstance(node, ast.FunctionDef)}
    movers = sorted(name for name, method in methods.items() if name != "create_named_account" and any(
        isinstance(part, ast.Subscript) and isinstance(part.ctx, ast.Store)
        and isinstance(part.value, ast.Attribute) and part.value.attr == "accounts" for part in ast.walk(method)))
    assert len(movers) == 1, movers
    for caller in ("execute", "transfer"):
        assert movers[0] in named(methods[caller]), caller


def test_one_chain_method_builds_each_receipt_complete():
    """ChainState._move is the one place in src/ that constructs a TxReceipt, and no line
    sets a receipt's contract, margin or USD cost after it is built."""
    builders, late = [], []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            called = isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None))
            if called == "TxReceipt":
                builders.append(where)
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store)
                    and child.attr in {"contract", "margin_pct", "usd_cost"}):
                late.append(f"{where} line {child.lineno}: assigns {child.attr}")
            visit(child, inner)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert builders and set(builders) == {"chain.ChainState._move"}, builders
    assert not late, late


def test_a_log_entry_is_numbered_by_its_position():
    """Neither a receipt nor an action record declares an index: its number is its position in
    chain.receipts or result.records, whose only field is the flat list of every record's kind, receipt
    and pool. So _move builds one TxReceipt for any count, with no loop."""
    declared = {"TxReceipt": [f.name for f in fields(TxReceipt)], "Publication": engine.Publication._fields,
                "Records": [f.name for f in fields(engine.Records)]}
    assert "index" not in {*declared["TxReceipt"], *declared["Publication"]}, declared
    assert declared["Records"] == ["flat"], declared
    move = functions_of("chain.py")["_move"]
    built = [node for node in ast.walk(move) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TxReceipt"]
    loops = [type(node).__name__ for node in ast.walk(move)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert len(built) == 1 and not loops, (len(built), loops)


def call_sites(attr: str, receiver: str | None = None) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each call of .attr in src/, made on the
    string constant receiver if one is given."""
    sites = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == attr
                    and (receiver is None or getattr(child.func.value, "value", None) == receiver)):
                sites.append((module, function))
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else function)

    for path in MODULES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sites


def test_one_renderer_joins_report_lines():
    assert call_sites("join", "\n") == [("chain", "csv_text")]


def test_one_writer_writes_report_files():
    assert call_sites("open") == [("reporting", "write_report")] and not call_sites("write_text")


def test_settle_is_the_one_place_that_forks_a_start():
    """A sweep's start is a plain (chain, registry) pair: settle forks it for each run,
    and nothing else in src/ copies a chain or a registry."""
    assert set(call_sites("fork")) == {("engine", "settle")}


def test_no_configuration_has_a_validate_method():
    """Each config checks itself in __post_init__, so an invalid one cannot be built."""
    defined = [f"{path.stem}.{cls.name}" for path in MODULES
               for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(cls, ast.ClassDef)
               if any(isinstance(node, ast.FunctionDef) and node.name == "validate" for node in cls.body)]
    assert not defined, defined


def test_the_command_line_imports_no_process_pool_until_a_sweep_forks():
    """The pool modules take about 30 ms to import, against a set-up of about 100 ms,
    so importing the CLI and building its parser must leave them out."""
    code = ("import sys, incentiveledger.cli as cli; cli.build_parser(); "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    src = str(MODULES[0].parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


def test_the_engine_never_burns_withdraws_destroys_or_relicenses():
    """engine.period_books folds each contract's books from its own action records: right only
    while a settled contract changes at those actions alone, so engine names none of these calls."""
    tree = ast.parse(next(p for p in MODULES if p.name == "engine.py").read_text(encoding="utf-8"))
    found = named(tree) & {"burn_token", "withdraw", "destroy", "set_license"}
    assert not found, sorted(found)


def test_record_tags_are_plain_strings():
    """Action kinds and agent roles hold exactly the text the reports print, so no
    module reads an Enum member's private _value_ to print one."""
    assert not [p.name for p in MODULES[0].parent.glob("*.py") if "._value_" in p.read_text(encoding="utf-8")]
    population = agents.PopulationConfig(n_accounts=30, max_providers=3)
    result = engine.run_simulation(engine.SimConfig(action_ticker=60, seed=10, population=population))
    kinds = [kind for kind, _, _ in result.records]
    assert {type(kind) for kind in kinds} == {str}
    assert set(kinds) == {engine.PUBLISH, engine.UPDATE, engine.REQUEST, engine.RENEW}
    assert {type(p.role) for p in result.population} == {str}
    assert {p.role for p in result.population} == {agents.PROVIDER, agents.REQUESTER}
    lines = "".join(actions_csv(result)).splitlines()
    assert lines[0].split(",")[2] == "kind" and [line.split(",")[2] for line in lines[1:]] == kinds
