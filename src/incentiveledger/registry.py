"""User and provider registry.

A single institutional authority vouches for participants: providers are
approved addresses allowed to publish datasets, users carry a license code
that dataset contracts match against before granting access. Mutations are
metered transactions paid by the authority, the bootstrap's registrations
in one batched booking whose one receipt fills N log positions; the
membership checks that dataset contracts perform internally are free reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .chain import (
    Address,
    ChainState,
    NEW_DATA_PROVIDER,
    REGISTER_NEW_USER,
    REGISTRY_DEPLOYMENT,
    TxReceipt,
    UPDATE_USER_LICENSE,
    csv_text,
)
from .errors import AlreadyRegisteredError, NotAuthorityError, NotRegisteredError

# License codes are small integers; any two distinct codes behave as two
# distinct licenses.
DEFAULT_LICENSE = 1


@dataclass(slots=True, eq=False, repr=False)
class Registry:
    chain: ChainState
    authority: Address
    users: dict[Address, int] = field(init=False, default_factory=dict)
    providers: set[Address] = field(init=False, default_factory=set)

    def fork(self, chain: ChainState) -> Registry:
        """A copy on a fork of this registry's chain, to run on independently."""
        other = Registry(chain, self.authority)
        other.users, other.providers = dict(self.users), set(self.providers)
        return other

    @classmethod
    def deploy(cls, chain: ChainState, authority: Address) -> "Registry":
        chain.execute(authority, REGISTRY_DEPLOYMENT)
        return cls(chain, authority)

    def _require_authority(self, caller: Address) -> None:
        if caller != self.authority:
            raise NotAuthorityError(f"{caller} is not the registry authority")

    def register_new_user(self, caller: Address, user: Address, license_code: int) -> TxReceipt:
        return self.register_new_users(caller, [user], license_code)[0]

    def register_new_users(self, caller: Address, users: list[Address], license_code: int) -> list[TxReceipt]:
        """Register each user under license_code in one booking, all or none; return its log entries, one per user."""
        self._require_authority(caller)
        fresh = dict.fromkeys(users, license_code)
        if len(fresh) < len(users) or not self.users.keys().isdisjoint(fresh):
            seen = set(self.users)
            user = next(u for u in users if u in seen or seen.add(u))  # the first one registered twice
            raise AlreadyRegisteredError(f"{user} is already a registered user")
        self.chain.execute(caller, REGISTER_NEW_USER, count=len(users))
        self.users.update(fresh)
        return self.chain.receipts[-len(users):]

    def new_data_provider(self, caller: Address, provider: Address) -> TxReceipt:
        self._require_authority(caller)
        if provider in self.providers:
            raise AlreadyRegisteredError(f"{provider} is already a provider")
        receipt = self.chain.execute(caller, NEW_DATA_PROVIDER)
        self.providers.add(provider)
        return receipt

    def update_user_license(self, caller: Address, user: Address, license_code: int) -> TxReceipt:
        self._require_authority(caller)
        if user not in self.users:
            raise NotRegisteredError(f"{user} is not a registered user")
        receipt = self.chain.execute(caller, UPDATE_USER_LICENSE)
        self.users[user] = license_code
        return receipt

    def check_user(self, user: Address, license_code: int) -> bool:
        """Free read: is this user registered with exactly this license?"""
        return self.users.get(user) == license_code

    def check_provider(self, addr: Address) -> bool:
        """Free read: is this address an approved provider?"""
        return addr in self.providers

    def snapshot_csv(self) -> Iterator[str]:
        """registry.csv: one row per address in address order, with its role and, for a user, its license."""
        users, providers = self.users, self.providers
        addresses = [*users, *providers.difference(users)]
        addresses.sort()
        return csv_text("address,role,license", (
            f"{addr},{'provider+user' if addr in providers else 'user'},{users[addr]}" if addr in users
            else f"{addr},provider," for addr in addresses))
