"""Resource budgets.

Every potentially unbounded computation (Buchberger loops, minor enumeration,
the kappa membership scan, pushforward construction) checks one of these limits
and aborts with a BudgetExceededError naming the budget instead of running
unbounded. Limits are per top-level engine invocation, not global counters, so
a Budget value is immutable and safe to share between threads. The optional
cancel_check callable is polled before each reduction of the flat Groebner
engine (S-pairs and tail reduction; a kernel is one such Groebner call);
raise from it to cancel a long computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BudgetExceededError


@dataclass(frozen=True)
class Budget:
    max_degree: int = 200
    max_basis: int = 20000
    max_spairs: int = 1_000_000
    max_pushforward_generators: int = 64
    max_minors: int = 100_000
    max_kappa_steps: int = 8
    cancel_check: Optional[Callable[[], None]] = None

    def check_degree(self, deg: int) -> None:
        if deg > self.max_degree:
            raise BudgetExceededError("max_degree", self.max_degree,
                                      f"weighted degree {deg}")

    def check_basis(self, size: int) -> None:
        if size > self.max_basis:
            raise BudgetExceededError("max_basis", self.max_basis)

    def check_spairs(self, count: int) -> None:
        if count > self.max_spairs:
            raise BudgetExceededError("max_spairs", self.max_spairs)
        self.check_cancel()

    def check_cancel(self) -> None:
        if self.cancel_check is not None:
            self.cancel_check()

    def check_minors(self, count: int) -> None:
        if count > self.max_minors:
            raise BudgetExceededError("max_minors", self.max_minors)

    def check_pushforward(self, generators: int) -> None:
        if generators > self.max_pushforward_generators:
            raise BudgetExceededError("max_pushforward_generators",
                                      self.max_pushforward_generators,
                                      f"q^v = {generators}")

    def check_kappa(self, t: int) -> None:
        if t > self.max_kappa_steps:
            raise BudgetExceededError("max_kappa_steps", self.max_kappa_steps)


DEFAULT_BUDGET = Budget()
