"""Resource budgets.

Every potentially unbounded computation (the Buchberger loops) checks one of
these limits and aborts with a BudgetExceededError naming the budget.
Bounded work needs none: packed terms cap weighted degrees, the kappa scan
ends at a degree its s.o.p.'s basis fixes, f^n R has at most q^v generators,
and rank is read off a relation basis' leads. Limits are per top-level
engine invocation, so a Budget is immutable and safe to share between
threads. The optional cancel_check callable is polled before each reduction
of the flat Groebner engine (S-pairs and tail reduction; a kernel is one
such Groebner call), before each row a module normal form reduces
(``module_engine._nf``), before each monomial power the Frobenius bracket
first reduces (``frobenius._bracket``), at each residue of the pushforward,
once in its walk and once in its relation loop, and at each t of the kappa
scan; raise from it to cancel a long computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BudgetExceededError


@dataclass(frozen=True)
class Budget:
    max_basis: int = 20000
    max_spairs: int = 1_000_000
    cancel_check: Optional[Callable[[], None]] = None

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


DEFAULT_BUDGET = Budget()
