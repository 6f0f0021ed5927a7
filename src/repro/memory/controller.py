"""Memory controller.

Bridges the L2 cache to the DRAM.  In the paper's platform the controller is
a simple single-channel bridge with a fixed per-access latency; it exists in
the model mainly to keep the accounting of memory traffic (reads, writes,
writebacks) separate from the caches and to give experiments a single place
to read memory-pressure statistics from.

With the banked DRAM model the controller also *arbitrates within a bus
transaction*: a dirty L2 miss performs two memory accesses (victim writeback
plus line fetch) and an atomic performs a read+write pair, and the order they
reach the DRAM determines how many row hits the transaction collects.
``"in_order"`` preserves the transaction's own sequence; ``"frfcfs"``
(first-ready, first-come-first-served) repeatedly serves the oldest access
whose row is already open — the open-row-priority reordering real memory
controllers use.  Both policies are pure functions of the access list and
the bank state, so every execution mode computes identical timings.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..sim.errors import ConfigurationError
from ..sim.stats import StatGroup
from .dram import DRAM, BankedDRAM

__all__ = ["MemoryController"]


class MemoryController:
    """Single-channel memory controller in front of the DRAM."""

    def __init__(
        self,
        dram: Union[DRAM, BankedDRAM, None] = None,
        policy: str = "in_order",
    ) -> None:
        if policy not in ("in_order", "frfcfs"):
            raise ConfigurationError(f"unknown memory controller policy {policy!r}")
        self.dram = dram if dram is not None else DRAM()
        self.policy = policy
        self.stats = StatGroup(name="memctrl.stats")
        # One access per L2 miss / atomic — hot enough to pre-bind.
        self._c_reads = self.stats.counter("reads")
        self._c_writes = self.stats.counter("writes")
        self._c_busy_cycles = self.stats.counter("busy_cycles")
        self._c_reordered = self.stats.counter("reordered_accesses")

    def access(self, address: int = 0, read: bool = True) -> int:
        """Forward one access to the DRAM and return its latency in cycles."""
        latency = self.dram.access(address, read=read)
        (self._c_reads if read else self._c_writes).value += 1
        self._c_busy_cycles.value += latency
        return latency

    def transaction(self, accesses: Sequence[tuple[int, bool]]) -> int:
        """Serve one bus transaction's accesses and return their total latency.

        ``accesses`` is the transaction's ``(address, read)`` list in program
        order.  Under ``"in_order"`` that order is preserved; under
        ``"frfcfs"`` the controller repeatedly picks the oldest access whose
        row is currently open (falling back to the oldest overall), re-testing
        after each serve because serving changes the bank state.  The pick is
        by stable index scan, so the schedule is deterministic.
        """
        if len(accesses) == 1:
            address, read = accesses[0]
            return self.access(address, read=read)
        remaining = list(accesses)
        total = 0
        while remaining:
            pick = 0
            if self.policy == "frfcfs":
                for index, (address, _read) in enumerate(remaining):
                    if self.dram.is_row_hit(address):
                        pick = index
                        break
                if pick:
                    self._c_reordered.value += 1
            address, read = remaining.pop(pick)
            total += self.access(address, read=read)
        return total

    @property
    def total_accesses(self) -> int:
        return self._c_reads.value + self._c_writes.value

    def reset(self) -> None:
        self.dram.reset()
        self.stats.reset()
