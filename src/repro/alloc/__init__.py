"""Resource allocation across applications (paper Fig. 7).

"C2-Bound analytic results can be ... applied to scheduling,
partitioning, and allocating resources among diverse applications."

- :mod:`repro.alloc.scheduler` allocates cores: an application with a
  large ``f_seq`` and low memory concurrency gains little from extra
  cores, one with small ``f_seq`` and high ``C`` gains a lot — the
  water-filling allocator reproduces Fig. 7's qualitative split.
- :mod:`repro.alloc.partition` partitions shared cache capacity by
  marginal miss-rate utility.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.alloc.scheduler import AllocationResult, allocate_cores
    from repro.alloc.partition import PartitionResult, partition_cache

__all__ = [
    "AllocationResult",
    "allocate_cores",
    "PartitionResult",
    "partition_cache",
]

__getattr__, __dir__ = attach(__name__, __file__)
