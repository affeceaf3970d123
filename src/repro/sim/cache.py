"""Set-associative cache with true-LRU replacement.

Each set's tag and LRU state is a plain Python list (a *row*): at the
one-address-at-a-time granularity of the event loop, C-level
``list.index``/``min`` over an 8-16 way row beats NumPy's per-call array
machinery by an order of magnitude, and the cache is on the hot path of
every simulated access.  Banking is modeled by the owning component
(:class:`repro.sim.core.CoreModel` for L1 hit concurrency); this class is
purely the hit/miss/replacement state.

Rows exist only for sets a run has touched.  The two row stores are
``defaultdict``s keyed by set index whose factory (a C-level
``partial(list, template)``) creates an empty row on the first
subscript, so a lookup reads ``tags[set_idx]`` exactly as it would a
list of rows and the hit path has no extra branch.  A many-core chip
with a few dozen operations per core touches a small share of its
sets; building every row eagerly would dominate the run.  The
non-allocating queries (:meth:`probe`, :meth:`invalidate`,
:meth:`is_dirty`, :meth:`set_dirty`) read with ``.get`` and never
create a row: an untouched set holds no line.

Dirty state is one bitmask int per set in a plain dict, bit
``1 << way`` set while that way holds a dirty line; a missing key and
a zero mask both mean a clean set.  Only sets that have held a dirty
line cost an entry, of one int (a read-only run keeps the dict empty).
The epoch kernel (:mod:`repro.sim.kernel`) reads and writes the same
dict.

Replacement semantics are pinned by the differential golden tests: the
hit way is the *first* matching way and the victim is the *first* way
holding the minimum LRU tick — exactly what the previous
``np.argmax(row == tag)`` / ``np.argmin(lru_row)`` implementation chose.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

from repro.errors import InvalidParameterError
from repro.sim.config import CacheConfig

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """Tag store of one cache (or one slice of a shared cache).

    Parameters
    ----------
    config:
        Geometry and latency parameters.

    Notes
    -----
    Addresses are byte addresses; the line and set index are derived from
    ``config.line_bytes`` and ``config.num_sets``.  ``access`` combines
    lookup and fill (allocate-on-miss, true LRU), which is the standard
    trace-driven idiom.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        sets = config.num_sets
        assoc = max(config.num_lines // sets, 1)
        self._assoc = assoc
        self._sets = sets
        self._line_bytes = config.line_bytes
        self._banks = config.banks
        self._tags: defaultdict[int, list[int]] = defaultdict(
            partial(list, (-1,) * assoc))
        self._lru: defaultdict[int, list[int]] = defaultdict(
            partial(list, (0,) * assoc))
        self._dirty: dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def num_sets(self) -> int:
        """Number of sets in the tag store."""
        return self._sets

    @property
    def assoc(self) -> int:
        """Effective associativity (ways per set)."""
        return self._assoc

    def line_of(self, address: int) -> int:
        """Line (block) number of a byte address."""
        if address < 0:
            raise InvalidParameterError(f"address must be >= 0, got {address}")
        return address // self._line_bytes

    def bank_of(self, address: int) -> int:
        """Bank servicing this address (line-interleaved)."""
        return self.line_of(address) % self._banks

    def access(self, address: int) -> bool:
        """Look up ``address``; allocate on miss.  Returns hit?."""
        hit, _ = self.access_rw(address, write=False)
        return hit

    def access_rw(self, address: int,
                  write: bool = False) -> "tuple[bool, int | None]":
        """Look up with read/write semantics (writeback-aware).

        Returns ``(hit, writeback_line)``: ``writeback_line`` is the line
        number of a dirty victim evicted by this fill (``None``
        otherwise).  Writes set the dirty bit on the (filled) line.
        """
        if address < 0:
            raise InvalidParameterError(f"address must be >= 0, got {address}")
        line = address // self._line_bytes
        set_idx = line % self._sets
        tag = line // self._sets
        self._tick += 1
        row = self._tags[set_idx]
        # "in" + index beats try/except index: the containment scan is
        # C-speed over <= assoc ints, while a raised ValueError on every
        # miss costs an order of magnitude more.
        if tag in row:
            way = row.index(tag)
            self._lru[set_idx][way] = self._tick
            if write:
                dirty = self._dirty
                dirty[set_idx] = dirty.get(set_idx, 0) | 1 << way
            self.hits += 1
            return True, None
        self.misses += 1
        lru_row = self._lru[set_idx]
        victim = lru_row.index(min(lru_row))
        writeback = self._replace_dirty(set_idx, victim, row[victim], write)
        row[victim] = tag
        lru_row[victim] = self._tick
        return False, writeback

    def _replace_dirty(self, set_idx: int, way: int, old_tag: int,
                       write: bool) -> "int | None":
        """Set ``way``'s dirty bit to ``write`` as a fill replaces it.

        Returns the line number of the dirty victim being replaced (a
        writeback, counted here), or ``None``.
        """
        dirty = self._dirty
        mask = dirty.get(set_idx, 0)
        was = mask >> way & 1
        writeback: "int | None" = None
        if was and old_tag >= 0:
            self.writebacks += 1
            writeback = old_tag * self._sets + set_idx
        if was != write:
            dirty[set_idx] = mask ^ 1 << way
        return writeback

    def probe(self, address: int) -> bool:
        """Non-allocating lookup (no LRU update, no fill)."""
        line = self.line_of(address)
        return line // self._sets in self._tags.get(line % self._sets, ())

    def invalidate(self, address: int) -> bool:
        """Drop a line if present; returns whether it was present.

        A dirty invalidated line counts as a writeback (its data must
        reach the next level — the coherence protocol's responsibility).
        """
        line = self.line_of(address)
        set_idx = line % self._sets
        tag = line // self._sets
        row = self._tags.get(set_idx)
        if row is None or tag not in row:
            return False
        way = row.index(tag)
        mask = self._dirty.get(set_idx, 0)
        if mask >> way & 1:
            self.writebacks += 1
            self._dirty[set_idx] = mask ^ 1 << way
        row[way] = -1
        self._lru[set_idx][way] = 0
        return True

    def fill(self, address: int) -> "int | None":
        """Install a line without touching demand hit/miss statistics.

        Used by prefetchers: a prefetch fill is not an architectural
        access.  Returns the line number of a dirty victim (which must
        be written back), or ``None``.  No-op if the line is present.
        """
        line = self.line_of(address)
        set_idx = line % self._sets
        tag = line // self._sets
        self._tick += 1
        row = self._tags[set_idx]
        if tag in row:
            return None
        lru_row = self._lru[set_idx]
        victim = lru_row.index(min(lru_row))
        writeback = self._replace_dirty(set_idx, victim, row[victim], False)
        row[victim] = tag
        # Insert at LRU-adjacent priority: an untouched prefetch should
        # be the first victim if it turns out useless.
        lru_row[victim] = max(self._tick - self._assoc, 1)
        return writeback

    def set_dirty(self, address: int) -> bool:
        """Mark the (present) line dirty without touching hit/miss stats.

        Used for writes that merge into an in-flight fill: the line was
        already allocated by the primary miss.  Returns present?.
        """
        line = self.line_of(address)
        set_idx = line % self._sets
        row = self._tags.get(set_idx)
        tag = line // self._sets
        if row is None or tag not in row:
            return False
        dirty = self._dirty
        dirty[set_idx] = dirty.get(set_idx, 0) | 1 << row.index(tag)
        return True

    def is_dirty(self, address: int) -> bool:
        """Whether the (present) line holding ``address`` is dirty."""
        line = self.line_of(address)
        set_idx = line % self._sets
        row = self._tags.get(set_idx)
        tag = line // self._sets
        if row is None or tag not in row:
            return False
        return bool(self._dirty.get(set_idx, 0) >> row.index(tag) & 1)

    @property
    def miss_rate(self) -> float:
        """Observed miss rate so far (0 before any access)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def stats(self) -> dict:
        """Counter values for metrics publication (plain dict)."""
        return {"hits": self.hits, "misses": self.misses,
                "writebacks": self.writebacks}

    def reset_stats(self) -> None:
        """Zero the hit/miss/writeback counters (state is kept)."""
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
