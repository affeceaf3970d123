"""Discrete design spaces.

The paper's fluidanimate case study explores six parameters
(``A0, A1, A2, N``, issue width, ROB size) with ten optional values each
— a 10^6-point space.  :class:`DesignSpace` provides exact enumeration,
mixed-radix indexing, uniform sampling and nearest-value snapping (used
by APS to map the analytic optimum onto the grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from repro.errors import DesignSpaceError

__all__ = ["Parameter", "DesignSpace"]


@dataclass(frozen=True)
class Parameter:
    """One discrete design parameter.

    Attributes
    ----------
    name:
        Identifier used in configuration dicts.
    values:
        Candidate values, in ascending order.
    """

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise DesignSpaceError(f"parameter {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise DesignSpaceError(
                f"parameter {self.name!r} has duplicate values")

    def snap(self, value: float) -> float:
        """Nearest candidate value to ``value``."""
        arr = np.asarray(self.values, dtype=float)
        return self.values[int(np.argmin(np.abs(arr - value)))]

    def snap_down(self, value: float):
        """Largest candidate value <= ``value`` (smallest if none)."""
        arr = np.asarray(self.values, dtype=float)
        below = np.flatnonzero(arr <= value + 1e-12)
        if below.size == 0:
            return self.values[0]
        return self.values[int(below[-1])]

    def neighbors(self, value, radius: int = 1) -> tuple:
        """Candidate values within ``radius`` grid steps of ``value``."""
        if value not in self.values:
            value = self.snap(float(value))
        idx = self.values.index(value)
        lo = max(idx - radius, 0)
        hi = min(idx + radius + 1, len(self.values))
        return self.values[lo:hi]


class DesignSpace:
    """Cartesian product of :class:`Parameter` grids."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        if not parameters:
            raise DesignSpaceError("design space needs >= 1 parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise DesignSpaceError(f"duplicate parameter names in {names}")
        self.parameters = tuple(parameters)
        # Parameters are frozen, so the size is fixed at construction.
        self._size = math.prod(len(p.values) for p in self.parameters)

    @property
    def size(self) -> int:
        """Total number of configurations."""
        return self._size

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names, in declaration order."""
        return tuple(p.name for p in self.parameters)

    def config_at(self, index: int) -> dict:
        """Configuration at a mixed-radix index in ``[0, size)``."""
        if not 0 <= index < self.size:
            raise DesignSpaceError(
                f"index {index} outside [0, {self.size})")
        config = {}
        for p in reversed(self.parameters):
            index, digit = divmod(index, len(p.values))
            config[p.name] = p.values[digit]
        return {p.name: config[p.name] for p in self.parameters}

    def index_of(self, config: dict) -> int:
        """Inverse of :meth:`config_at`."""
        index = 0
        for p in self.parameters:
            try:
                digit = p.values.index(config[p.name])
            except (KeyError, ValueError) as exc:
                raise DesignSpaceError(
                    f"config has no valid value for {p.name!r}") from exc
            index = index * len(p.values) + digit
        return index

    def __iter__(self) -> Iterator[dict]:
        """Every configuration in :meth:`config_at` order.

        ``itertools.product`` walks the same mixed-radix order (last
        parameter fastest), so this is ``config_at(0), config_at(1), …``
        without the per-point ``divmod`` chain.
        """
        names = self.names
        for values in product(*(p.values for p in self.parameters)):
            yield dict(zip(names, values))

    def sample(self, n: int, rng: np.random.Generator) -> list[dict]:
        """``n`` uniform configurations without replacement."""
        if n < 0:
            raise DesignSpaceError(f"sample size must be >= 0, got {n}")
        n = min(n, self.size)
        idx = rng.choice(self.size, size=n, replace=False)
        return [self.config_at(int(i)) for i in idx]

    def snap(self, partial: dict) -> dict:
        """Snap continuous values onto the grid (missing keys -> middle)."""
        out = {}
        for p in self.parameters:
            if p.name in partial:
                value = partial[p.name]
                if value in p.values:
                    out[p.name] = value
                else:
                    out[p.name] = p.snap(float(value))
            else:
                out[p.name] = p.values[len(p.values) // 2]
        return out

    def neighborhood(self, center: dict, *, free: Sequence[str] = (),
                     radius: int = 0) -> list[dict]:
        """Configurations agreeing with ``center`` up to the given slack.

        Parameters named in ``free`` range over their full grids; the
        rest stay within ``radius`` grid steps of the center value.  With
        ``radius=0`` this is exactly the APS move: fix the analytic
        parameters, sweep the simulated ones.
        """
        center = self.snap(center)
        axes: list[tuple] = []
        for p in self.parameters:
            if p.name in free:
                axes.append(p.values)
            else:
                axes.append(p.neighbors(center[p.name], radius))
        configs: list[dict] = []

        def rec(i: int, acc: dict) -> None:
            if i == len(self.parameters):
                configs.append(dict(acc))
                return
            p = self.parameters[i]
            for v in axes[i]:
                acc[p.name] = v
                rec(i + 1, acc)

        rec(0, {})
        return configs

    def as_features(self, config: dict) -> np.ndarray:
        """Normalized feature vector in [0, 1]^d (for ANN/RSM models).

        Numeric parameters normalize by value range; categorical ones by
        grid position.
        """
        feats = np.empty(len(self.parameters), dtype=float)
        for i, p in enumerate(self.parameters):
            try:
                vals = np.asarray(p.values, dtype=float)
                lo, hi = vals.min(), vals.max()
                v = float(config[p.name])
            except (TypeError, ValueError):
                # Categorical: use the grid index.
                lo, hi = 0.0, float(len(p.values) - 1)
                v = float(p.values.index(config[p.name]))
            feats[i] = 0.5 if hi == lo else (v - lo) / (hi - lo)
        return feats
