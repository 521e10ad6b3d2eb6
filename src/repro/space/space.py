"""`ConfigSpace`: grids, named rules and a builder, searched as one space.

A space is the contract between search drivers (:mod:`repro.dse`) and
the simulator: drivers propose one value per axis from that axis's
finite, ordered grid, the space checks the values against the grids
and every named rule, and its builder materializes a real — and really
validated — :class:`~repro.accel.config.AcceleratorConfig`.

Every point carries a canonical-JSON fingerprint of its values (the
builder is a pure function of them), hashed with
:func:`repro.exp.cache.content_key` — the same convention every cache
key in the repository uses.  The materialized config's *contents* feed
:func:`repro.exp.cache.point_fingerprint` exactly as the three Table VI
configurations do, so space-derived points ride the
memo, the persistent result cache, and the parallel sweep pool without
any of those layers knowing a space exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.accel.config import AcceleratorConfig

#: One searchable axis: its name and its finite, ordered grid.
Axis = tuple[str, tuple[Any, ...]]

#: One named validity rule over a complete assignment.
Rule = tuple[str, Callable[[Mapping[str, Any]], bool]]


@dataclass(frozen=True)
class SpacePoint:
    """One searchable point: a value for every axis.

    ``values`` is ordered by the space's axes, so two points with the
    same assignments are equal (and hash equal) regardless of how they
    were proposed.  A point's configuration is named ``dse-<digest>``
    after its values.
    """

    space: "ConfigSpace" = field(compare=False, repr=False)
    values: tuple[tuple[str, Any], ...] = ()

    @property
    def value_map(self) -> dict[str, Any]:
        return dict(self.values)

    def fingerprint(self) -> dict[str, Any]:
        """Canonical plain-data identity: space name + values."""
        return {"space": self.space.name, "values": self.value_map}

    @property
    def digest(self) -> str:
        from repro.exp.cache import content_key

        return content_key(self.fingerprint())

    @property
    def config_name(self) -> str:
        """The materialized config's name, derived from the point's
        contents: ``dse-`` and the digest's first 12 hex digits."""
        return f"dse-{self.digest[:12]}"

    def config(self) -> AcceleratorConfig:
        """Materialize the real accelerator configuration (validated by
        the dataclass itself — coordinates inside the mesh, disjoint,
        non-empty)."""
        return self.space.build(self.value_map, self.config_name)

    def describe(self) -> str:
        assignments = " ".join(f"{k}={v}" for k, v in self.values)
        return f"{self.config_name} ({assignments})"


@dataclass(frozen=True)
class ConfigSpace:
    """Ordered ``(name, grid)`` axes, named ``(name, predicate)`` rules
    and a builder.

    ``build`` receives a point's value mapping and its config name and
    returns an :class:`AcceleratorConfig`, whose ``__post_init__``
    validation is the final word on whether a point is buildable.
    """

    name: str
    axes: tuple[Axis, ...]
    build: Callable[[Mapping[str, Any], str], AcceleratorConfig]
    rules: tuple[Rule, ...] = ()

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def check(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a complete assignment; return it in axis order.

        Raises ``ValueError`` naming the offending parameter (missing,
        unknown, off-grid) or the rule it breaks.
        """
        unknown = set(values) - set(self.param_names)
        if unknown:
            raise ValueError(
                f"space {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; valid: {list(self.param_names)}"
            )
        ordered: dict[str, Any] = {}
        for name, grid in self.axes:
            if name not in values:
                raise ValueError(f"missing value for parameter {name!r}")
            if values[name] not in grid:
                raise ValueError(
                    f"{values[name]!r} is not a grid value of parameter "
                    f"{name!r}; valid: {grid}"
                )
            ordered[name] = values[name]
        for rule, holds in self.rules:
            if not holds(ordered):
                raise ValueError(f"constraint {rule!r} rejects {ordered}")
        return ordered

    def satisfies(self, values: Mapping[str, Any]) -> bool:
        """Rule check only (values assumed on-grid)."""
        return all(holds(values) for _, holds in self.rules)

    def point(self, values: Mapping[str, Any]) -> SpacePoint:
        """A validated point from an assignment."""
        return SpacePoint(self, tuple(self.check(values).items()))

    def grid(self) -> Iterator[SpacePoint]:
        """Every valid point, in axis order (the first axis varies
        slowest)."""
        names = self.param_names
        for combo in itertools.product(*(grid for _, grid in self.axes)):
            values = dict(zip(names, combo))
            if self.satisfies(values):
                yield SpacePoint(self, tuple(values.items()))

    @property
    def size(self) -> int:
        """Number of valid grid points (rules applied)."""
        return sum(1 for _ in self.grid())

    def sample(self, rng, max_attempts: int = 10_000) -> SpacePoint:
        """One seeded valid point: one uniform draw per axis, in axis
        order, retried until every rule holds."""
        for _ in range(max_attempts):
            values = {
                name: grid[rng.randrange(len(grid))]
                for name, grid in self.axes
            }
            if self.satisfies(values):
                return SpacePoint(self, tuple(values.items()))
        raise RuntimeError(
            f"no valid sample from space {self.name!r} after "
            f"{max_attempts} attempts; constraints may be unsatisfiable"
        )

    def mutate(
        self, point: SpacePoint, rng, max_attempts: int = 100
    ) -> SpacePoint:
        """A neighbouring valid point: one axis moved to an adjacent
        grid value (an axis with a single value never moves).

        Falls back to a fresh :meth:`sample` when no single-axis move
        satisfies the rules.
        """
        values = point.value_map
        for _ in range(max_attempts):
            name, grid = self.axes[rng.randrange(len(self.axes))]
            index = grid.index(values[name])
            moves = [grid[j] for j in (index - 1, index + 1)
                     if 0 <= j < len(grid)]
            if not moves:
                continue
            candidate = dict(values)
            candidate[name] = moves[rng.randrange(len(moves))]
            if self.satisfies(candidate):
                return SpacePoint(self, tuple(
                    (key, candidate[key]) for key in self.param_names
                ))
        return self.sample(rng)
