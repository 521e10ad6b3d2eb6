"""`ConfigSpace`: typed descriptors composed into a searchable space.

A space is the contract between search drivers (:mod:`repro.dse`) and
the simulator: drivers propose *searchable values*, the space validates
them against each parameter's grid and every :class:`Constraint`, fills
in the :class:`Derived` values (mesh geometry, coordinate lists), and a
builder materializes a real — and really validated —
:class:`~repro.accel.config.AcceleratorConfig`.

Every point carries a canonical-JSON fingerprint of its searchable
values (the derived values are a pure function of them), hashed with
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
from repro.space.params import Constraint, Derived, Parameter


@dataclass(frozen=True)
class SpacePoint:
    """One searchable point: a value for every searchable parameter.

    ``values`` is ordered by the space's parameter declaration order, so
    two points with the same assignments are equal (and hash equal)
    regardless of how they were proposed.  A point's configuration is
    named ``dse-<digest>`` after its values.
    """

    space: "ConfigSpace" = field(compare=False, repr=False)
    values: tuple[tuple[str, Any], ...] = ()

    @property
    def value_map(self) -> dict[str, Any]:
        return dict(self.values)

    def fingerprint(self) -> dict[str, Any]:
        """Canonical plain-data identity: space name + searchable values."""
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
        """Materialize the real (validated) accelerator configuration."""
        return self.space.materialize(self)

    def describe(self) -> str:
        assignments = " ".join(f"{k}={v}" for k, v in self.values)
        return f"{self.config_name} ({assignments})"


class ConfigSpace:
    """Typed searchable parameters + derivations + constraints + builder.

    ``build`` receives the full value mapping (searchable and derived)
    plus the point's config name and returns an
    :class:`AcceleratorConfig`; its ``__post_init__`` validation is the
    final word on whether a point is buildable.
    """

    def __init__(
        self,
        name: str,
        params: tuple[Parameter, ...],
        build: Callable[[Mapping[str, Any], str], AcceleratorConfig],
        derived: tuple[Derived, ...] = (),
        constraints: tuple[Constraint, ...] = (),
    ) -> None:
        if len({p.name for p in params}) != len(params):
            raise ValueError("duplicate parameter names")
        self.name = name
        self.params = tuple(params)
        self.derived = tuple(derived)
        self.constraints = tuple(constraints)
        self.build = build

    # -- introspection ----------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    # -- validation and materialization -----------------------------------

    def check(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a complete searchable assignment; return it ordered.

        Raises ``ValueError`` naming the offending parameter (missing,
        unknown, off-grid) or the violated constraint.
        """
        unknown = set(values) - set(self.param_names)
        if unknown:
            raise ValueError(
                f"space {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; valid: {list(self.param_names)}"
            )
        ordered: dict[str, Any] = {}
        for param in self.params:
            if param.name not in values:
                raise ValueError(
                    f"missing value for parameter {param.name!r}"
                )
            value = values[param.name]
            if value not in param:
                raise ValueError(
                    f"{value!r} is not a grid value of parameter "
                    f"{param.name!r}; valid: {param.values()}"
                )
            ordered[param.name] = value
        for constraint in self.constraints:
            if not constraint.holds(ordered):
                raise ValueError(
                    f"constraint {constraint.name!r} rejects "
                    f"{dict(ordered)}"
                )
        return ordered

    def satisfies(self, values: Mapping[str, Any]) -> bool:
        """Constraint check only (values assumed on-grid)."""
        return all(c.holds(values) for c in self.constraints)

    def point(self, values: Mapping[str, Any]) -> SpacePoint:
        """A validated point from a searchable assignment."""
        return SpacePoint(self, tuple(self.check(values).items()))

    def expand(self, values: Mapping[str, Any]) -> dict[str, Any]:
        """Searchable values plus every derived value, in order."""
        full = dict(values)
        for derived in self.derived:
            full[derived.name] = derived.compute(full)
        return full

    def materialize(self, point: SpacePoint) -> AcceleratorConfig:
        """Build the point's :class:`AcceleratorConfig` (validated by
        the dataclass itself — coordinates inside the mesh, disjoint,
        non-empty — not by hand-listing)."""
        return self.build(self.expand(point.value_map), point.config_name)

    # -- enumeration and sampling -----------------------------------------

    def grid(self) -> Iterator[SpacePoint]:
        """Every constraint-satisfying point, deterministic declaration
        order (first parameter varies slowest)."""
        domains = [p.values() for p in self.params]
        names = self.param_names
        for combo in itertools.product(*domains):
            values = dict(zip(names, combo))
            if self.satisfies(values):
                yield SpacePoint(self, tuple(zip(names, combo)))

    @property
    def size(self) -> int:
        """Number of valid grid points (constraints applied)."""
        return sum(1 for _ in self.grid())

    def sample(self, rng, max_attempts: int = 10_000) -> SpacePoint:
        """One seeded, constraint-satisfying random point (rejection)."""
        for _ in range(max_attempts):
            values = {p.name: p.sample(rng) for p in self.params}
            if self.satisfies(values):
                return SpacePoint(self, tuple(values.items()))
        raise RuntimeError(
            f"no valid sample from space {self.name!r} after "
            f"{max_attempts} attempts; constraints may be unsatisfiable"
        )

    def mutate(
        self, point: SpacePoint, rng, max_attempts: int = 100
    ) -> SpacePoint:
        """A neighbouring valid point: one parameter nudged to an
        adjacent grid value (ranges) or resampled (categoricals).

        Falls back to a fresh :meth:`sample` when no single-parameter
        move satisfies the constraints.
        """
        values = point.value_map
        for _ in range(max_attempts):
            param = self.params[rng.randrange(len(self.params))]
            current = values[param.name]
            moves = [v for v in param.neighbors(current)]
            if not moves:
                moves = [v for v in param.values() if v != current]
            if not moves:
                continue
            candidate = dict(values)
            candidate[param.name] = moves[rng.randrange(len(moves))]
            if self.satisfies(candidate):
                return SpacePoint(self, tuple(
                    (name, candidate[name]) for name in self.param_names
                ))
        return self.sample(rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConfigSpace({self.name!r}, {len(self.params)} params)"
