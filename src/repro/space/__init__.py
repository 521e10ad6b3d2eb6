"""Hardware parameter spaces (design-space exploration substrate).

The paper evaluates exactly three hardware configurations (Table VI);
the survey literature frames hardware-parameter search — mesh shape,
buffer widths, bandwidth, clock — as the central co-design question
those three points only sample.  This package turns the closed world of
config literals into a searchable space written as data:

* :mod:`repro.space.space` — :class:`ConfigSpace`, ordered
  ``(name, grid)`` axes plus named ``(name, predicate)`` rules plus a
  builder: grid enumeration, seeded sampling, mutation, and
  :class:`SpacePoint`\\ s with canonical-JSON fingerprints that
  materialize real, validated
  :class:`~repro.accel.config.AcceleratorConfig`\\ s;
* :mod:`repro.space.hardware` — the default space, whose builder
  derives the mesh and which contains the Table VI rows as ordinary
  points.

:data:`SPACES` names the spaces for the CLI (``repro dse --space
NAME``); an unknown name raises :class:`~repro.errors.UnknownNameError`
listing the valid ones.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import lookup
from repro.space.hardware import get_default_space, mesh_columns
from repro.space.space import ConfigSpace, SpacePoint

#: Space factories, by CLI name.
SPACES: dict[str, Callable[[], ConfigSpace]] = {
    "default": get_default_space,
}


def space_names() -> tuple[str, ...]:
    """Space names, listing order."""
    return tuple(SPACES)


def resolve_space(name: str) -> ConfigSpace:
    """The space named ``name``, or
    :class:`~repro.errors.UnknownNameError`."""
    return lookup(SPACES, "parameter space", name)()


__all__ = [
    "ConfigSpace",
    "SPACES",
    "SpacePoint",
    "get_default_space",
    "mesh_columns",
    "resolve_space",
    "space_names",
]
