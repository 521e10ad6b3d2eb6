"""2D mesh topology and dimension-ordered (XY) minimal routing."""

from __future__ import annotations

from dataclasses import dataclass

Coord = tuple[int, int]

#: Mesh port directions and their unit steps in mesh coordinates.  ``L``
#: is the local (ejection) port.  Both NoC models route with these: the
#: flit-level router picks one output port per hop and the packet/
#: analytical models expand the whole path — from the same table, so the
#: two can never disagree on a route (``tests/noc/test_backends.py``
#: walks every 4x4 src/dst pair both ways).
DIRECTION_STEPS: dict[str, Coord] = {
    "E": (1, 0),
    "W": (-1, 0),
    "S": (0, 1),
    "N": (0, -1),
}


def xy_direction(at: Coord, dst: Coord) -> str:
    """Dimension-ordered (X-first) output direction from ``at`` toward ``dst``.

    Returns ``"L"`` when ``at`` is the destination.  This single decision
    function defines XY routing for every NoC model; taking one hop in
    the returned direction and recursing yields exactly :func:`xy_route`.
    """
    x, y = at
    if dst[0] > x:
        return "E"
    if dst[0] < x:
        return "W"
    if dst[1] > y:
        return "S"
    if dst[1] < y:
        return "N"
    return "L"


def step(at: Coord, direction: str) -> Coord:
    """The coordinate one hop from ``at`` in ``direction``."""
    dx, dy = DIRECTION_STEPS[direction]
    return (at[0] + dx, at[1] + dy)


@dataclass(frozen=True)
class Mesh:
    """A ``width x height`` 2D mesh of nodes addressed by ``(x, y)``."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def nodes(self) -> list[Coord]:
        """All coordinates, row-major."""
        return [(x, y) for y in range(self.height) for x in range(self.width)]

    def contains(self, node: Coord) -> bool:
        x, y = node
        return 0 <= x < self.width and 0 <= y < self.height

    def neighbors(self, node: Coord) -> list[Coord]:
        """Mesh-adjacent coordinates."""
        x, y = node
        candidates = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        return [c for c in candidates if self.contains(c)]

    def validate_node(self, node: Coord) -> None:
        if not self.contains(node):
            raise ValueError(f"node {node} outside {self.width}x{self.height} mesh")

    def route_links(self, src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
        """Directed links of the minimal dimension-ordered route."""
        return route_links(src, dst)


@dataclass(frozen=True)
class Torus(Mesh):
    """A 2D torus: the mesh plus wraparound links (extension).

    Dimension-ordered routing takes the shorter way around each ring, so
    the diameter halves relative to the mesh.  Used with the packet-level
    model to study alternative interconnects; the flit-level router does
    not support it (torus wormhole routing needs dateline VC management).
    """

    def _ring_steps(self, start: int, end: int, size: int) -> list[int]:
        """Positions visited moving the short way around one ring."""
        if start == end:
            return []
        forward = (end - start) % size
        backward = (start - end) % size
        step = 1 if forward <= backward else -1
        count = min(forward, backward)
        return [(start + step * (i + 1)) % size for i in range(count)]

    def route_links(self, src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
        """X-then-Y shortest-way-around routing."""
        links = []
        current = src
        for x in self._ring_steps(src[0], dst[0], self.width):
            nxt = (x, current[1])
            links.append((current, nxt))
            current = nxt
        for y in self._ring_steps(src[1], dst[1], self.height):
            nxt = (current[0], y)
            links.append((current, nxt))
            current = nxt
        return links

    def neighbors(self, node: Coord) -> list[Coord]:
        """Ring-adjacent coordinates (always four when size > 2)."""
        x, y = node
        candidates = {
            ((x + 1) % self.width, y),
            ((x - 1) % self.width, y),
            (x, (y + 1) % self.height),
            (x, (y - 1) % self.height),
        }
        candidates.discard(node)
        return sorted(candidates)


def xy_route(src: Coord, dst: Coord) -> list[Coord]:
    """Minimal dimension-ordered route: X first, then Y.

    Returns the node sequence including both endpoints.  XY routing on a
    mesh is deadlock free, which the flit-level tests rely on.
    """
    path = [src]
    at = src
    while (direction := xy_direction(at, dst)) != "L":
        at = step(at, direction)
        path.append(at)
    return path


def route_links(src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
    """Directed links traversed by the XY route."""
    path = xy_route(src, dst)
    return list(zip(path[:-1], path[1:]))
