"""The shared diagram template for double twist knots.

D(m, n) is presented as a four-strand plat: cups joining positions (1,2) and
(3,4) at the bottom, a twist region on positions (2,3), a twist region on
positions (1,2), and caps joining (2,3) and (1,4) at the top.  The crossing
counts and handedness in the two regions are fixed by REGION_23_SIGN and
REGION_12_SIGN below, pinned so that D(2,-2) is the figure-eight knot,
D(2,2) the left-handed trefoil, and the diagram determinant equals |mn - 1|
throughout the family.

Every evaluation engine (Kauffman bracket, channel fusion, quantum-group
vertex sum) consumes this one template, so they all see the same diagram
and the same writhe.
"""

from __future__ import annotations

from dataclasses import dataclass


# Handedness of the twist regions relative to the signs of n and m.  The
# braid word is sigma_2^(s n) then sigma_1^(s m), where a positive letter
# crosses the lower-left strand over the lower-right one and s is the
# per-parity-class handedness below.  The relative sign of the two regions
# is pinned by the diagram determinant |mn - 1| across the family; the
# overall handedness of the even-even class by D(2, 2) evaluating to the
# left-handed trefoil (Jones polynomial -t^4 + t^3 + t), and the handedness
# of the classes with an odd parameter by the shared-surgery homeomorphism
# t_v(M_{D(2n,-3)}(4n+1)) = t_v(M_{4_1}(-(4n+1)/n)), which fails for the
# mirror choice.  Every other computed quantity is insensitive to these
# mirror conventions.
REGION_23_SIGN = -1  # crossings in the (2,3) region: class sign * this * n
REGION_12_SIGN = -1  # crossings in the (1,2) region: class sign * this * m


def class_handedness(m: int, n: int) -> int:
    """+1 when both twist counts are even, else -1 (mirrored realization)."""
    return 1 if (m % 2 == 0 and n % 2 == 0) else -1


@dataclass(frozen=True)
class Crossing:
    """One braid-letter crossing.

    Node ids: bl, br enter from below at lanes (pos, pos+1); tl, tr leave
    above.  positive means the bl -> tr strand passes over.
    """

    pos: int  # 0-based left lane of the two lanes involved
    bl: int
    br: int
    tl: int
    tr: int
    positive: bool


@dataclass(frozen=True)
class PlatDiagram:
    """The plat template with its node-level combinatorics."""

    m: int
    n: int
    crossings: tuple[Crossing, ...]
    arcs: tuple[tuple[int, int], ...]  # cups and caps as permanent joins
    node_count: int


def braid_letters(m: int, n: int) -> list[tuple[int, int]]:
    """The template's braid word as (0-based left lane, sign) letters."""
    s = class_handedness(m, n)
    letters = []
    x = s * REGION_23_SIGN * n
    for _ in range(abs(x)):
        letters.append((1, 1 if x > 0 else -1))
    y = s * REGION_12_SIGN * m
    for _ in range(abs(y)):
        letters.append((0, 1 if y > 0 else -1))
    return letters


def region_twists(m: int, n: int) -> tuple[int, int]:
    """Signed crossing counts (x, y) of the (2,3) and (1,2) twist regions."""
    s = class_handedness(m, n)
    return s * REGION_23_SIGN * n, s * REGION_12_SIGN * m


def plat_diagram(m: int, n: int) -> PlatDiagram:
    wire = [0, 1, 2, 3]
    arcs = [(0, 1), (2, 3)]  # bottom cups at (1,2) and (3,4)
    next_node = 4
    crossings = []
    for pos, sign in braid_letters(m, n):
        bl, br = wire[pos], wire[pos + 1]
        tl, tr = next_node, next_node + 1
        next_node += 2
        crossings.append(Crossing(pos, bl, br, tl, tr, sign > 0))
        wire[pos], wire[pos + 1] = tl, tr
    arcs.append((wire[1], wire[2]))  # inner cap at (2,3)
    arcs.append((wire[0], wire[3]))  # outer cap at (1,4)
    return PlatDiagram(m, n, tuple(crossings), tuple(arcs), next_node)


# ---------------------------------------------------------------------------
# Tracing: components, orientation, writhe
# ---------------------------------------------------------------------------


def _adjacency(diagram: PlatDiagram) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in range(diagram.node_count)}
    for a, b in diagram.arcs:
        adj[a].append(b)
        adj[b].append(a)
    for c in diagram.crossings:
        adj[c.bl].append(c.tr)  # through-strand passages
        adj[c.tr].append(c.bl)
        adj[c.br].append(c.tl)
        adj[c.tl].append(c.br)
    return adj


def trace_components(diagram: PlatDiagram) -> list[list[int]]:
    """Closed walks through the diagram; one list of nodes per component."""
    adj = _adjacency(diagram)
    seen: set[int] = set()
    components = []
    for start in range(diagram.node_count):
        if start in seen:
            continue
        walk = [start]
        seen.add(start)
        prev, here = None, start
        while True:
            nbrs = adj[here]
            nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
            # at valence-2 nodes with a doubled edge the other copy is fine
            if nxt == prev and len(nbrs) == 2:
                nxt = nbrs[1]
            if nxt == start and len(walk) > 1:
                break
            walk.append(nxt)
            seen.add(nxt)
            prev, here = here, nxt
        components.append(walk)
    return components


def _passage_directions(diagram: PlatDiagram) -> dict[tuple[int, int], bool]:
    """For each crossing passage (from_node, to_node), whether it is used
    upward (bottom node to top node) by the traced orientation."""
    directions: dict[tuple[int, int], bool] = {}
    for walk in trace_components(diagram):
        k = len(walk)
        for i in range(k):
            a, b = walk[i], walk[(i + 1) % k]
            directions[(a, b)] = True
    return directions


def writhe(m: int, n: int) -> int:
    """Sum of crossing signs of the template with its traced orientation."""
    diagram = plat_diagram(m, n)
    used = _passage_directions(diagram)
    total = 0
    for c in diagram.crossings:
        # direction vectors of the two diagonals as traversed
        over_up = (c.bl, c.tr) in used if c.positive else (c.br, c.tl) in used
        under_up = (c.br, c.tl) in used if c.positive else (c.bl, c.tr) in used
        if c.positive:
            over_vec = (1, 1) if over_up else (-1, -1)
            under_vec = (-1, 1) if under_up else (1, -1)
        else:
            over_vec = (-1, 1) if over_up else (1, -1)
            under_vec = (1, 1) if under_up else (-1, -1)
        cross = over_vec[0] * under_vec[1] - over_vec[1] * under_vec[0]
        total += 1 if cross > 0 else -1
    return total


__all__ = [
    "REGION_23_SIGN",
    "REGION_12_SIGN",
    "class_handedness",
    "region_twists",
    "Crossing",
    "PlatDiagram",
    "braid_letters",
    "plat_diagram",
    "trace_components",
    "writhe",
]
