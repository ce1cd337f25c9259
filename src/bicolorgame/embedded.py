"""Connected graphs cellularly embedded on orientable surfaces.

An embedding is encoded as a rotation system: every edge contributes two
darts (edge ends), each vertex lists its incident darts in counterclockwise
cyclic order, and the involution ``alpha`` swaps the two darts of each edge.
Faces are the orbits of the permutation d -> sigma(alpha(d)), where
``sigma`` is the rotation successor.  All GF(2) vectors produced here and
downstream are indexed by the edge order of the input.

Text format (``#`` starts a comment)::

    vertices <n>
    v <i>: <dart> <dart> ...    # one line per vertex i = 0..n-1, ccw order
    edges <m>
    e <j>: <dart> <dart>        # one line per edge j = 0..m-1

Tokens are separated by whitespace.  Counts and indices are 1 to 18
ASCII digits; a dart is an optional ``-`` followed by 1 to 18 ASCII
digits.  Darts must be distinct and non-negative: a negative dart is
accepted by the parser and rejected by validation, which names it.  Edge
index j is GF(2) coordinate j throughout the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable

from . import gf2
from .errors import InternalInvariantError, InvalidGraphError, RotationParseError
from .gf2 import GF2Matrix

_LISTED = 10  # error messages name at most this many indices


def _listing(ascending: Iterable[int], total: int) -> str:
    """The first ``_LISTED`` indices as a list, plus the total when cut short."""
    shown = list(islice(ascending, _LISTED))
    more = f" ({total} in total)" if total > len(shown) else ""
    return f"{shown}{more}"


@dataclass(frozen=True)
class FaceSet:
    """Face orbits of an embedding; each orbit starts at its smallest dart."""

    faces: tuple[tuple[int, ...], ...]
    face_of_dart: dict[int, int]

    @property
    def count(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class EmbeddedGraph:
    """A connected rotation system.  Immutable; derived data is cached.

    ``rotations[i]`` is the ccw cyclic dart order at vertex i and
    ``edge_darts[j]`` the dart pair of edge j.  Construction validates the
    structure and raises :class:`InvalidGraphError` on any defect.
    """

    rotations: tuple[tuple[int, ...], ...]
    edge_darts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rotations", tuple(tuple(map(int, rot)) for rot in self.rotations)
        )
        object.__setattr__(
            self, "edge_darts", tuple((int(a), int(b)) for a, b in self.edge_darts)
        )
        self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return len(self.edge_darts)

    def _validate(self) -> None:
        seen: set[int] = set()
        for rot in self.rotations:
            for d in rot:
                if d < 0:
                    raise InvalidGraphError(f"negative dart id {d}")
                if d in seen:
                    raise InvalidGraphError(f"duplicate dart {d} in rotations")
                seen.add(d)
        paired: set[int] = set()
        for j, (a, b) in enumerate(self.edge_darts):
            if a == b:
                raise InvalidGraphError(f"edge {j} pairs dart {a} with itself")
            for d in (a, b):
                if d in paired:
                    raise InvalidGraphError(f"duplicate dart {d} in edge pairs")
                paired.add(d)
                if d not in seen:
                    raise InvalidGraphError(f"dart {d} missing from rotations")
        unpaired = seen - paired
        if unpaired:
            raise InvalidGraphError(
                "darts missing from edge pairs: "
                + _listing(sorted(unpaired), len(unpaired))
            )
        if self.vertex_count == 0:
            raise InvalidGraphError("graph has no vertices")
        if len(self.spanning_forest(range(self.edge_count))) != self.vertex_count - 1:
            raise InvalidGraphError("disconnected graph")

    def spanning_forest(self, order: Iterable[int]) -> list[int]:
        """Kruskal: the edges of ``order`` that join two components so far.

        Union-find with path halving, stopping once V - 1 edges are taken,
        so the result spans the graph exactly when it has V - 1 edges.  In
        ascending order it is the lowest-index spanning tree, since edge
        indices are distinct weights.
        """
        parent = list(range(self.vertex_count))
        forest: list[int] = []
        dv = self.dart_vertex
        for j in order:
            if len(forest) == len(parent) - 1:
                break
            a, b = self.edge_darts[j]
            u, w = dv[a], dv[b]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            if u != w:
                parent[u] = w
                forest.append(j)
        return forest

    @cached_property
    def dart_vertex(self) -> dict[int, int]:
        return {d: v for v, rot in enumerate(self.rotations) for d in rot}

    @cached_property
    def dart_edge(self) -> dict[int, int]:
        return {d: j for j, pair in enumerate(self.edge_darts) for d in pair}

    @cached_property
    def alpha(self) -> dict[int, int]:
        """Fixed-point-free involution swapping the two darts of each edge."""
        out: dict[int, int] = {}
        for a, b in self.edge_darts:
            out[a] = b
            out[b] = a
        return out

    @cached_property
    def sigma(self) -> dict[int, int]:
        """Rotation successor: next dart counterclockwise at the same vertex."""
        out: dict[int, int] = {}
        for rot in self.rotations:
            for i, d in enumerate(rot):
                out[d] = rot[(i + 1) % len(rot)]
        return out

    @cached_property
    def sigma_inv(self) -> dict[int, int]:
        return {v: k for k, v in self.sigma.items()}

    def edge_endpoints(self, j: int) -> tuple[int, int]:
        a, b = self.edge_darts[j]
        return self.dart_vertex[a], self.dart_vertex[b]

    # -- faces, genus, dual ------------------------------------------------

    @cached_property
    def faces(self) -> FaceSet:
        """Orbits of d -> sigma(alpha(d)), indexed by their smallest dart.

        A vertex with an empty rotation contributes one (dartless) face;
        for a valid top-level graph this only happens for the one-vertex
        graph, but sub-ribbons rely on the same convention.
        """
        sigma = self.sigma
        alpha = self.alpha
        orbits: list[tuple[int, ...]] = []
        face_of: dict[int, int] = {}
        for start in sorted(alpha):
            if start in face_of:
                continue
            orbit = []
            d = start
            while True:
                orbit.append(d)
                face_of[d] = len(orbits)
                d = sigma[alpha[d]]
                if d == start:
                    break
            orbits.append(tuple(orbit))
        for rot in self.rotations:
            if not rot:
                orbits.append(())
        return FaceSet(tuple(orbits), face_of)

    @property
    def face_count(self) -> int:
        return self.faces.count

    @property
    def genus(self) -> int:
        """Genus from Euler's formula for the connected embedding."""
        two_g = 2 - self.vertex_count + self.edge_count - self.face_count
        if two_g < 0 or two_g % 2:
            raise InternalInvariantError(
                f"Euler characteristic is inconsistent: 2 - v + e - f = {two_g}"
            )
        return two_g // 2

    def dual(self) -> "EmbeddedGraph":
        """The dual embedding: one vertex per face, edge indexing preserved.

        The dual rotation at a face is its boundary orbit, so the dual of
        the dual recovers the primal vertex/face structure.  It is built
        and validated once per graph.
        """
        return self._dual

    @cached_property
    def _dual(self) -> "EmbeddedGraph":
        return EmbeddedGraph(self.faces.faces, self.edge_darts)

    # -- incidence matrices --------------------------------------------------

    def _incidence(self, end_of_dart: dict[int, int], count: int) -> GF2Matrix:
        """``count`` rows; edge j lies in the rows of its two darts' ends.

        An edge whose darts share an end appears there twice and cancels.
        """
        rows = [0] * count
        for j, (a, b) in enumerate(self.edge_darts):
            u, w = end_of_dart[a], end_of_dart[b]
            if u != w:
                rows[u] |= 1 << j
                rows[w] |= 1 << j
        return GF2Matrix(self.edge_count, tuple(rows))

    @cached_property
    def incidence_matrix(self) -> GF2Matrix:
        """Vertex-edge incidence over GF(2); loops contribute zero columns."""
        return self._incidence(self.dart_vertex, self.vertex_count)

    @cached_property
    def dual_incidence_matrix(self) -> GF2Matrix:
        """Face-edge incidence mod 2; equals the dual graph's incidence matrix.

        Entry (f, j) is the parity of how often edge j appears on the
        boundary walk of face f, so bridges traversed twice cancel out.
        """
        return self._incidence(self.faces.face_of_dart, self.face_count)

    @cached_property
    def cocycle_intersection(self) -> GF2Matrix:
        """RREF basis of U cap U*, the row spaces of the two incidence matrices.

        One Zassenhaus elimination per graph, read by every check that
        compares U cap U* with the strand space or the strand kernel.
        """
        return gf2.row_space_intersection_basis(self.incidence_matrix, self.dual_incidence_matrix)

    def is_cycle(self, u: int) -> bool:
        """True iff the edge set u lies in the cycle space.

        The cycle space is the kernel of the incidence matrix: every vertex
        meets an even number of the edges of u.  One pass over the set bits
        of u toggles the parity of both endpoints of each edge; a loop
        toggles its vertex twice and cancels, like its zero incidence
        column.  The dual keeps the edge indexing and its vertex i is face
        i, so ``g.dual().is_cycle(u)`` asks the same of the face rows.
        """
        if u < 0 or u >> self.edge_count:
            raise ValueError("vector length does not match the edge count")
        parity = bytearray(self.vertex_count)
        vertex_of = self.dart_vertex
        rest = u
        while rest:
            low = rest & -rest
            a, b = self.edge_darts[low.bit_length() - 1]
            parity[vertex_of[a]] ^= 1
            parity[vertex_of[b]] ^= 1
            rest ^= low
        return 1 not in parity

    # -- spanning sub-ribbons ------------------------------------------------

    def subset_counter(self) -> Callable[[int], tuple[int, int]]:
        """Return a function mapping an edge bitmask to (k(H), f(H)).

        k(H) counts connected components of the spanning subgraph (all
        vertices kept) and f(H) its faces when re-traced as a ribbon
        subgraph, with one face per isolated vertex.  Each call rebuilds
        H from its set bits alone: per present edge one union-find step,
        then the face through each of its darts not yet traced.  A face
        is an orbit of phi_H(d) = sigma_H(alpha(d)), the first present
        dart after alpha(d) in its rotation; the scan stops at alpha(d)
        itself at the latest.  The gaps scanned at one vertex are
        disjoint, so they total at most its degree, and a call costs
        O(V) plus the present edges and the degrees of their endpoints.
        A mask outside [0, 2^E) raises :class:`ValueError`, as in
        :meth:`is_cycle`.  The returned callable owns its scratch buffers,
        so each call site is independent and safe to use concurrently.
        """
        m = self.edge_count
        index_of = {d: i for i, d in enumerate(sorted(self.alpha))}
        bit = [1 << self.dart_edge[d] for d in index_of]
        # every rotation written out twice, so the darts after alpha(x) run
        # on from after[x] without wrapping, up to alpha(x)'s second copy
        ring: list[int] = []
        after = [0] * len(bit)
        vertex_masks = []
        for rot in self.rotations:
            darts = [index_of[d] for d in rot]
            for i, d in enumerate(rot):
                after[index_of[self.alpha[d]]] = len(ring) + i + 1
            ring += darts + darts
            vertex_mask = 0
            for x in darts:
                vertex_mask |= bit[x]
            vertex_masks.append(vertex_mask)
        ring_bit = [bit[x] for x in ring]
        dv = self.dart_vertex
        edges = [(dv[a], dv[b], (index_of[a], index_of[b])) for a, b in self.edge_darts]
        nv = self.vertex_count
        seen = [0] * len(bit)
        parent = list(range(nv))
        stamp = 0

        def count(mask: int) -> tuple[int, int]:
            nonlocal stamp
            # a negative mask never runs out of set bits
            if mask < 0 or mask >> m:
                raise ValueError("vector length does not match the edge count")
            stamp += 1
            parent[:] = range(nv)
            k = nv
            faces = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                u, w, darts = edges[low.bit_length() - 1]
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[w] != w:
                    parent[w] = parent[parent[w]]
                    w = parent[w]
                if u != w:
                    parent[u] = w
                    k -= 1
                for x in darts:
                    if seen[x] == stamp:
                        continue
                    faces += 1
                    while seen[x] != stamp:
                        seen[x] = stamp
                        i = after[x]
                        while not ring_bit[i] & mask:
                            i += 1
                        x = ring[i]
            for vertex_mask in vertex_masks:
                if not vertex_mask & mask:
                    faces += 1
            return k, faces

        return count


# -- text format -------------------------------------------------------------

# At most 18 digits: a larger count, index or dart could not fit in memory
# anyway, and int() never sees a long token.  A dart may carry a sign so
# that validation can name a negative dart.  A line's darts are checked
# at once, joined by single spaces: one match instead of one per dart.
_NATURAL = re.compile("[0-9]{1,18}")
_DART = "-?[0-9]{1,18}"
_DARTS = re.compile(f"(?:{_DART}(?: {_DART})*)?")

# line keyword -> header, header usage, noun, line usage, missing-line wording
_LINE_KINDS = {
    "v": ("vertices", "'vertices <n>'", "vertex", "'v <i>: <darts...>'",
          "rotation lines for vertices"),
    "e": ("edges", "'edges <m>'", "edge", "'e <j>: <dart> <dart>'",
          "edge lines for edges"),
}
_HEADERS = {kind[0]: word for word, kind in _LINE_KINDS.items()}


def parse_rotation_system(text: str) -> EmbeddedGraph:
    """Parse the rotation-system text format into a validated graph.

    Each line either passes every check of its kind and is stored, or
    falls through to the one ``raise`` with the first check it failed.
    """
    counts: dict[str, int] = {}  # line keyword -> the count in its header
    found: dict[str, dict[int, tuple[int, ...]]] = {word: {} for word in _LINE_KINDS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        word = parts[0]
        if word in _HEADERS:
            kind = _HEADERS[word]
            if kind in counts:
                error = f"repeated {word!r} header"
            elif len(parts) != 2 or not _NATURAL.fullmatch(parts[1]):
                error = f"expected {_LINE_KINDS[kind][1]}"
            else:
                counts[kind] = int(parts[1])
                continue
        elif word in _LINE_KINDS:
            header, _, noun, usage, _ = _LINE_KINDS[word]
            head, _, tail = line.partition(":")
            fields, darts, lines = head.split(), tail.split(), found[word]
            if word not in counts:
                error = f"{word!r} line before {header!r} header"
            elif len(fields) != 2 or not _NATURAL.fullmatch(fields[1]):
                error = f"expected {usage}"
            elif (i := int(fields[1])) >= counts[word]:
                error = f"{noun} index {i} out of range"
            elif i in lines:
                error = f"repeated {noun} {i}"
            elif not _DARTS.fullmatch(" ".join(darts)):
                error = "darts must be integers"
            elif word == "e" and len(darts) != 2:
                error = "an edge needs exactly two darts"
            else:
                lines[i] = tuple(map(int, darts))
                continue
        else:
            shown = line if len(line) <= 40 else line[:40] + "..."
            error = f"unrecognized line {shown!r}"
        raise RotationParseError(f"line {lineno}: {error}")

    if len(counts) < len(_LINE_KINDS):
        raise RotationParseError("missing 'vertices' or 'edges' header")
    for word, (*_, missing) in _LINE_KINDS.items():
        count, lines = counts[word], found[word]
        if len(lines) < count:
            # Lazy: stops after _LISTED gaps, so it visits at most
            # len(lines) + _LISTED indices however large the header count is.
            gaps = (i for i in range(count) if i not in lines)
            raise RotationParseError(f"missing {missing} {_listing(gaps, count - len(lines))}")
    rotations, edges = found["v"], found["e"]
    return EmbeddedGraph(
        tuple(rotations[i] for i in range(len(rotations))),
        tuple(edges[j] for j in range(len(edges))),
    )


def format_rotation_system(g: EmbeddedGraph, header: str | None = None) -> str:
    """Serialize a graph in the same text format that the parser accepts."""
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}".rstrip())
    lines.append(f"vertices {g.vertex_count}")
    for i, rot in enumerate(g.rotations):
        darts = " ".join(str(d) for d in rot)
        lines.append(f"v {i}: {darts}".rstrip())
    lines.append(f"edges {g.edge_count}")
    for j, (a, b) in enumerate(g.edge_darts):
        lines.append(f"e {j}: {a} {b}")
    return "\n".join(lines) + "\n"
