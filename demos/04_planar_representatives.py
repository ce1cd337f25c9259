#!/usr/bin/env python3
"""Walkthrough: canonical class representatives for a plane graph.

On the sphere the dual cut space equals the cycle space, the class count
is |T(-1, -1)|, and one distinguished edge per basis strand yields
explicit representatives for every class.
"""

from bicolorgame import (
    class_count_direct,
    coloring_to_string,
    planar_representatives,
    trace_medial,
    tutte_eval,
    verify_representatives,
)
from bicolorgame.fixtures import load_fixture

g = load_fixture("plane_two_triangles")
print("A planar graph with 5 vertices and 8 edges: two triangles sharing")
print("a doubled edge, plus a digon tail.")
print()

c = trace_medial(g).count
t_value = tutte_eval(g, -1, -1)
print(f"medial strands        c = {c}")
print(f"Tutte value           T(-1,-1) = {t_value}")
print(f"class count           |T(-1,-1)| = {abs(t_value)} = 2^(c-1)")
assert abs(t_value) == class_count_direct(g)
print()

rs = planar_representatives(g)
print(f"distinguished edges   {rs.edges}")
print("representative colorings, one per class:")
for w in rs.colorings():
    print(f"  {coloring_to_string(g, w)}")
print()
print(f"pairwise inequivalent and exhaustive: {verify_representatives(g, rs)}")
