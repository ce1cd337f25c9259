#!/usr/bin/env python3
"""Walkthrough: counting classes through the homology of the surface.

On positive genus the class count is 2^(2g + b), where b is the dimension
of the part of the strand space that is null-homologous.  The projection
to H_1 comes from a spanning tree of the graph and a disjoint spanning
tree of the dual: the 2g leftover edges close fundamental cycles in the
co-tree, and pairing against them reads off homology coordinates.
"""

from bicolorgame import (
    class_count_direct,
    class_count_homology,
    fundamental_dual_cycles,
    homology_image,
    strand_kernel_basis,
    trace_medial,
    tree_cotree,
)
from bicolorgame.fixtures import load_fixture
from bicolorgame.gf2 import vector_to_string

g = load_fixture("torus_square_handles")
tc = tree_cotree(g, tree_edges=(0, 2, 3, 4, 6))

print("Tree / co-tree decomposition (edge indices):")
print(f"  spanning tree T   {tc.tree_edges}")
print(f"  dual co-tree C    {tc.cotree_edges}")
print(f"  leftover (2g)     {tc.leftover_edges}")
print()

cycles = fundamental_dual_cycles(g, tc)
print("Fundamental cycles closed by the leftover edges (edge coordinates):")
for j, row in zip(tc.leftover_edges, cycles.row_strings()):
    print(f"  edge {j}: {row}")
print()

mc = trace_medial(g)
print("Homology images of the strand vectors:")
for i, v in enumerate(mc.trace_vectors):
    image = homology_image(g, cycles, v)
    print(f"  strand {i} -> {vector_to_string(image, len(tc.leftover_edges))}")
print()

b = strand_kernel_basis(g, tc).nrows
print(f"The image has rank 2, the strand space dimension 3, so b = {b}.")
print(f"Class count 2^(2g + b) = 2^(2*{g.genus} + {b}) = {class_count_homology(g, tc)}")
print(f"Direct linear-algebra count agrees: {class_count_direct(g)}")
