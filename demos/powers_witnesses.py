"""The set calculus on irreducibles and paradoxicality witnesses.

Subsets of a group dual's irreducibles are represented exactly through
prefix cylinders of the reduced-word tree, closed under union,
intersection, complement and products with finite sets.  A witness is a
finite set F avoiding the unit, a partition D | E, and three classes
whose E-translates are pairwise disjoint.
"""

import fusionkit as fk
from fusionkit.powers import WordSet

f2 = fk.GroupDualSystem([None, None], names=["s", "t"])

s = f2.parse_label("s")
T = WordSet.make(f2, cylinders=[f2.parse_label("t").payload])
print("{s} o Cyl(t) =", fk.set_product(f2, WordSet.finite(f2, [s]), T))

print("\nsearching a witness for F = {s, s^-1} on the free group dual...")
witness = fk.search_witness(f2, [s, f2.parse_label("s^-1")], budget=2)
print("  D =", witness.D)
print("  E =", witness.E)
print("  r =", [f2.format_label(r) for r in witness.r_labels()])
verdict = fk.check_witness(f2, witness)
print("  holds:", verdict.holds, "| exact:", verdict.exact)

print("\nthe same search on the dual of Z finds nothing (and proves nothing):")
z = fk.GroupDualSystem([None])
print("  result:", fk.search_witness(z, [z.parse_label("g1")], budget=3))

print("\nwhy no witness can start with D = positive powers of g:")
g = z.parse_label("g1")
D = WordSet.make(z, cylinders=[g.payload])
FD = fk.set_product(z, WordSet.finite(z, [g]), D)
print("  {g} o D =", FD, " meets D:", FD.meets(D))
