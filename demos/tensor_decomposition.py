"""Tensor decomposition in the four built-in families.

Every family exposes the same interface: labels for irreducible classes,
a cached pair rule, and exact bilinear extension to arbitrary elements.
"""

import fusionkit as fk

# Free orthogonal type: the step-2 interval rule with n-dependent dimensions.
ao = fk.AoSystem(3)
u = ao.fundamental()
print("== free orthogonal type, n = 3 ==")
for k in range(1, 5):
    print(f"  r2 (x) r{k} =", fk.format_element(ao, ao.tensor_pair(ao.r(2), ao.r(k))))
print("  dims r1..r6:", [ao.dim_irr(ao.r(k)) for k in range(1, 7)])

# Quantum automorphism type: the step-1 interval rule; fundamental s0 + s1.
aut = fk.AutSystem(4)
print("\n== quantum automorphism type, n = 4 ==")
print("  s1 (x) s1 =", fk.format_element(aut, aut.tensor_pair(aut.s(1), aut.s(1))))
fund = fk.fundamental(aut)
print("  fundamental:", fk.format_element(aut, fund), "dim", aut.dim(fund))

# Free unitary type: words over {a, b} with matched-cancellation fusion.
au = fk.AuSystem(2)
print("\n== free unitary type, n = 2 ==")
for x, y in [("a", "b"), ("a", "a"), ("ab", "ab")]:
    print(f"  r_{x} (x) r_{y} =", fk.format_element(au, au.tensor_pair(au.word(x), au.word(y))))
print("  bar('ab') =", fk.au_bar("ab"), "| dim r_ab =", au.dim_irr(au.word("ab")))

# Group duals: fusion is the group law on reduced words.
f2 = fk.GroupDualSystem([None, None], names=["s", "t"])
print("\n== dual of the free group on s, t ==")
x = f2.parse_label("s t")
y = f2.parse_label("t^-1 s")
print("  (s t)(t^-1 s) =", fk.format_element(f2, f2.tensor_pair(x, y)))

zmod = fk.GroupDualSystem([None, 3], names=["g", "h"])
print("  in Z * Z/3: h^2 h^2 =", fk.format_element(
    zmod, zmod.tensor_pair(zmod.parse_label("h^2"), zmod.parse_label("h^2"))))
