"""Parameter lists, quantum dimension and the modular spectrum.

Lists are exact multisets of positive monomials attached to classes; they
add by union, multiply pairwise and invert under conjugation, so they can
be derived for every irreducible from the fundamental list alone.  The
modular spectrum is the subgroup of the positive reals generated by the
squared pair products, kept as an integer exponent lattice.
"""

from fractions import Fraction

import fusionkit as fk
from fusionkit import Param, ParamList

ao = fk.AoSystem(2)
fund = ParamList.parse(["q", "q^-1"])
lists = fk.derive_irreducible_lists(ao, fund, depth=6)
print("derived lists on the 2-dimensional deformation:")
for k in range(1, 7):
    lab = ao.r(k)
    print(f"  list(r{k}) = {lists[lab]}   qdim at q=1.3: "
          f"{fk.qdim(lists[lab], {'q': 1.3}):.4f}")

print("\nKac check: all-ones list ->", fk.is_kac(ParamList.kac(4)),
      "| q-list ->", fk.is_kac(fund))

lat = fk.modular_spectrum(ParamList.parse(["2^1/2", "2^-1/2"]))
print("\nmodular spectrum of {sqrt 2, 1/sqrt 2}:", lat.describe())
for value in (16, 2, 1):
    print(f"  {value} in the lattice:", lat.contains(Param.from_rational(value)))

mu = Param.generator("mu")
lat_mu = fk.modular_spectrum(ParamList([mu ** Fraction(1, 2), mu ** Fraction(-1, 2)]))
print("formal case {sqrt mu, 1/sqrt mu}:", lat_mu.describe(), "(= mu^2Z)")

print("\ntrig evaluation of the q-list at t = 0.5, q = 2:",
      fk.trig_eval(fund, 0.5, {"q": 2.0}))
