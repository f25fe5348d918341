"""pentacheck: an exact-computation workbench for pentagon line arrangements
over Q(sqrt(10 + 2*sqrt(5))) and for a cusp-deformation surface singularity.

Everything is computed in exact arithmetic: the quartic field, its Galois
group, projective line arrangements and their lattices, Groebner bases,
resultants, truncated power series, Milnor numbers, and gradient limits.
"""

__version__ = "2.0.0"
