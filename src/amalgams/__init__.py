"""Exact computational commutative algebra for amalgamated constructions.

Presentations of amalgamated algebras, duplications, and trivial
extensions over GF(p), with Hilbert-series certificates, homological
invariants (depth, dimension, Betti numbers, canonical module), ring
classification (Cohen-Macaulay, Gorenstein, quasi-Gorenstein, Serre
conditions), and an exact spectrum check for finite rings.
"""

__version__ = "0.1.0"
