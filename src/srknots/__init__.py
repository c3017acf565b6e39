"""Exact-arithmetic toolkit for Alexander polynomials of simple-ribbon knots.

Laurent polynomial arithmetic over the integers, the fusion-factor product
formula and its block Seifert matrix counterpart, decomposition search with
obstruction pipeline, integer scans for determinant power products, and a
verified reference table of ribbon knots with up to ten crossings.
"""

__version__ = "0.1.0"
