"""Supersingular loci of the mod-p elliptic moduli (p > 3), their
Teichmuller/Witt lifts, and formal-group verification of the height-2
structure constants.

Subpackage map:

- arith        F_p and (Z/p^N)[x]/(x^2 + g0): F_{p^2} and
               W(F_{p^2})/p^N
- polyseries   dense polynomials and truncated power/Laurent series
- modforms     exact q-expansions, E4^a E6^b Delta^i basis, ss polynomial
- sslocus      Deuring criterion, point-count oracle, cross-validation
- padicwitt    Teichmuller modulus and lifts, Hensel lifts, splitting
- formalgroup  [p]-series, v1/v2, Deligne and Gross-Landweber checks
- cli          ellwitt command-line surface and JSON reports
"""

__version__ = "0.1.0"
