"""Supersingular loci of the mod-p elliptic moduli (p > 3), their
Teichmuller/Witt lifts, and formal-group verification of the height-2
structure constants.

Module map:

- arith        F_{p^2} and W(F_{p^2})/p^N in one ring, Quad; F_p is int
- polyseries   int-list F_p polynomials, Poly, truncated series, Z[[t]] kernels
- modforms     integer q-expansions, E4^a E6^b Delta^i solve, ss_p(X)
- sslocus      Deuring, point-count and closed-form routes, Ogg scan
- padicwitt    Teichmuller modulus and lifts, Hensel lifts, splitting
- formalgroup  [p]-series in Z[[t]], v1/v2, Deligne and Gross-Landweber
- report       the Report class, canonical JSON, base-p digit strings
- cache        content-addressed on-disk cache
- errors       exception types shared across the package
- cli          the `ellwitt` command
"""

__version__ = "0.1.0"
