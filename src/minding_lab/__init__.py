"""Numerical laboratory for surfaces of constant Gauss curvature -1.

The package checks, on desk-scale grids, each computable step of the
classical chain from a sine-Gordon angle field to hyperbolic geometry:
synthesize a surface from an angle field, verify the moving-frame
compatibility equations, test the conformal factor against the Liouville
equation in weak form, solve the associated Dirichlet problems, flatten
metrics to isothermic coordinates, and develop conformal factors into
the Poincare disk.
"""

__version__ = "0.1.0"
