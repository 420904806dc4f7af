"""Exact stationary guiding fields for separable problems.

Reduces each separated coordinate sector to Liouville normal form, solves
the linear partner equation y'' + Omega^2(q) y = 0, assembles amplitude
solutions of rho'' + Omega^2 rho = k/rho^3 by quadratic-form superposition,
and certifies conservation of the Ermakov-Lewis invariant along the
coordinate.
"""

__version__ = "0.1.0"
