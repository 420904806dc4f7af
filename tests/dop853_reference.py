"""Independent reference for amplitude tests: the nonlinear equation by DOP853.

The package builds every amplitude from a fundamental pair.  Tests that check
that superposition compare it with this direct integration of
rho'' + Omega^2 rho = k / rho^3, which shares no code with the pair route.
"""

import numpy as np
from scipy.integrate import solve_ivp


def direct_amplitude(profile, k, grid, anchor, y0, rtol=1e-12, atol=1e-14):
    """rho on ``grid`` from data ``y0`` = (rho, rho') at ``anchor``.

    DOP853 integrates the half-ranges right and left of the anchor
    separately, each out to its grid end.
    """
    grid = np.asarray(grid, dtype=float)

    def rhs(q, y):
        w2 = float(profile.omega2_array(np.asarray(q)))
        return [y[1], -w2 * y[0] + k / y[0] ** 3]

    rho = np.empty(grid.size)
    right = grid >= anchor
    for mask, end in ((right, grid[-1]), (~right, grid[0])):
        if not mask.any():
            continue
        step = 1 if end > anchor else -1
        sol = solve_ivp(rhs, (anchor, float(end)), y0, method="DOP853",
                        t_eval=grid[mask][::step], rtol=rtol, atol=atol)
        assert sol.success, sol.message
        rho[mask] = sol.y[0][::step]
    return rho
