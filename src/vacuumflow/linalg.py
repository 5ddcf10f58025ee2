"""LAPACK on first use: the package's one runtime scipy dependency.

`import vacuumflow` loads no scipy module.  The first call of lapack() imports
scipy.linalg.lapack; the Crank-Nicolson factor (quantum: zgttrf, zgttrs) and
the trajectory spline (integrate: dgtsv, dgesv) share it.
"""

from __future__ import annotations

from functools import cache


@cache
def lapack():
    """scipy.linalg.lapack, imported by the first call."""
    from scipy.linalg import lapack as module

    return module
