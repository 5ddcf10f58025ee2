"""LAPACK on first use: the package's one runtime scipy dependency.

`import vacuumflow` loads no scipy module.  The first call of lapack() imports
scipy.linalg.lapack, for the Crank-Nicolson factor (quantum: zgttrf, zgttrs).
"""

from __future__ import annotations

from functools import cache


@cache
def lapack():
    """scipy.linalg.lapack, imported by the first call."""
    from scipy.linalg import lapack as module

    return module
