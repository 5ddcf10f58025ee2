"""Exception hierarchy shared by all vacuumflow modules."""


def shown_int(n: int) -> str:
    """An integer for a message: in full up to 16 digits, else in %g form (a
    float such as 1e300 loads as the 301-digit integer int(1e300)), or as its
    digit count past the float range (a JSON integer literal may be that long)."""
    if abs(n) < 10**16:
        return str(n)
    try:
        return f"{n:g}"
    except OverflowError:
        return f"an integer of {len(str(abs(n)))} digits"


class VacuumFlowError(Exception):
    """Base class for all library errors."""


class ConfigError(VacuumFlowError):
    """A scenario configuration violates the schema or a physical invariant."""


class NonNegativeField(VacuumFlowError):
    """The vacuum potential evaluated to a non-negative value on a trajectory."""


class SuperluminalInit(VacuumFlowError):
    """A lab velocity with |u| >= 1 was supplied."""


class SubluminalViolation(VacuumFlowError):
    """A square-root guard W^2 - |mom|^2 dropped below the positivity threshold."""


class ZeroTestCharge(VacuumFlowError):
    """Vector-potential evaluation requested with q_test = 0."""


class TooShort(VacuumFlowError):
    """A trajectory has too few samples for the requested diagnostic."""


class NoConvergence(VacuumFlowError):
    """Implicit solve failed to converge within max_iter iterations."""


class NoOverlap(VacuumFlowError):
    """Two trajectories share no lab-time interval."""


class CFLViolation(VacuumFlowError):
    """Wave-grid time step exceeds the 3-D stability bound dt <= h/sqrt(3)."""


class InsufficientHistory(VacuumFlowError):
    """Not enough stored time levels for centered time derivatives."""


class BallExitsGrid(VacuumFlowError):
    """The advected ball leaves the sampled grid during the series."""


class NonPositiveMass(VacuumFlowError):
    """A mass profile m(x) = -W(x) has a non-positive entry."""


class SolveFailure(VacuumFlowError):
    """The Crank-Nicolson linear system could not be solved."""


class SuperluminalMode(VacuumFlowError):
    """Dispersion check requested with hbar*|k| >= |W|."""
