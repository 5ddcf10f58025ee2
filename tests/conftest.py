import numpy as np
import pytest
from hypothesis import Phase, settings

from vacuumflow.fields import FieldSource, VacuumField

# reproducible property tests: the same examples on every run, no time limit,
# no example database; each test sets only its max_examples.  No explain phase:
# it runs only after a failure, where it can take minutes and about 1 GB
# before the failure is reported
settings.register_profile("vacuumflow", deadline=None, derandomize=True, database=None,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("vacuumflow")


@pytest.fixture
def uniform_field():
    """W = -1 everywhere, no sources."""
    return VacuumField(w_inf=-1.0)


@pytest.fixture
def static_source_field():
    """Single static softened source, the flyby potential."""
    return VacuumField(
        w_inf=-1.0,
        sources=(FieldSource(qs=0.5, r0=(0.0, 0.0, 0.0), uf=(0.0, 0.0, 0.0), eps=0.05),),
        q_test=1.0,
    )


@pytest.fixture
def moving_field():
    from vacuumflow.presets import moving_source_field

    return moving_source_field()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
