"""Acceptance gate: every verification criterion at its stated tolerance.

One case per report in verify.CRITERIA, judged by verify.check against
config.DEFAULT_TOLERANCES, the single source of truth; each checked value
prints one PASS/FAIL line (run pytest -s to see them inline).  The wall-clock
gates of the table's rows are asserted here and nowhere else.
"""

import pytest

from vacuumflow import verify

# by criterion: 1 energy conservation, 2 mass law, 3 dual-model/Lorentz
# equivalence, 4 force gap and uniform-A coincidence, 5 Legendre/Hamiltonian
# consistency and the canonical vector field, 6 Euler-Lagrange defect,
# 7 wave/Maxwell equivalence, 8 advected conservation, 9 factorization
# remainder, 10 quantum evolution
CASES = (
    "energy_drift_by_model", "mass_law_deviation", "gyration_deviations",
    "force_gap_stats", "uniform_a_deviation", "legendre_consistency", "vector_field_fd",
    "el_convergence", "prop1_suite", "advected_report", "dispersion_report",
    "norm_drift_report", "packet_dispersion_report", "model_gap_report",
)


def test_cases_match_the_table():
    """Each table row has exactly one case, so neither list can drift from the other."""
    assert len(CASES) == len(set(CASES)) and set(CASES) == set(verify.CRITERIA)


@pytest.mark.parametrize("name", CASES)
def test_criterion(name):
    row = verify.CRITERIA[name]
    report = row.run() if row.run else getattr(verify, name)()
    lines = [(label, *verify.check(value, key)) for label, value, key in row.values(report)]
    if row.gate_s is not None:
        wall = row.wall(report)
        lines.append(("wall", wall < row.gate_s, f"{wall:.2f}s < {row.gate_s:g}s"))
    for label, ok, detail in lines:
        print(f"[acceptance] {row.number} {name}: {label} {detail} {'PASS' if ok else 'FAIL'}")
    assert all(ok for _, ok, _ in lines)
