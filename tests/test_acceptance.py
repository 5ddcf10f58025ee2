"""Acceptance gate: every verification criterion at its stated tolerance.

One case per report in verify.CRITERIA, judged by verify.check against
config.DEFAULT_TOLERANCES, the single source of truth; each checked value
prints one PASS/FAIL line (run pytest -s to see them inline).  Each case first
asserts that its row checks exactly the values CHECKED names, so a value
dropped from or added to a row fails here.  The wall-clock gates of the
table's rows are asserted here and nowhere else.
"""

import pytest

from vacuumflow import verify

_MODELS = ("M0", "M1", "M2", "M3")
_RATIOS = ("gauss", "faraday", "ampere", "nomono")

# every report's checked values, label -> tolerance key, in the table's order;
# by criterion: 1 energy conservation, 2 mass law, 3 dual-model/Lorentz
# equivalence, 4 force gap and uniform-A coincidence, 5 Legendre/Hamiltonian
# consistency and the canonical vector field, 6 Euler-Lagrange defect,
# 7 wave/Maxwell equivalence, 8 advected conservation, 9 factorization
# remainder, 10 quantum evolution
CHECKED = {
    "energy_drift_by_model": {f"{m} drift": "energy_drift" for m in _MODELS[1:]},
    "mass_law_deviation": {"max |mass law - E0|/E0": "mass_law"},
    "gyration_deviations": dict.fromkeys(("m3_vs_m0", "m3_vs_circle", "m0_vs_circle"), "gyration_pos_dev"),
    "force_gap_stats": {"max identity dev": "force_gap"},
    "uniform_a_deviation": {"M2/M3 pos dev": "uniform_a_pos_dev"},
    "legendre_consistency": {**{f"{m} hamiltonian_rel": "legendre_rel" for m in _MODELS},
                             **{f"{m} momentum_fd_rel": "momentum_fd_rel" for m in _MODELS}},
    "vector_field_fd": {f"{m} gradient_fd_rel": "gradient_fd_rel" for m in _MODELS},
    "el_convergence": {"residual ratio": "el_ratio_band"},
    "prop1_suite": {**{f"{g} {k} ratio": "maxwell_ratio_band" for g in ("plane", "dipole") for k in _RATIOS},
                    "violated gauss ratio": "gauge_violated_ratio_max"},
    "advected_report": {"co-moving variation": "advected_comoving_rel",
                        "fixed-ball variation": "advected_fixed_min"},
    "dispersion_report": {"exponent": "dispersion_exponent_band", "error(0.2)": "dispersion_error_width"},
    "norm_drift_report": {f"{k} norm_drift": "norm_drift"
                          for k in ("free_vacuum", "minimal_coupling", "modified")},
    "packet_dispersion_report": {"packet law": "packet_sigma_rel"},
    "model_gap_report": {"gap_zero_a": None, "gap_zero_q": None, "plane-wave gap err": "model_gap"},
}
CASES = tuple(CHECKED)


def test_cases_match_the_table():
    """Each table row has exactly one case, so neither list can drift from the other."""
    assert len(CASES) == len(set(CASES)) and set(CASES) == set(verify.CRITERIA)


@pytest.mark.parametrize("name", CASES)
def test_criterion(name):
    row = verify.CRITERIA[name]
    report = row.run() if row.run else getattr(verify, name)()
    checked = row.values(report)
    assert [(label, key) for label, _, key in checked] == list(CHECKED[name].items())
    lines = [(label, *verify.check(value, key)) for label, value, key in checked]
    if row.gate_s is not None:
        wall = row.wall(report)
        lines.append(("wall", wall < row.gate_s, f"{wall:.2f}s < {row.gate_s:g}s"))
    for label, ok, detail in lines:
        print(f"[acceptance] {row.number} {name}: {label} {detail} {'PASS' if ok else 'FAIL'}")
    assert all(ok for _, ok, _ in lines)
