"""Acceptance gate: every criterion runs at its stated tolerance.

One test per criterion; each prints its pass/fail line and the clause-level
details.  Criterion 6 carries a known-unattainable clause (the truncated
Dirichlet eigenvalue of the hyperbolic ball B_20 is 0.2717, which misses the
required 0.25 +/- 0.02 by 0.0017; see the suite output for the analysis) and
is expected to stay red until the tolerance is revised.
"""

import pytest

from staticlab import acceptance


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA))
def test_criterion(number, capsys):
    result = acceptance.run_criterion(number, seed=42)
    with capsys.disabled():
        print()
        print(result.line())
        for line in result.details:
            print(f"    {line}")
    assert result.passed, f"criterion {number} failed; see details above"


def test_criterion_9_details_pinned():
    # the sweeps are seeded: how the kernels split their rows must not move a digit
    assert acceptance.run_criterion(9, seed=42).details == (
        "pseudo-Jacobi m=2: min gap over 1e4 samples = 2.220e-03 (>= -1e-10): ok",
        "pseudo-Jacobi m=3: min gap over 1e4 samples = 5.437e-01 (>= -1e-10): ok",
        "pseudo-Jacobi m=4: min gap over 1e4 samples = 6.475e+00 (>= -1e-10): ok",
        "pseudo-Jacobi m=5: min gap over 1e4 samples = 1.798e+01 (>= -1e-10): ok",
        "pseudo-Jacobi m=6: min gap over 1e4 samples = 3.391e+01 (>= -1e-10): ok",
        "coercivity: min gap over 1e5 pairs = 0.000e+00 (>= 0): ok",
        "quantified equality case: 2000 pairs with gap <= 1e-12, max |X-Y| among them = 9.793e-10 (<= 1e-6): ok",
    )
