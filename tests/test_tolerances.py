import math

from asym import tolerances


def test_default_tolerances():
    # the three decision cuts are fixed: sym(psi), the zero set and the Gram rule
    cuts = (tolerances.TOL_ONE, tolerances.TOL_ZERO, tolerances.TOL_PSD)
    assert cuts == (1e-10, 1e-10, 1e-9)


def test_tolerances_accept_every_value_inside_it():
    # every cut of the package is a finite float inside the open unit interval
    cuts = {name: x for name, x in vars(tolerances).items() if name.startswith("TOL_")}
    assert {"TOL_ONE", "TOL_ZERO", "TOL_PSD"} <= set(cuts)
    for name, x in cuts.items():
        assert type(x) is float and math.isfinite(x) and 0 < x < 1, name
