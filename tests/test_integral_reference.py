"""The closed form and the lattice-sum oracle against a third evaluation,
the polylog integral of `conftest.integral_reference`, on a fixed slice
of requests: C_j(1/4) and S_j(1/4) at b = 4, S_j(1/3) at b = 3, and a
non-unit a at (2, 3) and (3, 4)."""
import pytest
from mpmath import mp

from tornheim.numeric import Precision, eval_symbolic, lattice_sum
from tornheim.parity import EvalRequest, closed_form

from conftest import integral_reference

SIXTY = Precision(digits=60, tolerance=1e-45)
AGREE = mp.mpf("1e-40")


@pytest.mark.parametrize("req", [
    EvalRequest(1, 4, 1, 1, 3),     # C_5(1/4), S_4(1/4)
    EvalRequest(2, 3, 2, 1, 4),     # S_6(1/3)
    EvalRequest(1, 3, 1, 2, 2),     # S_4(1/3)
    EvalRequest(3, 4, 1, 2, 4),     # C_7(1/4)
], ids=lambda r: "{},{};{},{},{}".format(*r))
def test_closed_form_and_oracle_agree_with_integral(req):
    reference = integral_reference(*req, SIXTY.digits)
    sides = {"closed form": eval_symbolic(closed_form(req), SIXTY),
             "oracle": lattice_sum(req.factors, SIXTY)[0]}
    with mp.workdps(SIXTY.dps):
        off = {name: abs(x - reference) / abs(reference)
               for name, x in sides.items()}
    assert all(rel <= AGREE for rel in off.values()), {
        name: mp.nstr(rel, 3) for name, rel in off.items()}
