import numpy as np
import pytest

import jdl.autodiff.tensor as tensor


@pytest.fixture
def float64(monkeypatch):
    """Run the test's graphs in float64.

    Float32 carries about 7 digits, so a central difference of step 1e-5
    keeps about 2 of them: too few for the 1e-4 gradient tolerances, as 7
    are for a 1e-12 comparison. Only tensors made while the test runs take
    the dtype, so such a test builds its model itself.
    """
    monkeypatch.setattr(tensor, "DTYPE", np.float64)
