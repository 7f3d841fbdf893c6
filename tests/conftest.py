import pytest

from boundfilter import kernels


@pytest.fixture(params=["jit", "numpy"])
def kernel_path(request, monkeypatch):
    """Run the decorated test on both walks of the shot lottery.

    "jit" decides one shot per block, as the former compiled kernel walked
    the shots one at a time; "numpy" uses the default LOTTERY_BLOCK.  Both
    must give the same counts.  Tests that never reach the lottery run the
    same code under both ids.
    """
    if request.param == "jit":
        monkeypatch.setattr(kernels, "LOTTERY_BLOCK", 1)
    return request.param
