import pytest

from boundfilter import kernels


@pytest.fixture(params=["jit", "numpy"])
def kernel_path(request, monkeypatch):
    """Run the decorated test on two block sizes of the shot lottery.

    "jit" sets LOTTERY_BLOCK to 1, so every block holds one shot and the
    blocks are split over the workers like those of any multi-block call
    (the 5000 one-shot blocks of `test_kernel_paths_agree` run on two
    threads on a host with two CPUs); "numpy" keeps the shipped
    LOTTERY_BLOCK.  Both must give the same counts.  Tests that never reach
    the lottery run the same code under both ids.
    """
    if request.param == "jit":
        monkeypatch.setattr(kernels, "LOTTERY_BLOCK", 1)
    return request.param
