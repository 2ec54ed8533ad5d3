"""Fixtures shared by the test modules."""

import gc

import pytest


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """Run the test with the cyclic garbage collector on, then off."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()
