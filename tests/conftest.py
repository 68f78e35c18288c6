import gc

import pytest


@pytest.fixture(autouse=True)
def _thaw_heap():
    # cli.main freezes the heap of the process it runs in; after a test
    # that called it in-process, hand the session's objects back to the
    # collector
    yield
    gc.unfreeze()
