import gc
import subprocess
import sys

import pytest


@pytest.fixture(autouse=True)
def _thaw_heap():
    # cli.main freezes the heap of the process it runs in; after a test
    # that called it in-process, hand the session's objects back to the
    # collector
    yield
    gc.unfreeze()


def fresh_python(code: str, *args: str, site: bool = True, **env: str):
    """`python -c code *args` in a fresh interpreter, under -S unless
    site, with text output captured.  Its environment holds PATH, the
    test process's sys.path as PYTHONPATH and env alone."""
    flags = () if site else ("-S",)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True,
        text=True, env={"PATH": "/usr/bin:/bin",
                        "PYTHONPATH": ":".join(sys.path), **env})
