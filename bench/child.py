"""One benchmark request: ``python3 bench/child.py <argv...>``.

First times ``reference.reference_work`` (see reference.py), then imports
``ellwitt.cli`` and calls ``main(argv)``, as the ``ellwitt`` console
script does.  Before dispatch it writes three numbers to the file named
by BENCH_READY_FILE: the monotonic time at which the CLI was ready, and
the wall and CPU seconds the reference work took.  When BENCH_TRACE_FILE
is set it first installs the tracer and, on exit, writes the spans and
counts there as JSON.
"""

import os
import sys
import time

from reference import reference_work

ref_wall, ref_cpu = time.monotonic(), time.process_time()
reference_work()
ref_wall, ref_cpu = (time.monotonic() - ref_wall,
                     time.process_time() - ref_cpu)

from ellwitt.cli import main  # noqa: E402

ready = time.monotonic()
with open(os.environ["BENCH_READY_FILE"], "w") as fh:
    fh.write(f"{ready!r} {ref_wall!r} {ref_cpu!r}")

trace_file = os.environ.get("BENCH_TRACE_FILE")
if not trace_file:
    sys.exit(main(sys.argv[1:]))

import json  # noqa: E402

import tracer  # noqa: E402

rec = tracer.Recorder()
tracer.install(rec)
try:
    code = main(sys.argv[1:])
finally:
    with open(trace_file, "w") as fh:
        json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
sys.exit(code)
