"""Time one import of padiclift in a fresh interpreter, at reference speed.

    python3 bench/importtime.py WORKLOAD

Started by ``run.py`` with ``src`` on PYTHONPATH.  Before padiclift it
imports only what the interpreter has already loaded, so the time covers
every module that a user of the workload makes Python load: padiclift
(and padiclift.cli for ``cli``) with the standard modules they pull in.
The CPU time of the import is scaled by the reference loop of
``worker.py``, run after it.  Prints one JSON object.
"""

import os
import sys
import time


def main(workload):
    t0 = time.process_time()
    import padiclift
    if workload == "cli":
        import padiclift.cli  # noqa: F401
    elapsed = time.process_time() - t0

    import json
    import statistics

    import worker

    worker.check_source(padiclift)
    for _ in range(worker.REF_WARMUP):
        worker.reference()
    ref = statistics.median(worker.reference_s() for _ in range(worker.SETUP_REFS))
    print(json.dumps({"setup_s": elapsed * worker.REF_S / ref}))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(sys.argv[1])
