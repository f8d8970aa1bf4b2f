"""A cold ``import lepage.cli`` in a fresh interpreter.

    python3 bench/import_probe.py

Nothing but ``time`` is imported before the timed import, so the standard
library modules that ``lepage.cli`` pulls in count as part of it.  The last
line of standard output is a JSON object: ``import_s``, the import's
seconds; ``end``, the ``perf_counter`` reading when it finished; and
``refs``, the durations of ``speed.reference()`` run right after it, which
give the machine's slowdown at that moment.
"""
import time

start = time.perf_counter()
import lepage.cli  # noqa: E402,F401
end = time.perf_counter()

import json  # noqa: E402

import speed  # noqa: E402

PROBES = 5

print(json.dumps({"import_s": end - start, "end": end,
                  "refs": [speed.timed_reference() for _ in range(PROBES)]}))
