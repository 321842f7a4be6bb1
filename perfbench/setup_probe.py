"""Child process for ``setup_s``: import nilqp from ``<root>/src`` and build the catalog.

Prints the seconds from before the import to after the first
``catalog_keys()``, which is what every CLI invocation pays, then the speed
probe's time in this same process (it may run on another CPU than the parent).
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nilqp  # noqa: E402

nilqp.catalog_keys()
elapsed = time.perf_counter() - t0

import speed  # noqa: E402

print(elapsed, speed.probe())
