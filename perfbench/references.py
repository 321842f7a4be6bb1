"""Reference answers of one workload, from its unmoved base algebras.

Run as a child of ``run.py``, so the references' memory stays out of the
workload process's ``peak_rss_mb``.  Prints one JSON list, one entry per base:

    python3 perfbench/references.py <root> <workload>
"""

import json
import os
import sys

sys.path[:0] = [os.path.join(sys.argv[1], "src"), os.path.join(sys.argv[1], "tests")]

import workloads  # noqa: E402

w = workloads.BY_NAME[sys.argv[2]]
print(json.dumps([w.reference(base) for base in w.bases()]))
