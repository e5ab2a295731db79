"""One set-up, as a user pays it: start the interpreter, import zamobelt
and build the workload's bigraphs and inputs.

    python3 bench/setup_probe.py <workload>

`run.py` times whole runs of this script; it prints nothing.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from zamobelt import bigraph  # noqa: E402

import workloads  # noqa: E402

configs = workloads.experiments(sys.argv[1])
json.dumps(configs)
for target in workloads.targets(configs):
    bigraph.catalog(target)
bigraph.catalog_version()
