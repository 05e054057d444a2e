"""Time the cold start of a fresh interpreter, stage by stage.

Run as `python3 perfbench/coldstart.py N` with the package on PYTHONPATH;
prints one JSON object: seconds to `import sevencubes`, then to
`import sevencubes.cli` (which pulls in numpy through `certify`), then for
the first `decompose(N)`, which builds the lazy tables.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import sevencubes  # noqa: E402

t1 = perf_counter()
import sevencubes.cli  # noqa: E402,F401

t2 = perf_counter()
sevencubes.decompose(int(sys.argv[1]))
t3 = perf_counter()
print(json.dumps({
    "setup.import_s": t1 - t0,
    "setup.cli_import_s": t2 - t1,
    "setup.first_call_s": t3 - t2,
}))
