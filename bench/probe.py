"""Set-up cost of a fresh process.

    python3 bench/probe.py MODULE [TABLE ...] [--layers]

Times the import of MODULE from the checkout's ``src``, ``catalog()`` and
each named lazy table of ``eightblocks.symmetry`` (``cell_perms``,
``group``, ``inverse_cell_perms``), and prints one JSON object.  With
``--layers`` it also times ``cell_perms`` after the set-up interval when
the workload does not build it, so the layer cost is known everywhere.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
args = [a for a in sys.argv[1:] if a != "--layers"]
module, tables = args[0], args[1:]

__import__(module)
imported = time.perf_counter()

from eightblocks import symmetry  # noqa: E402
from eightblocks.varieties import catalog  # noqa: E402

cat = catalog()
cataloged = time.perf_counter()
took = {}
for name in tables:
    t = time.perf_counter()
    getattr(symmetry, name)(cat)
    took[name] = time.perf_counter() - t
done = time.perf_counter()
if "--layers" in sys.argv and "cell_perms" not in took:
    t = time.perf_counter()
    symmetry.cell_perms(cat)
    took["cell_perms"] = time.perf_counter() - t

print(json.dumps({
    "setup_s": done - start,
    "import_s": imported - start,
    "catalog_s": cataloged - imported,
    "cell_perms_s": took.get("cell_perms", 0.0),
}))
