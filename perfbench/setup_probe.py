"""Set-up probe: a fresh interpreter imports charfield and builds one
workload's inputs, then prints their digest.  run.py times it.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import charfield  # noqa: E402,F401
import charfield.cli  # noqa: E402,F401
import inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    print(inputs.digest(inputs.make_inputs(workload, seed)))
