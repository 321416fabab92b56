"""Record the reference answers of the field-queries pool for the default
seed: one digest of (exit code, stdout) per query, in pool order.

    python3 perfbench/record_reference.py

Run it again only when a change to the library's output is intended; every
field-queries run with the default seed compares its answers to this file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    pool = inputs.field_inputs(workloads.DEFAULT_SEED)
    responses = []
    for query in pool:
        out = workloads.run_cli(query["argv"])
        responses.append(workloads.response_digest(out["code"], out["stdout"]))
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "pool_digest": inputs.digest(pool), "responses": responses},
        indent=0) + "\n")
    print(f"wrote {len(responses)} reference answers to {workloads.REFERENCE}")
