"""Record SHA-256 digests of the exact outputs for the reserved seeds.

    python3 bench/record_digests.py

Runs each workload that has exact outputs, untraced, for seeds 1 and 2 at
--seconds 20, and writes bench/digests.json. run.py then counts any task
whose exact output differs from its recorded digest as failed, which gives
a rewrite the byte-identical check against the commit that recorded them.
Re-record only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (1, 2)
SECONDS = 20


def main() -> int:
    run.load_program()
    digests = {}
    for name in ("closed_loop_deep", "reldeg_batch", "envelope_sim"):
        for seed in SEEDS:
            result = run.run_workload(name, seed, SECONDS, trace=False)
            if not result["correct"]:
                print(f"{name} seed {seed} has unexpected failures; not recording", file=sys.stderr)
                return 1
            digests.update(result["digests"])
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
