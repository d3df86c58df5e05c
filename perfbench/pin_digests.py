"""Pin the SHA-256 of each sweep call's record stream in digests.json.

    python3 perfbench/pin_digests.py

The digests come from a one-worker run of each unit's job through the
library, at full size and at the reduced size of ``--tiny``. A unit's stream
does not depend on the seed, so each size has one set of digests for every
seed; the script checks that on a second seed. Re-pin only when a change is meant to alter the
record stream.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def digests(name: str, seed: int, tmp: Path, tiny: bool) -> dict[str, str]:
    return workloads.build(name, seed, run.load_package(), tmp, tiny).unit_digests()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pins = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name in ("sweep",):
            pins[name] = {}
            for size, tiny in (("full", False), ("tiny", True)):
                first, second = (digests(name, seed, Path(tmp), tiny) for seed in (0, 1))
                if first != second:
                    print(f"error: {name} {size} stream depends on the seed", file=sys.stderr)
                    return 1
                pins[name][size] = dict(sorted(first.items()))
    workloads.PINNED_DIGESTS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
