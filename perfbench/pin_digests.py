"""Record the artifact digests that `run.py` checks at seeds 0 and 1.

    python3 perfbench/pin_digests.py

Runs one untraced session per workload and pinned seed and writes
`perfbench/digests.json`. Rerun it only when a change to the program is
meant to change its outputs, and say why in that change.
"""

import json
import shutil
import sys

from run import HERE, WORK, WORKLOADS, spawn

PINNED_SEEDS = (0, 1)


def main():
    pinned = {}
    for name, spec in WORKLOADS.items():
        pinned[name] = {}
        for seed in PINNED_SEEDS:
            sdir = WORK / f"pin-{name}-seed{seed}"
            shutil.rmtree(sdir, ignore_errors=True)
            result = spawn({"name": name, **spec}, seed, sdir)
            if result is None or any(c["problems"] for c in result["commands"]):
                print(f"{name} seed {seed}: session failed; see {sdir}", file=sys.stderr)
                return 1
            pinned[name][str(seed)] = {
                k: v for c in result["commands"] for k, v in c["digests"].items()
            }
            shutil.rmtree(sdir)
            print(f"{name} seed {seed}: {len(pinned[name][str(seed)])} artifacts")
    with open(HERE / "digests.json", "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
