"""Pin the SHA-256 of the sweep workload's CSV for every pinned master seed.

    python3 perfbench/pin.py [--size full] [--out perfbench/digests.json]

Run it only when a change to ofdmemu is meant to change the sweep
output, and say why in CHANGES.md: the sweep workload fails every pass
whose CSV does not match the digest pinned here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from worker import HERE, import_ofdmemu


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, default=HERE / "digests.json")
    args = ap.parse_args(argv)
    import_ofdmemu()
    from workloads import PINNED_SWEEP_SEEDS, Sweep

    wl = Sweep(0, args.size)
    wl.setup()
    table = {}
    for i in range(PINNED_SWEEP_SEEDS):
        spec = wl.inputs(i)
        table[str(spec.master_seed)] = wl.digest(wl.run(spec))
    pins = {
        "n_symbols": wl.params["n_symbols"],
        "snr_list": list(spec.snr_list),
        "systems": list(spec.systems),
        "sha256": table,
    }
    args.out.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(table)} sweep digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
