"""Record J_final / J_0 of the refine workload into reference.json.

    python3 perfbench/record_reference.py

Run once, at the commit that defines the benchmark, from the root of a
source checkout. run.py then fails any refine run whose ratio is worse
than the one recorded for its size and seed.
"""

import contextlib
import json
import os
import sys

import run

SEEDS = {512: range(64), 64: range(8)}


def main():
    run.import_fluxgrid()
    table = {}
    with open(os.devnull, "w") as devnull:
        for size, seeds in SEEDS.items():
            table[str(size)] = {}
            for seed in seeds:
                inputs = run.make_inputs("refine-512", seed, size)
                with contextlib.redirect_stdout(devnull):
                    code = sys.modules["fluxgrid.cli"].main(list(inputs.argv))
                if code != 0:
                    raise SystemExit(f"refine exited {code} at size {size}, seed {seed}")
                obj = run.read_trace(inputs.outputs[1])["objective"]
                table[str(size)][str(seed)] = obj[-1] / obj[0]
                print(size, seed, table[str(size)][str(seed)])
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump({"refine_obj_ratio": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
