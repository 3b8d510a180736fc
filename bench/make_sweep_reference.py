"""Regenerate sweep_reference.json: the forward-sweep-d1 workload's max
data-stability and field-difference ratios for every perturbation seed.

The stored values are the yardstick the benchmark's correctness check
holds later commits to, so regenerate them only on a commit whose
sweep results are known to be right:

    python3 bench/make_sweep_reference.py
"""

import json
import sys

import environment

environment.pin_threads()

import workloads  # noqa: E402


def main():
    matmi = environment.import_matmi()
    wl = workloads.WORKLOADS["forward-sweep-d1"]
    table = {}
    mesh = None
    for seed in range(workloads.REFERENCE_SEEDS):
        state = wl.prepare(matmi, seed, mesh)
        mesh = state["mesh"]
        data, field = wl.run(matmi, state)
        table[str(seed)] = {"data_max_ratio": data.max_ratio(),
                            "field_max_ratio": field.max_ratio(),
                            "rows": [len(data.rows), len(field.rows)]}
        print(seed, table[str(seed)], file=sys.stderr, flush=True)
    with open(workloads.SWEEP_REFERENCE, "w") as fh:
        json.dump({"environment": environment.describe(),
                   "seeds": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
