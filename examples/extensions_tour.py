"""Tour of the Section V extensions implemented beyond the base paper.

The paper's conclusions list several planned improvements; this example
exercises the ones built here, on one circuit, side by side:

* multiple coarsest-level starts,
* V-cycle iteration with restricted matching (hMETIS-style),
* Krishnamurthy lookahead, including the CL-LA3 configuration
  (CLIP + 3-level lookahead) that Table VII compares against.

Run:  python examples/extensions_tour.py
"""

import time
from statistics import mean

from repro import (FMConfig, MLConfig, fm_bipartition, load_circuit,
                   ml_bipartition, ml_vcycle)
from repro.rng import child_seeds


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    print(f"  {label:<28} cut {result.cut:4d}   "
          f"[{time.perf_counter() - start:.2f}s]")
    return result


def averaged(label, fn, runs=3):
    start = time.perf_counter()
    cuts = [fn(s).cut for s in child_seeds(label, runs)]
    print(f"  {label:<28} min {min(cuts):4d}  avg {mean(cuts):6.1f}  "
          f"[{time.perf_counter() - start:.2f}s, {runs} runs]")


def main() -> None:
    netlist = load_circuit("biomed", scale=0.15, seed=0)
    print(f"circuit: {netlist.name} ({netlist.num_modules} modules, "
          f"{netlist.num_nets} nets)\n")

    print("flat engines (single runs are noisy; 3 runs each):")
    averaged("FM (LIFO)", lambda s: fm_bipartition(netlist, seed=s))
    averaged("FM + lookahead 3", lambda s: fm_bipartition(
        netlist, config=FMConfig(lookahead=3), seed=s))
    averaged("CLIP", lambda s: fm_bipartition(
        netlist, config=FMConfig(clip=True), seed=s))
    averaged("CL-LA3 (CLIP + LA3)", lambda s: fm_bipartition(
        netlist, config=FMConfig(clip=True, lookahead=3), seed=s))

    print("\nmultilevel:")
    base = timed("ML_F baseline", lambda: ml_bipartition(
        netlist, config=MLConfig(engine="fm"), seed=7))
    timed("ML_F + 8 coarsest starts", lambda: ml_bipartition(
        netlist, config=MLConfig(engine="fm", coarsest_starts=8), seed=7))
    vc = timed("ML_F + 2 V-cycles", lambda: ml_vcycle(
        netlist, cycles=2, config=MLConfig(engine="fm"), seed=7))

    print(f"\nV-cycle trajectory: {vc.cycle_cuts} "
          f"(baseline single ML run: {base.cut})")


if __name__ == "__main__":
    main()
