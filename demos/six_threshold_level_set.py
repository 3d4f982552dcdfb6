"""A three-bump mixture against broad noise: six thresholds, one ratio.

If the conditional density of one symbol is a spiky mixture and the other is
a single wide Gaussian, the posterior dips below any mid level once per
spike: the level set has six roots and the optimal quantizer alternates
labels across seven segments.  Every one of the six thresholds still carries
the same likelihood ratio, and the stationarity function -- no longer
monotone for a channel like this -- still crosses zero exactly once, which is
all the solver's bracketed search needs.

Run:  python demos/six_threshold_level_set.py
"""

import math

import numpy as np

from binquant import (
    DensityModel,
    GaussianComponent,
    Prior,
    channel_spec,
    find_level_set,
    likelihood_ratio,
    posterior,
    solve,
    sweep_levels,
)

# --- 1. the channel ---------------------------------------------------------
density0 = DensityModel(
    components=(
        GaussianComponent(mean=0.0, stddev=math.sqrt(0.3), weight=0.3),
        GaussianComponent(mean=-3.0, stddev=math.sqrt(0.2), weight=0.4),
        GaussianComponent(mean=3.0, stddev=math.sqrt(0.1), weight=0.3),
    )
)
density1 = DensityModel((GaussianComponent(mean=-2.0, stddev=3.0, weight=1.0),))
spec = channel_spec(Prior(p0=0.5), density0, density1)
print("density0: three narrow bumps at -3, 0, +3; density1: one wide N(-2, 3)")

# --- 2. the level set at a = 0.5 ---------------------------------------------
level_set = find_level_set(spec, 0.5)
print(f"\nposterior level 0.5 is crossed {len(level_set.roots)} times:")
print("  roots:", ", ".join(f"{r:+.4f}" for r in level_set.roots))
print("  (one dip per bump of density0, entered and left once each)")

# --- 3. solve: seven alternating segments ------------------------------------
design = solve(spec)
print(f"\noptimal level a* = {design.a_star:.9f}")
print(f"{len(design.thresholds)} thresholds:",
      ", ".join(f"{h:+.4f}" for h in design.thresholds))
print(f"mapping: {design.mapping} (the outermost segments decide x=+1)")
print(f"I(X;Z) = {design.mi_bits:.6f} bits")

ratios = [likelihood_ratio(spec, h) for h in design.thresholds]
print("\nlikelihood ratio at each threshold:")
for h, r in zip(design.thresholds, ratios):
    print(f"  r({h:+.4f}) = {r:.10f}")
print(f"spread: {max(ratios) - min(ratios):.2e}   r* = {design.r_star:.10f}")

# --- 4. posterior consistency -------------------------------------------------
worst = max(abs(posterior(spec, h) - design.a_star) for h in design.thresholds)
print(f"worst |posterior(h) - a*|: {worst:.2e}")

# --- 5. the stationarity function wiggles but crosses zero once ----------------
rows = sweep_levels(spec, np.linspace(0.10, 0.95, 18))
values = [(r.level, r.stationarity_value) for r in rows if not r.degenerate]
crossings = sum(1 for (_, a), (_, b) in zip(values, values[1:]) if a * b < 0)
rises = sum(1 for (_, a), (_, b) in zip(values, values[1:]) if b > a + 1e-9)
print(f"\nstationarity across levels 0.10..0.95: {crossings} sign change, "
      f"{rises} upward jumps (at levels where a new dip joins the set)")
for level, value in values:
    bar = "#" * int(min(40, abs(value) * 12))
    print(f"  a={level:.2f}  F={value:+8.4f}  {bar}")
