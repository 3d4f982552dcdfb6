"""Symmetric channel walk-through: when one threshold is provably enough.

A binary symbol (+-1 with equal priors) passes through additive unit-variance
Gaussian noise.  The likelihood ratio of such a channel is strictly monotone,
so the best binary quantizer of the receiver output is a single cut -- this
script classifies the channel, solves it, and certifies the answer against an
exhaustive grid search.

Run:  python demos/single_threshold_channel.py
"""

from binquant import (
    DensityModel,
    GaussianComponent,
    Prior,
    channel_spec,
    classify_monotonicity,
    grid_search,
    predict_single_threshold,
    solve,
    translate_log_concavity,
)

# --- 1. the channel: x = -1 or +1, y = x + N(0, 1) -----------------------
spec = channel_spec(
    Prior(p0=0.5),
    DensityModel((GaussianComponent(mean=-1.0, stddev=1.0, weight=1.0),)),
    DensityModel((GaussianComponent(mean=1.0, stddev=1.0, weight=1.0),)),
)
print("channel: y = x + N(0,1), x in {-1,+1}, equal priors")
print(f"search window: [{spec.search_lo:.1f}, {spec.search_hi:.1f}]")

# --- 2. structure: is a single threshold enough? --------------------------
mono = classify_monotonicity(spec)
shape = translate_log_concavity(spec)
print(f"\nlikelihood ratio is {mono.verdict.value} on a {mono.grid_points}-point grid")
print(
    f"density1 is density0 shifted by {shape.shift:.1f}; "
    f"log-concave: {shape.log_concave}"
)
print(f"single threshold predicted optimal: {predict_single_threshold(spec)}")

# --- 3. solve ---------------------------------------------------------------
design = solve(spec)
print(f"\noptimal level a* = {design.a_star:.9f}")
print(f"threshold        = {design.thresholds[0]:.3e}  (the midpoint, by symmetry)")
print(f"channel matrix   = ({design.channel.a11:.6f}, {design.channel.a22:.6f})")
print(f"I(X;Z)           = {design.mi_bits:.6f} bits")

# --- 4. certify against brute force ----------------------------------------
oracle = grid_search(spec, n_thresholds=1, grid_step=0.01)
print(f"\nbrute force over {oracle.n_evaluated} candidate thresholds (step 0.01):")
print(f"  best threshold {oracle.best_thresholds[0]:+.2f}, MI {oracle.best_mi_bits:.6f} bits")
print(f"  solver-oracle gap: {design.mi_bits - oracle.best_mi_bits:+.2e} bits")

print(f"equal-ratio residual at the threshold: {design.stationarity_residual:.2e}")
