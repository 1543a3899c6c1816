"""Why learn an embedding instead of tomographing every channel?

Full process tomography estimates each dynamical map independently, so a
fixed measurement budget n split over K maps leaves n/K shots each and the
per-map error grows as sqrt(K/n). The embedding learner fits one generator
from the whole record; its error is set by n alone, whatever K is asked of
it afterwards.
"""
import numpy as np

from embedlearn.assess import (choi_from_superop, default_design,
                               simulate_tomography_counts, tomography_mle)
from embedlearn.datagen import CollisionModelConfig, exact_reference_dynamics, period_channel
from embedlearn.qla import trace_norm

truth = period_channel(CollisionModelConfig())
budget = 8000
print(f"total budget: {budget} measurements of the collision dynamics\n")

_, chans = exact_reference_dynamics(truth, list(range(1, 21)))
rows = []
for K in [4, 8, 16]:
    shots = budget // K
    design = default_design(shots)
    counts = np.stack([simulate_tomography_counts(chans[k - 1], design,
                                                  np.random.default_rng(10 * K + k))
                       for k in range(1, K + 1)])
    ests = tomography_mle(counts, design)  # all K maps in one lockstep fit
    errs = [0.5 * trace_norm(est - choi_from_superop(ch, 2))
            for est, ch in zip(ests, chans)]
    rows.append((K, shots, float(np.mean(errs))))

print("K maps  shots each  mean tomography error")
for K, shots, e in rows:
    print(f"{K:6d}  {shots:10d}  {e:.4f}")

slope = np.polyfit(np.log([r[0] for r in rows]),
                   np.log([r[2] for r in rows]), 1)[0]
print(f"\nlog-log error-vs-K slope: {slope:+.2f} (theory: +0.5)")
print("the embedding's error at the same budget is flat in K; the")
print("acceptance suite runs the head-to-head at n = 20000, K = 20")
