"""Simulate a short measurement record and look at what the learner sees.

The ground truth is a collision model: a system qubit S coupled to a memory
qubit S1, with S1 refreshed against a stream of reservoir qubits five times
per period. Once per period the system is measured projectively in a random
basis. The learner never sees states, only (basis, outcome) pairs.

`period_channel(cfg)` turns the collision model into its period channel;
the sampler and the exact reference dynamics take that channel, so they
run the same on a fitted model's channel.
"""
import numpy as np

from embedlearn.datagen import (CollisionModelConfig, exact_reference_dynamics,
                                generate_trajectory, period_channel, sample_trajectory)
from embedlearn.qla import bloch_vector

cfg = CollisionModelConfig()
truth = period_channel(cfg)
print(f"period tau = {cfg.tau}, {cfg.collisions_per_period} collisions of "
      f"{cfg.delta_t} each, config digest {cfg.digest()[:12]}")

ds = generate_trajectory(cfg, 12, seed=42)
print(f"\n{len(ds.records)} records; provenance {ds.provenance}")
print("\nstep  outcome  measured basis column (outcome eigenvector)")
for rec in ds.records[:6]:  # one row of the records array: step, basis, outcome
    phi = rec["basis"][:, rec["outcome"]]
    print(f"{rec['step']:4d}  {rec['outcome']:7d}  "
          f"[{phi[0].real:+.3f}{phi[0].imag:+.3f}j, "
          f"{phi[1].real:+.3f}{phi[1].imag:+.3f}j]")

n = 4000
# generate_trajectory(cfg, n, seed) is this call: the sampler on the truth's
# channel, tagged with the config digest.
big = sample_trajectory(truth, n, seed=7, config_hash=cfg.digest())
freq0 = np.count_nonzero(big.records["outcome"] == 0) / n
print(f"\noutcome frequencies over {n} steps: 0 -> {freq0:.4f}, "
      f"1 -> {1 - freq0:.4f}")
print("(random bases average the Born probabilities toward 1/2)")

# Unmeasured ground truth for the first few periods, for orientation.
states, _ = exact_reference_dynamics(truth, list(range(6)))
print("\nexact reduced state of S (no measurements), Bloch components:")
print("period      x        y        z")
for k, rho in enumerate(states):
    x, y, z = bloch_vector(rho)
    print(f"{k:6d}  {x:+.4f}  {y:+.4f}  {z:+.4f}")
