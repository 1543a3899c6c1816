"""Learn an embedding from collision-model measurements, then predict.

Fits a two-level effective reservoir on a modest record (n = 2000), pulls
the semigroup generator out of the fitted period channel, and compares the
predicted reduced dynamics and process matrices against the exact collision
maps. Expect rough agreement at this budget; the error falls as 1/sqrt(n).
"""
import numpy as np

from embedlearn.assess import average_choi_error, choi_from_superop, dynamics_maps
from embedlearn.datagen import (CollisionModelConfig, dataset_prefix,
                                exact_reference_dynamics, generate_trajectory,
                                period_channel, split_dataset, validation_continuation)
from embedlearn.embedding import extract_generator, predict_dynamics
from embedlearn.likelihood import conditional_validation_ll, forward_pass
from embedlearn.qla import DimSpec, bloch_vector, ptrace
from embedlearn.train import TrainConfig, fit

cfg = CollisionModelConfig()
n = 2000
ds = generate_trajectory(cfg, 2 * n, seed=11)
train, val = split_dataset(ds, n)

tc = TrainConfig(epochs=500, batch_size=1000, seed=3, restarts=1,
                 convergence_window=80, convergence_tol=1e-4, val_every=20)
print(f"fitting d_er = 2 on {n} records (a minute or so) ...")
model, curve = fit(train, val, DimSpec(d_s=2, d_er=2), tc)
print(f"stopped after {len(curve.epoch)} epochs; validation per-step ll "
      f"{conditional_validation_ll(train, val, forward_pass(model, train)):+.4f}")

gen = extract_generator(model)
rho_er0 = ptrace(model.rho0_ser, [2, 2], [1])
periods = list(range(1, 11))
times = [float(k) for k in periods]

exact_states, exact_chans = exact_reference_dynamics(period_channel(cfg), periods)
predicted = predict_dynamics(gen, model.rho0_ser, times)

print("\nreduced dynamics, Bloch z component:")
print("time   exact   learned")
for t, rs, rp in zip(times, exact_states, predicted):
    print(f"{t:4.0f}  {bloch_vector(rs)[2]:+.4f}  {bloch_vector(rp)[2]:+.4f}")

learned_maps = dynamics_maps(gen, rho_er0, times)
exact_chois = [choi_from_superop(m, 2) for m in exact_chans]
err = average_choi_error(learned_maps, exact_chois)
print(f"\naverage process-matrix error over t = 1..10: {err:.4f}")
print("(the error falls as 1/sqrt(n); 'predict' with n_values measures the slope)")
