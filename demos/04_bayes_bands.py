"""Variational error bars around a fitted embedding.

A diagonal Gaussian posterior over the Hamiltonian parameters is fitted by
stochastic gradient on the evidence bound; pushing posterior draws through
the dynamics turns parameter uncertainty into uncertainty bands on the
predicted trajectory. Small data here, so the bands are wide.
"""
import numpy as np

from embedlearn.bayes import BayesConfig, fit_posterior, sample_dynamics
from embedlearn.datagen import (CollisionModelConfig, generate_trajectory,
                                split_dataset)
from embedlearn.qla import DimSpec
from embedlearn.train import TrainConfig, fit

cfg = CollisionModelConfig()
ds = generate_trajectory(cfg, 1200, seed=23)
train, val = split_dataset(ds, 600)

tc = TrainConfig(epochs=250, batch_size=600, seed=5, restarts=1,
                 convergence_window=60, convergence_tol=1e-4, val_every=25)
print("point fit (d_er = 1, 600 records) ...")
model, _ = fit(train, val, DimSpec(d_s=2, d_er=1), tc)

print("variational posterior (400 iterations) ...")
bc = BayesConfig(iterations=400, mc_samples=4, seed=9)
posterior = fit_posterior(model, train, bc)
print(f"posterior stds over {posterior.mean.size} parameters: "
      f"median {np.median(posterior.std):.4f}, max {posterior.std.max():.4f}")

rho_s0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
times = [float(t) for t in range(11)]
dyn = sample_dynamics(posterior, rho_s0, times, 40, np.random.default_rng(1))
mean, std = dyn.bloch_stats()
print("\nposterior-predictive Bloch z with one-sigma band:")
print("time    z mean    z std")
for t, m, s in zip(times, mean[:, 2], std[:, 2]):
    print(f"{t:4.0f}  {m:+.4f}  {s:8.4f}")
print("\ndoubling the record count shrinks the stds by about 1/sqrt(2);")
print("the acceptance suite checks that shrinkage quantitatively")
