"""Predicting dynamics interrupted by a control gate.

A bit flip hits the system partway through the evolution. Stitching exact
reduced maps across the gate (apply maps to the gated state as if nothing
before mattered) ignores the system-reservoir correlations standing at the
gate time, and on memoryful dynamics it fails, even producing nonpositive
"states". A learned embedding carries those correlations in its reservoir
and tracks the truth. Here the embedding is the exact generator of a
memoryless ground truth, the one case where stitching is also correct, so
the three trajectories coincide; the gap opens on collision data, which is
what acceptance criterion 10 measures with a fitted model.
"""
import numpy as np

from embedlearn.assess import (ControlEvent, concatenation_prediction,
                               predict_with_control, trace_distance_trajectory)
from embedlearn.datagen import CollisionModelConfig, exact_reference_dynamics, period_channel
from embedlearn.embedding import extract_generator, make_embedding
from embedlearn.qla import SIGMA_X, DimSpec, bloch_vector, kron

# Memoryless truth: pure system rotation, trivial reservoir.
h = kron(0.3 * SIGMA_X, np.eye(4, dtype=np.complex128))
rho_s0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
model = make_embedding(DimSpec(d_s=2, d_er=1), 1.0, h, rho_s0.copy())
gen = extract_generator(model)

truth = period_channel(CollisionModelConfig(hamiltonian=h))
periods = list(range(1, 13))
times = [float(k) for k in periods]
gate_at = 6
event = ControlEvent(time=float(gate_at), gate=SIGMA_X)

# The same prediction on the truth's period channel, which counts time in
# periods, from its joint start state.
exact = predict_with_control(truth, truth.rho0,
                             [ControlEvent(gate_at, SIGMA_X)], periods)
embed = predict_with_control(gen, rho_s0, [event], times)
_, chans = exact_reference_dynamics(truth, periods)
concat, flags = concatenation_prediction(times, chans, event, rho_s0)

print(f"bit flip at t = {gate_at}; Bloch z of the system:\n")
print("time   exact    embedding  stitched   flag")
for i, t in enumerate(times):
    print(f"{t:4.0f}  {bloch_vector(exact[i])[2]:+.4f}  "
          f"{bloch_vector(embed[i])[2]:+.4f}    {bloch_vector(concat[i])[2]:+.4f}"
          f"    {int(flags[i])}")

de = trace_distance_trajectory(embed, exact)
dc = trace_distance_trajectory(concat, exact)
print(f"\nmax trace distance to truth: embedding {de.max():.2e}, "
      f"stitched {dc.max():.2e}")
print("memoryless dynamics is divisible, so all three agree; on the")
print("collision model the stitched error jumps above 0.4 after the gate")
print("while the embedding stays close (run the 'compare' subcommand)")
