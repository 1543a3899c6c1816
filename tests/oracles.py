"""Independent reference implementations used as test oracles.

Everything here recomputes results by a different route than the library:
explicit index loops, truncated series, pure-state networks, power
iteration, finite differences.  No result is computed through
``embedlearn``, so a library bug cannot cancel against itself.  Some
helpers touch it: :func:`variational_objective` draws models through
:func:`sample_model`, which unpacks them with the library's
``unpack_hermitian``, and :func:`tomography_mle_serial`, the bitwise
reference of the batched tomography MLE, runs on the library's
``hermitianize`` and ``ptrace``; :func:`tomography_errors_per_group`, the
reference of the CLI's one MLE per ``tomo`` command, simulates and fits
each group through the library; the serial posterior draws
(:func:`fit_posterior_serial`, :func:`usable_draws_serial`,
:func:`sample_dynamics_serial`), the bitwise references of the lockstep
fit and the blocked push-forward, and :func:`bayes_channel_error_two_loop`,
the reference of the posterior channel spread, sweep, decompose and
propagate through the library's ``build_cache``, ``extract_generator``,
``equilibrium_er_state`` and the generator's eigensystem
(:func:`generator_flow`), as does :func:`predict_with_control_per_time`,
the bitwise reference of the gated prediction.  The per-item ground truth
and assessment (:func:`exact_reference_dynamics_serial`,
:func:`exact_controlled_dynamics_serial`,
:func:`concatenation_prediction_serial`,
:func:`outcome_probabilities_serial`, :func:`predict_with_control_serial`),
the bitwise references of their stacked library versions, run on the
library's ``period_superoperator``, ``ptrace``, ``hermitianize`` and
generator ``propagate``.  The helpers that only
tests use (the joint-space trajectory simulator, joint-sized views of the
sweeps, the bare-entry unitary derivative, Choi conversions, a CSV dump, a
Monte-Carlo objective, posterior entry statistics, the overfitted
n-step environment behind the README's overfitting claim) live here too,
as does :func:`kraus_stack_eigh`, the Kraus operators through an ``eigh``
of the ancilla state |0><0|, a phase fix and a one-hot contraction: the
bitwise reference of the library's slice of U at the |0> column.  The
one-model channel route (:func:`model_superoperator`,
:func:`extract_generator_serial`, :func:`build_cache_serial`), the bitwise
reference of the library's stacked construction, runs on its
``expm_unitary``, ``superoperator_matrix`` and sweeps, their loop swapped
for :func:`filter_lanes_serial`, the lane-by-lane reference of the
lockstep ``_filter``, and on :func:`logm_principal_serial`, the one-matrix
reference of the stacked logarithm; :func:`exact_embedding`, the model
whose channel is the truth's, builds it from the library's
``period_superoperator`` with scipy.  The H-sized algebra of an epoch as
first written, one new array per operation (:func:`herm_eig_allocating`,
:func:`loewner_exp_allocating`, :func:`product_operators_allocating`,
:func:`log_likelihood_gradient_allocating`), is the bitwise reference of
the library's in-place versions; the gradient reads the sweeps, spectrum
and Kraus stack of a library cache.  :func:`fit_loop_full_cache`, a
training restart whose epochs keep every block of the library's sweeps and
gather the batch's rows for the gradient, is the bitwise reference of the
compact caches of the library's fit.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np


def kron_loops(a, b):
    """Kronecker product by quadruple loop over the index formula."""
    a = np.asarray(a)
    b = np.asarray(b)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def ptrace_loops(rho, dims, keep):
    """Partial trace by explicit summation over dropped multi-indices."""
    rho = np.asarray(rho)
    dims = list(dims)
    keep = list(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    side = 1
    for i in keep:
        side *= dims[i]
    out = np.zeros((side, side), dtype=np.complex128)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel_kept(idx):
        flat = 0
        for i in keep:
            flat = flat * dims[i] + idx[i]
        return flat

    total = int(np.prod(dims))
    for r in range(total):
        ri = unravel(r)
        for c in range(total):
            ci = unravel(c)
            if all(ri[i] == ci[i] for i in drop):
                out[ravel_kept(ri), ravel_kept(ci)] += rho[r, c]
    return out


def taylor_expm(h, t, terms=30):
    """exp(-i t H) by truncated power series."""
    h = np.asarray(h, dtype=np.complex128)
    d = h.shape[0]
    out = np.eye(d, dtype=np.complex128)
    term = np.eye(d, dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ (-1j * t * h) / k
        out = out + term
    return out


def eig2_closed_form(h):
    """Eigenvalues of a 2x2 Hermitian matrix from the quadratic formula."""
    h = np.asarray(h)
    a = h[0, 0].real
    d = h[1, 1].real
    b = h[0, 1]
    mean = 0.5 * (a + d)
    radius = np.sqrt((0.5 * (a - d)) ** 2 + abs(b) ** 2)
    return np.array([mean - radius, mean + radius])


def kraus_apply(kraus, rho):
    """Channel action sum_j K_j rho K_j^dag."""
    out = np.zeros_like(np.asarray(rho, dtype=np.complex128))
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def power_fixed_point(channel_matrix, iters=20000, tol=1e-14):
    """Stationary density matrix of a channel superoperator by power
    iteration on the column-stacked identity, renormalized each step."""
    m = np.asarray(channel_matrix)
    side = int(round(np.sqrt(m.shape[0])))
    v = np.eye(side, dtype=np.complex128).T.ravel() / side
    for _ in range(iters):
        nxt = m @ v
        rho = nxt.reshape(side, side).T
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        nxt = rho.T.ravel()
        if np.max(np.abs(nxt - v)) < tol:
            return rho
        v = nxt
    return v.reshape(side, side).T


def flat_record_probability(u, d_s, d_er, d_a, psi0_ser, projectors):
    """Joint outcome probability with every ancilla retained.

    One fresh |0> ancilla per step; the dilation unitary acts on
    (S, ER, A_i) and the recorded rank-1 projector hits the system factor.
    The global state stays pure, so the probability is the squared norm of
    the projected vector.  Cost grows as d_a**n; keep n small.
    """
    n = len(projectors)
    u6 = np.asarray(u).reshape(d_s, d_er, d_a, d_s, d_er, d_a)
    shape = [d_s, d_er] + [d_a] * n
    psi = np.zeros(shape, dtype=np.complex128)
    psi0 = np.asarray(psi0_ser).reshape(d_s, d_er)
    psi[(slice(None), slice(None)) + (0,) * n] = psi0
    for i, proj in enumerate(projectors):
        ax = 2 + i
        # contract u6[s,e,a, s',e',a'] with psi[..., s', e', ..., a', ...]
        psi = np.tensordot(u6, psi, axes=([3, 4, 5], [0, 1, ax]))
        # tensordot output axes: s, e, a, then remaining psi axes in order
        rest = [3 + j for j in range(n - 1)]
        order = [0, 1] + rest[: i] + [2] + rest[i:]
        psi = np.transpose(psi, order)
        p = np.asarray(proj)
        psi = np.tensordot(p, psi, axes=([1], [0]))
    return float(np.sum(np.abs(psi) ** 2))


def filtered_log_likelihood(period_map, rho0, phis):
    """Per-step log-likelihood of rank-1 system outcomes on a qubit system
    with a two-level memory, by the propagate / measure / condition loop of
    the collision-model simulator.

    ``period_map`` is the column-stacking 16x16 superoperator of one period
    on S x S1, ``rho0`` the initial 4x4 joint state and ``phis`` the measured
    system vectors, one per record.
    """
    v = np.asarray(rho0, dtype=np.complex128).T.ravel()
    total = 0.0
    for phi in phis:
        rho = (period_map @ v).reshape(4, 4).T
        rho = 0.5 * (rho + rho.conj().T)
        block = np.einsum("s,setf,t->ef", phi.conj(), rho.reshape(2, 2, 2, 2), phi)
        p = np.trace(block).real
        total += np.log(p)
        block = 0.5 * (block + block.conj().T) / p
        v = np.kron(np.outer(phi, phi.conj()), block).T.ravel()
    return total / len(phis)


def _project(joint4, phi):
    """Apply |phi><phi| x I to both sides of a joint operator.

    ``joint4`` is the operator reshaped to (d_s, d_er, d_s, d_er).  Returns
    (reservoir block, projected operator of the same joint shape flattened).
    """
    block = np.einsum("s,setf,t->ef", phi.conj(), joint4, phi)
    block = 0.5 * (block + block.conj().T)
    proj = np.einsum("s,t,ef->setf", phi, phi.conj(), block)
    d = joint4.shape[0] * joint4.shape[1]
    return block, proj.reshape(d, d)


def dense_forward_sweep(m, rho, phis):
    """Filtering on the joint space: evolve the trace-normalized joint state
    by the column-stacking superoperator ``m`` and condition on each system
    vector in ``phis`` in turn.  Returns the states (n+1, d, d), the initial
    state first, and the running log-likelihoods; a nonpositive outcome
    probability raises ValueError naming the 1-based record."""
    phis = np.asarray(phis)
    n = len(phis)
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0]
    d_s = phis.shape[1]
    d_er = d // d_s
    states = np.empty((n + 1, d, d), dtype=np.complex128)
    logs = np.empty(n + 1)
    states[0] = rho
    logs[0] = 0.0
    for i in range(n):
        evolved = (m @ rho.T.ravel()).reshape(d, d).T
        block, projected = _project(evolved.reshape(d_s, d_er, d_s, d_er), phis[i])
        p = np.trace(block).real
        if p <= 0.0:
            raise ValueError(f"record {i + 1} has probability {p}")
        rho = projected / p
        rho = 0.5 * (rho + rho.conj().T)
        states[i + 1] = rho
        logs[i + 1] = logs[i] + np.log(p)
    return states, logs


def dense_backward_sweep(m, phis, d):
    """Smoothing on the joint space: Heisenberg effects of the records after
    each time, run back from the identity at time n through the dual of
    ``m``.  Returns the effects (n+1, d, d) at unit operator norm and the
    logs of the removed norms."""
    phis = np.asarray(phis)
    n = len(phis)
    d_s = phis.shape[1]
    d_er = d // d_s
    m_dual = np.asarray(m).conj().T
    effects = np.empty((n + 1, d, d), dtype=np.complex128)
    logs = np.empty(n + 1)
    eff = np.eye(d, dtype=np.complex128)
    effects[n] = eff
    logs[n] = 0.0
    for i in range(n - 1, -1, -1):
        _, projected = _project(eff.reshape(d_s, d_er, d_s, d_er), phis[i])
        prev = (m_dual @ projected.T.ravel()).reshape(d, d).T
        prev = 0.5 * (prev + prev.conj().T)
        scale = np.abs(prev).max()
        if scale <= 0.0:
            raise ValueError(f"effect at time {i} vanishes")
        eff = prev / scale
        effects[i] = eff
        logs[i] = logs[i + 1] + np.log(scale)
    # Convert the max-abs scaling to unit operator norm in one stacked pass.
    opnorms = np.abs(np.linalg.eigvalsh(effects)).max(axis=1)
    effects /= opnorms[:, None, None]
    logs += np.log(opnorms)
    return effects, logs


def _period_unitary(model):
    lam, v = np.linalg.eigh(np.asarray(model.h))
    return (v * np.exp(-1j * model.tau * lam)) @ v.conj().T


def ground_ancilla(d_a):
    """The ancilla state |0><0| as a d_a x d_a matrix."""
    rho_a = np.zeros((d_a, d_a), dtype=np.complex128)
    rho_a[0, 0] = 1.0
    return rho_a


def ancilla_vector_eigh(rho_a):
    """State vector of a pure ancilla state: the top eigenvector of an
    ``eigh``, phase-fixed by its largest entry."""
    _, v = np.linalg.eigh(0.5 * (rho_a + rho_a.conj().T))
    vec_a = v[:, -1]
    pivot = np.argmax(np.abs(vec_a))
    return vec_a * np.exp(-1j * np.angle(vec_a[pivot]))


def kraus_stack_eigh(model, u):
    """Kraus operators K_j = (I x <j|) U (I x |a>) of the period unitary
    ``u``, with |a> taken from :func:`ancilla_vector_eigh` of |0><0| and
    contracted against U by a one-hot ``einsum``."""
    d, d_a = model.dims.d, model.dims.d_a
    a = ancilla_vector_eigh(ground_ancilla(d_a))
    return np.einsum("xjyk,k->jxy", np.asarray(u).reshape(d, d_a, d, d_a), a)


def apply_channel(model, rho):
    """One period of the embedded dynamics: tr_A[U (rho x |0><0|) U+], with
    the Kronecker products spelled out on the full dilation space."""
    d, d_a = model.dims.d, model.dims.d_a
    if rho.shape != (d, d):
        raise ValueError(f"state has shape {rho.shape}, expected side {d}")
    u = _period_unitary(model)
    joint = u @ np.kron(rho, ground_ancilla(d_a)) @ u.conj().T
    return np.einsum("xaya->xy", joint.reshape(d, d_a, d, d_a))


def apply_dual(model, effect):
    """Heisenberg-picture dual: tr_A[U+ (E x I_A) U (I x |0><0|)]."""
    d, d_a = model.dims.d, model.dims.d_a
    if effect.shape != (d, d):
        raise ValueError(f"effect has shape {effect.shape}, expected side {d}")
    u = _period_unitary(model)
    lifted = (u.conj().T @ np.kron(effect, np.eye(d_a)) @ u
              @ np.kron(np.eye(d), ground_ancilla(d_a)))
    return np.einsum("xaya->xy", lifted.reshape(d, d_a, d, d_a))


def merge_point_chain_gradient(h, tau, avec, d_s, d_er, forward_states,
                               backward_effects, phis, batch, n):
    """Gradient of the record log-likelihood with respect to H, by the
    per-merge-point chain through the dilation: each merge point m carries
    d x d_total factors of U (I x |a>) and of the eigenvectors of H.

    ``forward_states`` and ``backward_effects`` are the normalized sweeps
    (index 0..n), ``phis`` the measured system vectors, ``batch`` the
    1-based merge points; the sum is rescaled by n/len(batch).  Entry
    (mu, nu) is the derivative along the matrix unit |mu><nu|.  Memory grows
    as len(batch) * d**2 * d_total, so keep the sizes small.
    """
    batch = np.asarray(batch)
    d = d_s * d_er
    d_a = d * d
    dd = d * d_a
    lam, v = np.linalg.eigh(np.asarray(h, dtype=np.complex128))
    ph = np.exp(-1j * tau * lam)
    u = (v * ph) @ v.conj().T
    diff = lam[:, None] - lam[None, :]
    degenerate = np.abs(diff) <= 1e-12 * np.maximum(1.0, np.abs(lam))[:, None]
    f = np.where(degenerate, (-1j * tau * ph)[:, None] * np.ones_like(diff),
                 (ph[:, None] - ph[None, :]) / np.where(degenerate, 1.0, diff))
    emb = np.kron(np.eye(d), np.asarray(avec)[:, None])  # dd x d

    phi = phis[batch - 1]
    eff4 = backward_effects[batch].reshape(-1, d_s, d_er, d_s, d_er)
    blocks = np.einsum("ms,msetf,mt->mef", phi.conj(), eff4, phi)
    a_ops = np.einsum("ms,mt,mef->msetf", phi, phi.conj(), blocks).reshape(-1, d, d)
    b_ops = forward_states[batch - 1]

    ucols = u @ emb
    # Sandwich values tr[A_m Phi(B_m)] through the Kraus operators
    # K_j = (I x <j|) U (I x |a>).
    kraus = [np.kron(np.eye(d), np.eye(d_a)[[j], :]) @ ucols for j in range(d_a)]
    values = np.array([sum(np.trace(am @ k @ bm @ k.conj().T) for k in kraus).real
                       for am, bm in zip(a_ops, b_ops)])
    w = 1.0 / values

    # First product-rule term, tr[A dU (B x rho_a) U+], then its mirror
    # tr[A U (B x rho_a) dU+], each summed over m before the eigenbasis step.
    uc3 = ucols.reshape(d, d_a, d)
    v3 = v.reshape(d, d_a, dd)
    t1 = np.einsum("mbc,ckE->mbkE", a_ops, v3)
    q = np.einsum("bkx,mbkE->mxE", uc3.conj(), t1)
    j = np.einsum("mxy,myE->mxE", b_ops, q)
    s1 = np.einsum("m,mxE->xE", w, j)
    g1 = (v.conj().T @ emb) @ s1
    z = np.einsum("mbc,ckx->mbkx", a_ops, uc3)
    zb = np.einsum("mbkx,mxy->mbky", z, b_ops)
    y2 = np.einsum("m,mbky->bky", w, zb).reshape(dd, d)
    g2 = (v.conj().T @ y2) @ (emb.conj().T @ v)
    inner = f * g1.T + f.conj() * g2.T
    return (n / batch.size) * (v.conj() @ inner @ v.T)


def central_difference(f, x, eps):
    """Gradient of scalar f at parameter vector x by central differences."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += eps
        xm[k] -= eps
        g[k] = (f(xp) - f(xm)) / (2.0 * eps)
    return g


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


# ---------------------------------------------------------------------------
# Per-element JSON writers: the dataset format as first written, one complex()
# or float() call per matrix entry and one dumps call per record.  Model and
# posterior files written independently of the package: plain json, base64
# and ndarray.tobytes() with an explicit little-endian dtype.
# ---------------------------------------------------------------------------

def legacy_matrix_to_pairs(m):
    """Row-major ``[re, im]`` pairs, one entry at a time."""
    flat = np.asarray(m, dtype=np.complex128).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def legacy_pairs_to_matrix(pairs, rows, cols):
    """Complex matrix from row-major pairs through one complex() per entry."""
    if len(pairs) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(pairs)}")
    return np.array([complex(re, im) for re, im in pairs],
                    dtype=np.complex128).reshape(rows, cols)


def b64_encode(a, dtype):
    """Base64 text of the row-major bytes of ``a`` as ``dtype`` ("<c16" or "<f8")."""
    import base64
    return base64.b64encode(np.asarray(a).astype(dtype).tobytes()).decode("ascii")


def b64_decode(text, dtype, shape):
    """Writable array of ``shape`` from :func:`b64_encode` text."""
    import base64
    return np.frombuffer(base64.b64decode(text), dtype=dtype).reshape(shape).copy()


def model_file_dict(dims, tau, h, rho0_ser, rho_a):
    """The JSON object of a model file; ``dims`` is the (d_s, d_er, d_a) triple."""
    return {
        "dims": dict(zip(("d_s", "d_er", "d_a"), dims)),
        "tau": tau,
        "h": b64_encode(h, "<c16"),
        "rho0_ser": b64_encode(rho0_ser, "<c16"),
        "rho_a": b64_encode(rho_a, "<c16"),
    }


def reference_save_model(path, dims, tau, h, rho0_ser, rho_a):
    """A model file written by streaming ``json.dump``."""
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_file_dict(dims, tau, h, rho0_ser, rho_a), fh)
        fh.write("\n")


def reference_save_posterior(path, posterior):
    """A posterior file written by streaming ``json.dump``."""
    import json
    base = posterior.base
    dims = (base.dims.d_s, base.dims.d_er, base.dims.d_a)
    obj = {
        "model": model_file_dict(dims, base.tau, base.h, base.rho0_ser,
                                 ground_ancilla(base.dims.d_a)),
        "mean": b64_encode(posterior.mean, "<f8"),
        "log_std": b64_encode(posterior.log_std, "<f8"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def legacy_save_dataset(path, tau, d_s, provenance, records):
    """A JSONL dataset written one record line at a time; ``records`` are
    (step, basis, outcome) triples."""
    import json

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    header = {"tau": tau, "d_s": d_s, "seed": provenance.get("seed"),
              "config_hash": provenance.get("config_hash")}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(header) + "\n")
        for step, basis, outcome in records:
            line = {"step": step, "basis": legacy_matrix_to_pairs(basis), "outcome": outcome}
            fh.write(dumps(line) + "\n")


# ---------------------------------------------------------------------------
# The collision-model simulator as first written: one joint S x S1 step per
# record, with the outcome drawn from the reduced system state.
# ---------------------------------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# Step, measured basis (columns) and outcome column of one record.
SampledRecord = namedtuple("SampledRecord", "step basis outcome")


def collision_step(rho_ss1, cfg):
    """One collision: tr_R[exp(-i H dt) (rho x rho_r) exp(+i H dt)]."""
    lam, v = np.linalg.eigh(np.asarray(cfg.hamiltonian))
    u = (v * np.exp(-1j * cfg.delta_t * lam)) @ v.conj().T
    joint = u @ np.kron(rho_ss1, cfg.rho_r) @ u.conj().T
    return np.einsum("xryr->xy", joint.reshape(4, 2, 4, 2))


def sample_measurement(rho_s, rng, step=1):
    """Projectively measure a qubit state in the eigenbasis of r.sigma, r a
    normalized Gaussian 3-vector: three normals, then one uniform for the
    outcome.  Returns the record and the projector onto the outcome; a state
    with no weight raises ValueError naming the step."""
    if rho_s.shape != (2, 2):
        raise ValueError(f"expected a qubit state, got shape {rho_s.shape}")
    g = rng.standard_normal(3)
    r = g / np.linalg.norm(g)
    _, basis = np.linalg.eigh(r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)
    probs = np.real(np.einsum("ik,ij,jk->k", basis.conj(), rho_s, basis))
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError(f"zero probability at step {step}")
    probs = probs / total
    outcome = 0 if rng.random() < probs[0] else 1
    phi = basis[:, outcome]
    return SampledRecord(step, basis, outcome), np.outer(phi, phi.conj())


def record_vectors_serial(records):
    """The measured system vector of every record, one record at a time:
    column ``outcome`` of ``basis``, stacked (n, d_s).  The reference of the
    library's one fancy index over the records array."""
    if not len(records):
        return np.empty((0, records.dtype["basis"].shape[0]), dtype=np.complex128)
    return np.stack([rec["basis"][:, rec["outcome"]] for rec in records])


def overfit_oracle(records, rho_s0):
    """Score the deliberately overfitted n-step environment model of a
    :class:`~embedlearn.datagen.Dataset`.

    The environment is one qubit per training record, prepared in the
    observed projectors; each period swaps the system with the first
    environment factor and cyclically shifts the rest.  On the training
    half every outcome then has probability exactly 1 (the system state
    *is* the recorded projector, analytically), so the training
    log-likelihood is exactly 0.0.  The validation half reduces to a
    product of two-projector overlaps.

    Returns (training log-likelihood, validation per-step log-likelihood).
    """
    from embedlearn.errors import DataError, ZeroProbabilityError
    n = len(records) // 2
    if len(records) % 2 != 0 or not n:
        raise DataError(f"need an even record count to split in half, got {len(records)}")
    phis = record_vectors_serial(records.records)
    projs = phis[:, :, None] * phis[:, None, :].conj()

    # Product-state bookkeeping: a factor is either ("rec", i), meaning the
    # projector of record i, or ("mat", rho).  SWAP then SHIFT amounts to:
    # the first environment factor becomes the system, the collapsed system
    # is appended at the back.
    system = ("mat", np.asarray(rho_s0, dtype=np.complex128))
    env = [("rec", i) for i in range(n)]
    train_ll = 0.0
    val_sum = 0.0
    for i, phi in enumerate(phis):
        new_system = env.pop(0)
        env.append(system)
        if new_system[0] == "rec" and new_system[1] == i:
            p = 1.0  # same projector on both sides, exact by construction
        else:
            rho = projs[new_system[1]] if new_system[0] == "rec" else new_system[1]
            p = float(np.real(phi.conj() @ rho @ phi))
            if p <= 0.0:
                raise ZeroProbabilityError(int(records.records["step"][i]))
        if i < n:
            train_ll += 0.0 if p == 1.0 else np.log(p)
        else:
            val_sum += np.log(p)
        system = ("rec", i)
    return train_ll, val_sum / n


def joint_trajectory(period_map, rho0, rng, n):
    """Bases (n, 2, 2) and outcomes (n,) of ``n`` periods of a qubit system
    and a memory of any dimension: evolve the joint state by the
    column-stacking ``period_map`` (side d**2 for the d x d joint state
    ``rho0``), measure the reduced system state, then condition the memory
    on the outcome.  A zero-probability record raises ValueError naming its
    step."""
    v = np.asarray(rho0, dtype=np.complex128).T.ravel()
    d = len(rho0)
    bases = np.empty((n, 2, 2), dtype=np.complex128)
    outcomes = np.empty(n, dtype=int)
    for i in range(1, n + 1):
        rho = (period_map @ v).reshape(d, d).T
        rho = 0.5 * (rho + rho.conj().T)
        rho4 = rho.reshape(2, d // 2, 2, d // 2)
        rec, proj = sample_measurement(np.einsum("sete->st", rho4), rng, step=i)
        bases[i - 1], outcomes[i - 1] = rec.basis, rec.outcome
        phi = rec.basis[:, rec.outcome]
        block = np.einsum("s,setf,t->ef", phi.conj(), rho4, phi)
        tr = np.trace(block).real
        if tr <= 0:
            raise ValueError(f"zero probability at step {i}")
        v = np.kron(proj, 0.5 * (block + block.conj().T) / tr).T.ravel()
    return bases, outcomes


def model_superoperator(model):
    """A model's period superoperator by the one-model sequence: the period
    unitary ``expm_unitary`` of H alone, then ``superoperator_matrix``; the
    bitwise reference of the stacked ``model_channels``."""
    from embedlearn.embedding import superoperator_matrix
    from embedlearn.qla import expm_unitary
    return superoperator_matrix(model, expm_unitary(model.h, model.tau))


def logm_principal_serial(m):
    """The principal logarithm of one matrix in factored form (log_w, V, V⁻¹),
    raising ``BranchCutError`` for an eigenvalue within 1e-10 of the closed
    negative real axis and ``IllConditionedError`` for an eigenvector
    condition number above 1e10: the bitwise reference of
    ``logm_principal`` and of each entry of ``logm_principal_stack``."""
    from embedlearn.errors import BranchCutError, IllConditionedError
    m = np.asarray(m, dtype=np.complex128)
    w, v = np.linalg.eig(m)
    near = np.where(w.real <= 0.0, np.abs(w.imag), np.abs(w)) < 1e-10
    if near.any():
        raise BranchCutError(complex(w[np.argmax(near)]))
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e10:
        raise IllConditionedError(float(cond))
    return np.log(w), v, np.linalg.inv(v)


def extract_generator_serial(model):
    """A model's generator by :func:`model_superoperator` and the raising
    :func:`logm_principal_serial`: the bitwise reference of
    ``extract_generator``."""
    from embedlearn.embedding import GeneratorSuperoperator
    return GeneratorSuperoperator(*logm_principal_serial(model_superoperator(model)),
                                  model.dims, model.tau)


def model_channel(model):
    """The period channel of a model, by :func:`model_superoperator`: its
    superoperator, dimensions, start state and period."""
    from embedlearn.embedding import PeriodChannel
    return PeriodChannel(model_superoperator(model), model.dims, model.rho0_ser, model.tau)


def filter_lanes_serial(basis, x, log0, phis, out, keep):
    """``likelihood._filter`` one lane after another, with its arguments and
    return value: the plain matrix-vector loop of one block over all the
    lane's transfers, stopped at the lane's first record of zero
    probability; at d_er = 1 every transfer is that record's probability.
    Every block goes into one array of all the lane's records, and the rows
    at ``keep[s]`` are copied to ``out[s]``.  The
    bitwise reference of the lockstep loop, for any number of lanes."""
    from embedlearn.embedding import _transfers
    lanes, k = x.shape
    n = len(phis[0]) - 1
    unit = np.eye(int(round(np.sqrt(k))), dtype=np.complex128).ravel()
    logs = np.full((lanes, n + 1), np.nan)
    bad = np.full(lanes, -1)
    for s in range(lanes):
        ts = _transfers(basis[s], phis[s][:-1], phis[s][1:])
        blocks = np.full((n, k), np.nan, dtype=np.complex128)
        if k == 1:
            ps = ts[:, 0, 0].real
            blocks[:] = 1.0
        else:
            ps, xs = np.zeros(n), x[s]
            for i, ti in enumerate(ts):
                y = ti @ xs
                ps[i] = (unit @ y).real
                if ps[i] <= 0.0:
                    break
                xs = y / ps[i]
                blocks[i] = xs
        out[s][...] = blocks[keep[s]]
        if (ps <= 0.0).any():
            bad[s] = np.argmax(ps <= 0.0)
        else:
            logs[s] = np.cumsum(np.concatenate(([log0[s]], np.log(ps))))
    return logs, bad


def build_cache_serial(model, data):
    """Both sweeps of one model over ``data``, lane by lane through
    :func:`filter_lanes_serial`, into a cache whose channel is
    :func:`model_channel`, whose eigensystem is ``herm_eig`` of H alone and
    whose Kraus stack is that of ``expm_unitary``: the bitwise reference of
    ``build_cache`` and of each cache of ``build_caches``."""
    from unittest import mock

    import embedlearn.likelihood as lk
    from embedlearn.embedding import kraus_stack
    from embedlearn.qla import expm_unitary, herm_eig
    ks = kraus_stack(model, expm_unitary(model.h, model.tau)).copy()
    cache = lk._new_cache(model_channel(model), data, herm_eig(model.h), ks)
    with mock.patch.object(lk, "_filter", filter_lanes_serial):
        lk._raise_zero_probability(lk._sweep([cache], forward=True, backward=True), data)
    return cache


def exact_embedding(cfg, d_er):
    """An embedding whose period channel is the truth's
    ``datagen.period_superoperator`` of ``cfg``, for d_er = 2 or 3.

    The Kraus operators come from the eigensystem of the channel's Choi
    matrix.  They form the isometry into the ancilla's |0> column, in
    ``kraus_stack``'s index order K_j[x, y] = U[x d_a + j, y d_a]; the
    other columns of U are an orthonormal basis of the complement, and
    H = i log(U) / tau through a complex Schur form of U.  At d_er = 3 the
    memory gains a decoupled third level: K'_0 = K_0 + I on S x |2> and
    every other K'_j = K_j + 0.  The start state is ``rho_ss1_0`` on the
    first two memory levels.
    """
    import scipy.linalg

    from embedlearn.datagen import period_superoperator
    from embedlearn.embedding import make_embedding
    from embedlearn.qla import DimSpec
    if d_er not in (2, 3):
        raise ValueError(f"d_er must be 2 or 3, got {d_er}")
    dims = DimSpec(d_s=2, d_er=d_er)
    d, d_a = dims.d, dims.d_a
    m = period_superoperator(cfg)
    # Choi matrix J[(r, p), (s, q)] = Phi(|r><s|)[p, q] = m[q*4 + p, s*4 + r].
    choi = m.reshape(4, 4, 4, 4).transpose(3, 1, 2, 0).reshape(16, 16)
    lam, vecs = scipy.linalg.eigh(0.5 * (choi + choi.conj().T))
    order = np.argsort(-lam)
    # K_k[p, r] = sqrt(lam_k) v_k[r*4 + p], the largest eigenvalue first.
    small = (np.sqrt(np.clip(lam[order], 0.0, None))[:, None, None]
             * vecs[:, order].T.reshape(16, 4, 4).transpose(0, 2, 1))
    # Joint index s*d_er + r; the truth's memory levels are r = 0, 1.
    sel = np.array([s * d_er + r for s in range(2) for r in range(2)])
    ks = np.zeros((d_a, d, d), dtype=np.complex128)
    ks[:16, sel[:, None], sel[None, :]] = small
    for s in range(2):
        ks[0, s * d_er + 2:(s + 1) * d_er, s * d_er + 2:(s + 1) * d_er] = np.eye(d_er - 2)
    total = d * d_a
    u = np.zeros((total, total), dtype=np.complex128)
    first = np.arange(d) * d_a
    u[:, first] = ks.transpose(1, 0, 2).reshape(total, d)
    u[:, np.setdiff1d(np.arange(total), first)] = scipy.linalg.null_space(
        u[:, first].conj().T)
    t, z = scipy.linalg.schur(u, output="complex")
    h = (z * (1j * np.log(np.diag(t)))) @ z.conj().T / cfg.tau
    rho0 = np.zeros((d, d), dtype=np.complex128)
    rho0[sel[:, None], sel[None, :]] = cfg.rho_ss1_0
    return make_embedding(dims, cfg.tau, 0.5 * (h + h.conj().T), rho0)


def dump_step_increments(cache, path):
    """Per-record log-probability increments of a forward sweep as CSV."""
    inc = np.diff(cache.forward_log_scale)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,log_p_increment\n")
        for i, x in enumerate(inc, start=1):
            fh.write(f"{i},{float(x)!r}\n")


# ---------------------------------------------------------------------------
# Joint-sized views of the library's sweeps, the bare-entry derivative of
# the period unitary and single posterior draws, which only tests read.
# ---------------------------------------------------------------------------

def per_step_increments(cache):
    """Conditional log-probability of each record given its prefix."""
    if cache.forward_log_scale is None:
        raise ValueError("forward sweep missing")
    return np.diff(cache.forward_log_scale)


def forward_states(cache):
    """Trace-normalized joint states after each record, (n+1, d, d)."""
    from embedlearn.likelihood import _product_operators
    if cache.forward_blocks is None:
        raise ValueError("forward sweep missing")
    return np.concatenate((cache.channel.rho0[None],
                           _product_operators(cache.phis, cache.forward_blocks[1:])))


def backward_effects(cache):
    """Joint effects at unit operator norm, (n+1, d, d); each is
    proportional to the effect of the records after its time."""
    from embedlearn.likelihood import _dense_effects
    if cache.backward_blocks is None:
        raise ValueError("backward sweep missing")
    effects, _ = _dense_effects(cache.channel.m, cache.phis, cache.backward_blocks[1:])
    d = effects.shape[1]
    return np.concatenate((effects, np.eye(d, dtype=np.complex128)[None]))


def unitary_derivative(h, mu, nu, tau):
    """Entrywise derivative of exp(-i tau H) with respect to H[mu, nu].

    The perturbation direction is the bare matrix unit |mu><nu|; Hermitian
    parametrizations combine (mu, nu) and (nu, mu) entries on top of this.
    """
    from embedlearn.likelihood import _loewner_exp
    from embedlearn.qla import herm_eig
    dec = herm_eig(h)
    lam, v = dec.eigenvalues, dec.eigenvectors
    f = _loewner_exp(lam, tau)
    inner = np.outer(v[mu, :].conj(), v[nu, :])
    return v @ (f * inner) @ v.conj().T


def sample_model(posterior, rng):
    """One model drawn from a variational posterior."""
    from embedlearn.train import unpack_hermitian
    theta = posterior.mean + posterior.std * rng.standard_normal(posterior.mean.size)
    return posterior.base.with_h(unpack_hermitian(theta, posterior.base.dims.d_total))


# ---------------------------------------------------------------------------
# Choi matrices of callable maps and the backflow flag.
# ---------------------------------------------------------------------------

def choi_of_map(apply, d):
    """Choi matrix (output factor first, trace one) of a callable channel,
    from its action on the matrix units."""
    omega = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            omega += np.kron(np.asarray(apply(e), dtype=np.complex128), e)
    return omega / d


def _choi_side(choi):
    """System dimension d of a (d*d, d*d) Choi matrix."""
    return int(round(np.sqrt(choi.shape[0])))


def choi_min_eigenvalue(choi):
    """Smallest eigenvalue of the Hermitian part of a Choi matrix."""
    m = np.asarray(choi)
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())


def choi_output_partial_trace_deviation(choi):
    """Largest entry of |tr_out(Omega) - I/d|: zero for a trace-preserving
    map."""
    d = _choi_side(choi)
    red = ptrace_loops(choi, [d, d], [1])
    return float(np.max(np.abs(red - np.eye(d) / d)))


def choi_to_superop(choi):
    """Column-stacking superoperator matrix of a Choi matrix."""
    d = _choi_side(choi)
    o4 = choi.reshape(d, d, d, d)
    return d * o4.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def apply_choi(choi, rho):
    """Channel action d * tr_in[Omega (I x rho^T)]."""
    d = _choi_side(choi)
    o4 = choi.reshape(d, d, d, d)
    return d * np.einsum("aibj,ij->ab", o4, np.asarray(rho, dtype=np.complex128))


def nonmonotonicity_flag(distances, tol=1e-6):
    """True when the distance sequence ever grows by more than ``tol``: the
    information-backflow signature of non-Markovian reduced dynamics."""
    return bool(np.any(np.diff(np.asarray(distances, dtype=float)) > tol))


# ---------------------------------------------------------------------------
# Serial tomography MLE and the per-group tomography of the CLI.
# ---------------------------------------------------------------------------

def tomography_mle_serial(counts, design, tol=1e-10, max_iter=200_000, steps=None):
    """The one-channel diluted RrhoR loop the lockstep ``tomography_mle``
    replaced, kept as its bitwise reference.  It runs on the library's
    ``hermitianize`` and ``ptrace``.  ``steps``, if a list, receives the
    step size of every fixed-point evaluation (a value below one is a
    halving)."""
    from embedlearn.errors import NumericalError
    from embedlearn.qla import hermitianize, ptrace
    d = design.input_states[0].shape[0]
    side = d * d
    s_ops = []
    for j, rho in enumerate(design.input_states):
        for k, eff in enumerate(design.povm):
            s_ops.append(np.kron(eff, rho.T))
    s_ops = np.stack(s_ops)  # (J*K, side, side)
    flat_counts = np.asarray(counts, dtype=np.float64).ravel()

    def probs(omega):
        raw = d * np.einsum("nab,ba->n", s_ops, omega).real
        return np.clip(raw, 1e-300, None)

    def loglik(omega):
        return float(flat_counts @ np.log(probs(omega)))

    omega = np.eye(side, dtype=np.complex128) / side
    current = loglik(omega)
    identity = np.eye(side, dtype=np.complex128)
    for _ in range(max_iter):
        p = probs(omega)
        r = np.einsum("n,nab->ab", flat_counts / p, s_ops)
        r = hermitianize(r)
        step = 1.0
        while True:
            if steps is not None:
                steps.append(step)
            r_mix = step * r / flat_counts.sum() + (1.0 - step) * identity
            k = r_mix @ omega @ r_mix
            lam = ptrace(k, [d, d], [1])
            w, v = np.linalg.eigh(hermitianize(lam))
            if w.min() <= 1e-15:
                raise NumericalError("tomography constraint multiplier is singular")
            lam_isqrt = (v / np.sqrt(w)) @ v.conj().T
            proj = np.kron(np.eye(d, dtype=np.complex128), lam_isqrt)
            cand = proj @ k @ proj / d
            cand = hermitianize(cand)
            new = loglik(cand)
            if new >= current - 1e-12 or step < 1e-6:
                break
            step *= 0.5
        gain = new - current
        omega, current = cand, new
        if abs(gain) < tol:
            return omega
    raise NumericalError(f"tomography MLE did not converge in {max_iter} iterations")


def tomography_errors_per_group(truth, periods, shots, seed, *stream_names):
    """The CLI's tomography of one group before all groups of a ``tomo``
    command shared one MLE, kept as the reference of the shared fit: the
    reduced maps of the truth's period channel ``truth`` at this group's
    periods, counts of period ``k`` drawn
    from ``seeds.stream(seed, *stream_names, k)``, one lockstep MLE per
    group and the Choi-matrix error of each estimate.  It runs on the
    library's simulation, MLE and trace norm."""
    from embedlearn import seeds
    from embedlearn.assess import (choi_from_superop, default_design,
                                   simulate_tomography_counts, tomography_mle)
    from embedlearn.datagen import exact_reference_dynamics
    from embedlearn.qla import trace_norm
    _, chans = exact_reference_dynamics(truth, periods)
    design = default_design(shots)
    counts = np.stack([simulate_tomography_counts(ch, design, seeds.stream(seed, *stream_names, k))
                       for k, ch in zip(periods, chans)])
    ests = tomography_mle(counts, design)
    return [0.5 * trace_norm(est - choi_from_superop(ch, 2))
            for est, ch in zip(ests, chans)]


# ---------------------------------------------------------------------------
# Two-loop posterior channel spread.
# ---------------------------------------------------------------------------

def bayes_channel_error_two_loop(posterior, times, n_draws, rng):
    """The spread that drew its own posterior samples, apart from the band
    draws, kept as the bitwise reference of ``bayes_channel_error``."""
    from embedlearn.qla import trace_norm
    if n_draws < 2:
        raise ValueError("need at least two draws")
    times = list(times)
    dims = posterior.base.dims
    side = dims.d_s * dims.d_s
    chois = np.empty((n_draws, len(times), side, side), dtype=np.complex128)
    for i, (_, gen, er) in enumerate(usable_draws_serial(posterior, n_draws, rng)):
        chois[i] = np.stack(dynamics_maps_per_time(gen, dims, er, times))
    center = chois.mean(axis=0)
    total = 0.0
    for i in range(n_draws):
        for t in range(len(times)):
            total += trace_norm(chois[i, t] - center[t])
    return total / (2.0 * n_draws * len(times))


# ---------------------------------------------------------------------------
# Monte-Carlo variational objective on the dense filter.
# ---------------------------------------------------------------------------

def _channel_superoperator(model):
    """Column-stacking matrix of :func:`apply_channel`, one matrix unit per
    column."""
    d = model.dims.d
    cols = []
    for b in range(d):
        for a in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[a, b] = 1.0
            cols.append(apply_channel(model, e).T.ravel())
    return np.stack(cols, axis=1)


def variational_objective(posterior, data, mc_samples, rng, floor=-1e6):
    """One Monte-Carlo estimate of the descent objective at a fixed
    posterior: the negative entropy term plus the mean log-likelihood of
    ``mc_samples`` draws of :func:`sample_model`, each by the dense
    forward sweep; a draw that gives a record zero probability counts as
    ``floor``."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    phis = record_vectors_serial(data.records)
    total = 0.0
    for _ in range(mc_samples):
        model = sample_model(posterior, rng)
        if not len(phis):
            continue
        try:
            total += dense_forward_sweep(_channel_superoperator(model),
                                         model.rho0_ser, phis)[1][-1]
        except ValueError:
            total += floor
    return -float(np.sum(posterior.log_std)) - total / mc_samples


# ---------------------------------------------------------------------------
# Serial posterior draws: one sweep pair per fit draw, one push-forward per
# attempt and per time.
# ---------------------------------------------------------------------------

def entry_mean(dyn):
    """Across-draw mean of the states of a ``PosteriorDynamics``."""
    return dyn.states.mean(axis=0)


def entry_std(dyn):
    """Across-draw standard deviation of each complex state entry."""
    dev = dyn.states - dyn.states.mean(axis=0)
    return np.sqrt((np.abs(dev) ** 2).mean(axis=0))


def fit_gaussian_posterior_serial(value_and_grad, mean0, log_std0, cfg, rng):
    """The variational descent that drew and scored one sample at a time,
    kept as the bitwise reference of the batched ``fit_gaussian_posterior``;
    ``value_and_grad(theta)`` scores one draw.  It runs on the library's
    Adam step and stops on a non-finite objective only."""
    from embedlearn.errors import DivergenceError
    from embedlearn.train import AdamState, adam_update
    mean = np.asarray(mean0, dtype=np.float64)
    n = mean.size
    params = np.concatenate([mean, np.asarray(log_std0, dtype=np.float64)])
    adam = AdamState.fresh(2 * n)
    trace = []
    for _ in range(cfg.iterations):
        mean, log_std = params[:n], params[n:]
        sigma = np.exp(log_std)
        value_sum = 0.0
        g_mean = np.zeros(n)
        g_log_std = np.zeros(n)
        for _ in range(cfg.mc_samples):
            eps = rng.standard_normal(n)
            value, grad = value_and_grad(mean + sigma * eps)
            value_sum += value
            g_mean += grad
            g_log_std += grad * eps * sigma
        k = cfg.mc_samples
        objective = -float(np.sum(log_std)) - value_sum / k
        trace.append(objective)
        if not np.isfinite(objective):
            raise DivergenceError("variational objective is not finite", trace)
        grad_obj = np.concatenate([-g_mean / k, -1.0 - g_log_std / k])
        params, adam = adam_update(adam, params, -grad_obj, cfg)
    return params[:n], params[n:], trace


def score_draw_serial(model, data, theta, floor):
    """One draw's (log-likelihood, packed gradient) by its own forward and
    backward sweep (``build_cache``), ``floor`` and a zero gradient on a
    zero-probability record: the per-draw target of ``fit_posterior``
    before its draws ran as lanes."""
    from embedlearn.errors import ZeroProbabilityError
    from embedlearn.likelihood import build_cache, log_likelihood_gradient
    from embedlearn.train import gradient_to_params, unpack_hermitian
    m = model.with_h(unpack_hermitian(theta, model.dims.d_total))
    try:
        cache = build_cache(m, data)
        g = log_likelihood_gradient(cache, np.arange(1, len(data.records) + 1))
    except ZeroProbabilityError:
        return floor, np.zeros(theta.size)
    return cache.log_likelihood(), gradient_to_params(g)


def fit_posterior_serial(model, data, cfg):
    """``fit_posterior`` with one sweep pair per draw, one draw at a time:
    (mean, log_std, objective trace)."""
    import math

    from embedlearn import seeds
    from embedlearn.train import pack_hermitian
    mean0 = pack_hermitian(model.h)
    return fit_gaussian_posterior_serial(
        lambda theta: score_draw_serial(model, data, theta, cfg.floor_log_likelihood),
        mean0, np.full(mean0.size, math.log(cfg.init_sigma)), cfg,
        seeds.stream(cfg.seed, "bayes"))


def usable_draws_serial(posterior, n_draws, rng, outcomes=None):
    """Yield (model, generator, equilibrium reservoir state) for usable
    draws, one attempt at a time through :func:`sample_model`,
    :func:`extract_generator_serial` and ``equilibrium_er_state``; rejected attempts
    are resampled, at most ten attempts per requested draw.  ``outcomes``,
    if a list, receives True or False per attempt."""
    from embedlearn.embedding import equilibrium_er_state
    from embedlearn.errors import (BranchCutError, FixedPointError, IllConditionedError,
                                   NumericalError)
    tries = 0
    got = 0
    while got < n_draws:
        if tries >= 10 * n_draws:
            raise NumericalError(
                f"only {got} of {n_draws} posterior draws usable in {tries} attempts")
        tries += 1
        m = sample_model(posterior, rng)
        try:
            gen = extract_generator_serial(m)
            er = equilibrium_er_state(gen)
        except (BranchCutError, IllConditionedError, FixedPointError):
            if outcomes is not None:
                outcomes.append(False)
            continue
        if outcomes is not None:
            outcomes.append(True)
        got += 1
        yield m, gen, er


def generator_flow(gen, x):
    """The map t -> exp(t L) x of an unstacked generator for a vector or a
    block of columns x, which is projected onto the eigenbasis once; one
    time per call, and x itself at t = 0."""
    coords = gen.inverse @ x

    def at(t):
        if t == 0:
            return x
        scale = np.exp((t / gen.tau) * gen.log_eigenvalues)
        return gen.eigenvectors @ (scale * coords.T).T  # scales the rows

    return at


def predict_dynamics_per_time(gen, dims, rho_ser0, times):
    """Reduced states of the generator's flow, one time at a time."""
    from embedlearn.qla import hermitianize, ptrace, unvec, vec
    flow = generator_flow(gen, vec(rho_ser0))
    return [hermitianize(ptrace(unvec(flow(float(t))), [dims.d_s, dims.d_er], [0]))
            for t in times]


def dynamics_maps_per_time(gen, dims, rho_er0, times):
    """Choi matrices of the reduced maps, one time at a time."""
    d_s, d_er = dims.d_s, dims.d_er
    eye = np.eye(d_s, dtype=np.complex128)
    basis = np.einsum("aj,bi,ef->afbeji", eye, eye, np.asarray(rho_er0, dtype=np.complex128))
    flow = generator_flow(gen, basis.reshape(dims.d ** 2, d_s * d_s))
    out = []
    for t in times:
        joint = flow(float(t)).reshape(d_s, d_er, d_s, d_er, d_s * d_s)
        m4 = np.einsum("jeiec->jic", joint).reshape(d_s, d_s, d_s, d_s)
        out.append(m4.transpose(1, 3, 0, 2).reshape(d_s * d_s, d_s * d_s) / d_s)
    return out


def predict_with_control_per_time(gen, dims, rho_ser0, events, times):
    """``predict_with_control`` by one flow per time, kept as its bitwise
    reference: in increasing time order, every gate at or before a
    requested time is applied to the state at the gate time, and the state
    at the requested time flows from the last gate."""
    from embedlearn.qla import dagger, hermitianize, ptrace, unvec, vec
    d_s, d_er = dims.d_s, dims.d_er
    ev = sorted(events, key=lambda e: e.time)
    flow = generator_flow(gen, vec(np.asarray(rho_ser0, dtype=np.complex128)))
    start = 0.0
    ev_idx = 0
    results = {}
    for pos in np.argsort(times):
        t = float(times[pos])
        while ev_idx < len(ev) and ev[ev_idx].time <= t:
            e = ev[ev_idx]
            g = np.kron(np.asarray(e.gate, dtype=np.complex128),
                        np.eye(d_er, dtype=np.complex128))
            v = flow(e.time - start)
            flow = generator_flow(gen, vec(g @ unvec(v) @ dagger(g)))
            start = e.time
            ev_idx += 1
        results[pos] = hermitianize(ptrace(unvec(flow(t - start)), [d_s, d_er], [0]))
    return [results[i] for i in range(len(times))]


def sample_dynamics_serial(posterior, rho_s0, times, n_draws, rng, outcomes=None):
    """(states, maps) of ``sample_dynamics`` by the serial draws and the
    per-time push-forward of each draw."""
    from embedlearn.qla import kron
    dims = posterior.base.dims
    states, maps = [], []
    for _, gen, er in usable_draws_serial(posterior, n_draws, rng, outcomes):
        states.append(predict_dynamics_per_time(gen, dims, kron(rho_s0, er), times))
        maps.append(dynamics_maps_per_time(gen, dims, er, times))
    return np.array(states), np.array(maps)


# ---------------------------------------------------------------------------
# Per-item ground truth and assessment, the bitwise references of the
# stacked library functions.  They vectorize one matrix at a time.
# ---------------------------------------------------------------------------

def _vec(m):
    return np.asarray(m).T.ravel()


def _unvec(v):
    v = np.asarray(v).ravel()
    side = int(round(np.sqrt(v.size)))
    return v.reshape(side, side).T


def exact_reference_dynamics_serial(cfg, periods):
    """``exact_reference_dynamics`` as lists, stepping the state and the
    four operator-basis columns by hand up to the largest period."""
    from embedlearn.datagen import period_superoperator
    from embedlearn.qla import hermitianize, ptrace
    if any(k < 0 for k in periods):
        raise ValueError("period counts must be nonnegative")
    mp = period_superoperator(cfg)
    rho_s1_0 = ptrace(np.asarray(cfg.rho_ss1_0, dtype=np.complex128), [2, 2], [1])
    units = []
    for b in range(2):
        for a in range(2):
            e = np.zeros((2, 2), dtype=np.complex128)
            e[a, b] = 1.0
            units.append(_vec(np.kron(e, rho_s1_0)))
    cur_state = _vec(np.asarray(cfg.rho_ss1_0, dtype=np.complex128))
    cur_basis = np.stack(units, axis=1)  # 16 x 4, column b*2+a
    cache = {0: (cur_state, cur_basis)}
    for k in range(1, (max(periods) if periods else 0) + 1):
        cur_state = mp @ cur_state
        cur_basis = mp @ cur_basis
        cache[k] = (cur_state, cur_basis)
    states, channels = [], []
    for k in periods:
        state, cols = cache[k]
        states.append(hermitianize(ptrace(_unvec(state), [2, 2], [0])))
        m = np.zeros((4, 4), dtype=np.complex128)
        for c in range(4):
            m[:, c] = _vec(ptrace(_unvec(cols[:, c]), [2, 2], [0]))
        channels.append(m)
    return states, channels


def exact_controlled_dynamics_serial(cfg, gate, event_period, periods):
    """The truth's S states under one gate, as ``predict_with_control`` of
    its period channel and ``ControlEvent(event_period, gate)`` gives them,
    as a list: the joint state stepped one period at a time and gated at
    ``event_period``."""
    from embedlearn.datagen import period_superoperator
    from embedlearn.qla import dagger, hermitianize, ptrace
    mp = period_superoperator(cfg)
    gate = np.asarray(gate, dtype=np.complex128)
    out = {}
    v = _vec(np.asarray(cfg.rho_ss1_0, dtype=np.complex128))
    for k in range(0, max(max(periods, default=0), event_period) + 1):
        if k > 0:
            v = mp @ v
        if k == event_period:
            g2 = np.kron(gate, np.eye(2, dtype=np.complex128))
            v = _vec(g2 @ _unvec(v) @ dagger(g2))
        if k in periods:
            out[k] = hermitianize(ptrace(_unvec(v), [2, 2], [0]))
    return [out[k] for k in periods]


def concatenation_prediction_serial(times, superops, event, rho_s0):
    """``concatenation_prediction`` one time at a time: (states, flags)."""
    from embedlearn.qla import dagger, hermitianize
    m_at = superops[[i for i, t in enumerate(times) if abs(t - event.time) < 1e-12][0]]
    gate = np.asarray(event.gate, dtype=np.complex128)
    gated = gate @ _unvec(m_at @ _vec(rho_s0)) @ dagger(gate)
    seed_vec = np.linalg.solve(m_at, _vec(gated))
    states, flags = [], []
    for t, m in zip(times, superops):
        rho = hermitianize(_unvec(m @ (_vec(rho_s0) if t < event.time else seed_vec)))
        states.append(rho)
        flags.append(bool(np.linalg.eigvalsh(rho).min() < -1e-8))
    return states, flags


def outcome_probabilities_serial(channel_superop, design):
    """``outcome_probabilities`` by one trace per input and effect."""
    p = np.zeros((len(design.input_states), len(design.povm)))
    for j, rho in enumerate(design.input_states):
        out = _unvec(channel_superop @ _vec(rho))
        for k, eff in enumerate(design.povm):
            p[j, k] = max(np.einsum("ab,ba->", eff, out).real, 0.0)
        p[j] /= p[j].sum()
    return p


def predict_with_control_serial(gen, dims, rho_ser0, events, times):
    """``predict_with_control`` by one propagation per segment between
    gates and one reduced state per requested time, as a list."""
    from embedlearn.qla import dagger, hermitianize, ptrace
    d_s, d_er = dims.d_s, dims.d_er
    ev = sorted(events, key=lambda e: e.time)
    times = np.array([float(t) for t in times])
    order = np.argsort(times)
    sorted_times = times[order]
    x = _vec(np.asarray(rho_ser0, dtype=np.complex128))[:, None]
    start, joint = 0.0, []
    for e in ev:
        hi = int(np.searchsorted(sorted_times, e.time))
        if hi == len(times):
            break
        seg = gen.propagate(x, np.append(sorted_times[len(joint):hi], e.time) - start)
        joint.extend(seg[:-1])
        g = np.kron(np.asarray(e.gate, dtype=np.complex128), np.eye(d_er, dtype=np.complex128))
        x = _vec(g @ _unvec(seg[-1]) @ dagger(g))[:, None]
        start = e.time
    joint.extend(gen.propagate(x, sorted_times[len(joint):] - start))
    results = [None] * len(times)
    for pos, v in zip(order, joint):
        results[pos] = hermitianize(ptrace(_unvec(v), [d_s, d_er], [0]))
    return results


# ---------------------------------------------------------------------------
# The H-sized algebra of an epoch as first written, one new array per
# operation: the bitwise references of the library's in-place versions.
# ---------------------------------------------------------------------------

def herm_eig_allocating(m, tol=1e-10):
    """Eigenvalues and eigenvectors of (M + M†)/2 after a max|M - M†| check."""
    m = np.asarray(m, dtype=np.complex128)
    dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2))) if m.size else 0.0
    if not dev <= tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))


def loewner_exp_allocating(lam, tau, tol=1e-12):
    """Divided differences of z -> exp(-i tau z), the confluent limit where
    two eigenvalues lie within ``tol * max(1, |a|)``."""
    ph = np.exp(-1j * tau * lam)
    diff = lam[:, None] - lam[None, :]
    degenerate = np.abs(diff) <= tol * np.maximum(1.0, np.abs(lam))[:, None]
    safe = np.where(degenerate, 1.0, diff)
    f = (ph[:, None] - ph[None, :]) / safe
    limit = (-1j * tau * ph)[:, None] * np.ones_like(f)
    return np.where(degenerate, limit, f)


def product_operators_allocating(phis, blocks):
    """|phi><phi| x block, stacked, in the einsum's own output order."""
    d = phis.shape[1] * blocks.shape[1]
    return np.einsum("ms,mt,mef->msetf", phis, phis.conj(), blocks).reshape(-1, d, d)


def log_likelihood_gradient_allocating(cache, batch):
    """The merge-point gradient over the sorted distinct ``batch`` from the
    sweeps, spectrum and Kraus stack of ``cache``, each step a new array."""
    batch = np.unique(np.asarray(batch, dtype=np.intp))
    dims, tau, n = cache.channel.dims, cache.channel.tau, cache.n
    d, dd = dims.d, dims.d_total
    lam, v = cache.spectrum.eigenvalues, cache.spectrum.eigenvectors
    f = loewner_exp_allocating(lam, tau)
    a = product_operators_allocating(cache.phis[batch - 1], cache.backward_blocks[batch])
    b = product_operators_allocating(cache.phis[batch - 2].conj(),
                                     cache.forward_blocks[batch - 1].transpose(0, 2, 1))
    a, b = a.reshape(-1, d * d), b.reshape(-1, d * d)
    b[batch == 1] = _vec(cache.channel.rho0)
    values = np.einsum("mi,mi->m", a, b @ cache.channel.m.T).real
    c4 = ((a / values[:, None]).T @ b).reshape(d, d, d, d)
    g1 = np.einsum("pqrs,jpr->qjs", c4, cache.kraus.conj()).reshape(dd, d)
    g2 = np.einsum("pqrs,jqs->rpj", c4, cache.kraus).reshape(d, dd)
    va = v.reshape(d, -1, dd)[:, 0, :]
    vg1v = (v.T @ g1) @ va.conj()
    vg2v = va.T @ (g2 @ v.conj())
    inner = f * vg1v + f.conj() * vg2v
    grad = v.conj() @ inner @ v.T
    return (n / batch.size) * grad



# ---------------------------------------------------------------------------
# A training epoch as first written, on the full cache: the bitwise
# reference of the compact cache of one batch.
# ---------------------------------------------------------------------------

def fit_loop_full_cache(model, data_train, data_val, cfg, rng_batch):
    """``train._fit_loop`` with every block of both sweeps kept: each epoch
    fills a full ``build_cache`` cache, and unless it ends the fit, draws
    its batch after the sweep and takes the gradient by gathering the
    batch's rows of that cache."""
    import math

    from embedlearn.likelihood import (build_cache, conditional_validation_ll,
                                       log_likelihood_gradient)
    from embedlearn.train import (AdamState, LearningCurve, adam_update,
                                  gradient_to_params, pack_hermitian, unpack_hermitian)
    n = len(data_train)
    params = pack_hermitian(model.h)
    adam = AdamState.fresh(params.size)
    curve = LearningCurve()
    best_val, best_h = -math.inf, model.h.copy()
    for epoch in range(1, cfg.epochs + 1):
        cache = build_cache(model, data_train)
        train_ps = cache.log_likelihood() / n
        converged = (epoch > cfg.convergence_window and
                     abs(train_ps - curve.train_per_step[-cfg.convergence_window])
                     < cfg.convergence_tol)
        last = converged or epoch == cfg.epochs
        val_ps = None
        if data_val is not None and (epoch % cfg.val_every == 0 or last):
            val_ps = conditional_validation_ll(data_train, data_val, cache)
            if val_ps > best_val:
                best_val, best_h = val_ps, model.h.copy()
        curve.append(epoch, train_ps, val_ps, 0.0)
        if last:
            break
        batch = rng_batch.choice(n, size=min(cfg.batch_size, n), replace=False) + 1
        grad = gradient_to_params(log_likelihood_gradient(cache, batch))
        params, adam = adam_update(adam, params, grad, cfg)
        model = model.with_h(unpack_hermitian(params, model.dims.d_total))
    if data_val is not None:
        return model.with_h(best_h), curve, best_val
    return model, curve, curve.train_per_step[-1]
