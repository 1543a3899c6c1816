"""Independent reference implementations used as test oracles.

Everything here recomputes results by a different route than the library:
explicit index loops, truncated series, pure-state networks, power
iteration, finite differences.  No result is computed through
``embedlearn``, so a library bug cannot cancel against itself.  Three helpers
touch it: :func:`choi_of_map` wraps its result in the library's Choi
container, :func:`variational_objective` draws models with the
posterior's own ``sample_model``, and :func:`tomography_mle_serial`, the
bitwise reference of the batched tomography MLE, runs on the library's
``hermitianize`` and ``ptrace``; :func:`bayes_channel_error_two_loop`, the
bitwise reference of the posterior channel spread, draws and propagates
through the library's ``_usable_draws`` and ``dynamics_maps``.  The helpers
that only tests use (the
joint-space trajectory simulator, Choi conversions, a CSV dump, a
Monte-Carlo objective) live here too.
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


def apply_channel(model, rho):
    """One period of the embedded dynamics: tr_A[U (rho x rho_a) U+], with
    the Kronecker products spelled out on the full dilation space."""
    d, d_a = model.dims.d, model.dims.d_a
    if rho.shape != (d, d):
        raise ValueError(f"state has shape {rho.shape}, expected side {d}")
    u = _period_unitary(model)
    joint = u @ np.kron(rho, model.rho_a) @ u.conj().T
    return np.einsum("xaya->xy", joint.reshape(d, d_a, d, d_a))


def apply_dual(model, effect):
    """Heisenberg-picture dual: tr_A[U+ (E x I_A) U (I x rho_a)]."""
    d, d_a = model.dims.d, model.dims.d_a
    if effect.shape != (d, d):
        raise ValueError(f"effect has shape {effect.shape}, expected side {d}")
    u = _period_unitary(model)
    lifted = (u.conj().T @ np.kron(effect, np.eye(d_a)) @ u
              @ np.kron(np.eye(d), model.rho_a))
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
# Per-element JSON writers: the file formats as first written, one complex()
# or float() call per matrix entry and one dumps call per record.
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


def legacy_save_model(path, dims, tau, h, rho0_ser, rho_a):
    """A model file written by streaming ``json.dump``; ``dims`` is the
    (d_s, d_er, d_a) triple."""
    import json
    obj = {
        "dims": dict(zip(("d_s", "d_er", "d_a"), dims)),
        "tau": tau,
        "h": legacy_matrix_to_pairs(h),
        "rho0_ser": legacy_matrix_to_pairs(rho0_ser),
        "rho_a": legacy_matrix_to_pairs(rho_a),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def legacy_save_posterior(path, posterior):
    """A posterior file written by streaming ``json.dump`` over per-entry
    ``float`` lists."""
    import json
    base = posterior.base
    obj = {
        "model": {
            "dims": {"d_s": base.dims.d_s, "d_er": base.dims.d_er, "d_a": base.dims.d_a},
            "tau": base.tau,
            "h": legacy_matrix_to_pairs(base.h),
            "rho0_ser": legacy_matrix_to_pairs(base.rho0_ser),
            "rho_a": legacy_matrix_to_pairs(base.rho_a),
        },
        "mean": [float(x) for x in posterior.mean],
        "log_std": [float(x) for x in posterior.log_std],
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


def joint_trajectory(period_map, rho0, rng, n):
    """Bases (n, 2, 2) and outcomes (n,) of ``n`` periods: evolve the joint
    state by the column-stacking 16x16 ``period_map``, measure the reduced
    system state, then condition S1 on the outcome.  A zero-probability
    record raises ValueError naming its step."""
    v = np.asarray(rho0, dtype=np.complex128).T.ravel()
    bases = np.empty((n, 2, 2), dtype=np.complex128)
    outcomes = np.empty(n, dtype=int)
    for i in range(1, n + 1):
        rho = (period_map @ v).reshape(4, 4).T
        rho = 0.5 * (rho + rho.conj().T)
        rho4 = rho.reshape(2, 2, 2, 2)
        rec, proj = sample_measurement(np.einsum("sete->st", rho4), rng, step=i)
        bases[i - 1], outcomes[i - 1] = rec.basis, rec.outcome
        phi = rec.basis[:, rec.outcome]
        block = np.einsum("s,setf,t->ef", phi.conj(), rho4, phi)
        tr = np.trace(block).real
        if tr <= 0:
            raise ValueError(f"zero probability at step {i}")
        v = np.kron(proj, 0.5 * (block + block.conj().T) / tr).T.ravel()
    return bases, outcomes


def dump_step_increments(cache, path):
    """Per-record log-probability increments of a forward sweep as CSV."""
    inc = np.diff(cache.forward_log_scale)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,log_p_increment\n")
        for i, x in enumerate(inc, start=1):
            fh.write(f"{i},{float(x)!r}\n")


# ---------------------------------------------------------------------------
# Choi matrices of callable maps and the backflow flag.
# ---------------------------------------------------------------------------

def choi_of_map(apply, d):
    """Choi matrix (output factor first, trace one) of a callable channel,
    from its action on the matrix units."""
    from embedlearn.assess import ChoiMatrix
    omega = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            omega += np.kron(np.asarray(apply(e), dtype=np.complex128), e)
    return ChoiMatrix(matrix=omega / d, d=d)


def choi_to_superop(choi):
    """Column-stacking superoperator matrix of a Choi matrix."""
    d = choi.d
    o4 = choi.matrix.reshape(d, d, d, d)
    return d * o4.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def apply_choi(choi, rho):
    """Channel action d * tr_in[Omega (I x rho^T)]."""
    d = choi.d
    o4 = choi.matrix.reshape(d, d, d, d)
    return d * np.einsum("aibj,ij->ab", o4, np.asarray(rho, dtype=np.complex128))


def nonmonotonicity_flag(distances, tol=1e-6):
    """True when the distance sequence ever grows by more than ``tol``: the
    information-backflow signature of non-Markovian reduced dynamics."""
    return bool(np.any(np.diff(np.asarray(distances, dtype=float)) > tol))


# ---------------------------------------------------------------------------
# Serial tomography MLE.
# ---------------------------------------------------------------------------

def tomography_mle_serial(counts, design, tol=1e-10, max_iter=200_000, steps=None):
    """The one-channel diluted RrhoR loop the lockstep ``tomography_mle``
    replaced, kept as its bitwise reference.  It runs on the library's
    ``hermitianize`` and ``ptrace``.  ``steps``, if a list, receives the
    step size of every fixed-point evaluation (a value below one is a
    halving)."""
    from embedlearn.assess import ChoiMatrix
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
            return ChoiMatrix(matrix=omega, d=d)
    raise NumericalError(f"tomography MLE did not converge in {max_iter} iterations")


# ---------------------------------------------------------------------------
# Two-loop posterior channel spread.
# ---------------------------------------------------------------------------

def bayes_channel_error_two_loop(posterior, times, n_draws, rng):
    """The spread that drew its own posterior samples, apart from the band
    draws, kept as the bitwise reference of ``bayes_channel_error``."""
    from embedlearn.assess import dynamics_maps
    from embedlearn.bayes import _usable_draws
    from embedlearn.qla import trace_norm
    if n_draws < 2:
        raise ValueError("need at least two draws")
    times = list(times)
    dims = posterior.base.dims
    side = dims.d_s * dims.d_s
    chois = np.empty((n_draws, len(times), side, side), dtype=np.complex128)
    for i, (_, gen, er) in enumerate(_usable_draws(posterior, n_draws, rng)):
        maps = dynamics_maps(gen, dims, er, times)
        chois[i] = np.stack([c.matrix for c in maps])
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
    ``mc_samples`` draws of ``posterior.sample_model``, each by the dense
    forward sweep; a draw that gives a record zero probability counts as
    ``floor``."""
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    phis = np.array([rec.basis[:, rec.outcome] for rec in data.records])
    total = 0.0
    for _ in range(mc_samples):
        model = posterior.sample_model(rng)
        if not len(phis):
            continue
        try:
            total += dense_forward_sweep(_channel_superoperator(model),
                                         model.rho0_ser, phis)[1][-1]
        except ValueError:
            total += floor
    return -float(np.sum(posterior.log_std)) - total / mc_samples
