"""Independent reference implementations used as test oracles.

Everything here recomputes results by a different route than the library:
explicit index loops, truncated series, pure-state networks, power
iteration, finite differences.  Nothing imports from ``embedlearn`` so a
library bug cannot cancel against itself.
"""
from __future__ import annotations

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
