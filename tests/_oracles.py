"""Independent brute-force oracles used to pin expected values.

Everything here is written from first principles on purpose: probabilities
come from explicit sums over all 2^n subsets, determinants from
np.linalg.det, and propagation factors from the defining formulas, so the
library under test shares no code path with these reference values.
"""

import itertools
import math

import numpy as np


def all_subsets(n):
    for k in range(n + 1):
        yield from itertools.combinations(range(n), k)


def pmf_from_l(L):
    """Subset law of the L-ensemble, normalized by the explicit subset sum."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    raw = {}
    for ψ in all_subsets(n):
        if ψ:
            idx = np.array(ψ)
            raw[ψ] = float(np.linalg.det(L[np.ix_(idx, idx)]))
        else:
            raw[ψ] = 1.0
    total = sum(raw.values())
    return {ψ: v / total for ψ, v in raw.items()}


def pmf_from_k(K):
    """Subset law of a marginal kernel via inclusion-exclusion.

    P(Ψ = ψ) = Σ_{φ ⊇ ψ} (−1)^{|φ|−|ψ|} det(K_φ), summed literally.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    contain = {}
    for φ in all_subsets(n):
        if φ:
            idx = np.array(φ)
            contain[φ] = float(np.linalg.det(K[np.ix_(idx, idx)]))
        else:
            contain[φ] = 1.0
    out = {}
    for ψ in all_subsets(n):
        rest = [z for z in range(n) if z not in ψ]
        acc = 0.0
        for extra in all_subsets(len(rest)):
            φ = tuple(sorted(ψ + tuple(rest[t] for t in extra)))
            acc += (-1) ** len(extra) * contain[φ]
        out[ψ] = acc
    return out


def pmf_from_k_signed(K):
    """Subset law of a marginal kernel via one determinant per subset.

    P(Ψ = ψ) = (−1)^{n−|ψ|} det(K − I restricted to the complement of ψ),
    the standard signed-minor identity; works even at eigenvalue 1.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    out = {}
    for ψ in all_subsets(n):
        m = K.copy()
        for z in range(n):
            if z not in ψ:
                m[z, z] -= 1.0
        out[ψ] = float((-1) ** (n - len(ψ)) * np.linalg.det(m))
    return out


def exact_pmf_array_loops(kernel, max_size=20):
    """Reference ``dpp.exact_pmf_array``: one index array and one
    np.linalg.det per subset, then the Moebius pass over index masks.  The
    library's size-batched enumeration must equal it bit for bit."""
    from detsched.dpp import CLAMP_TOL
    from detsched.errors import EnumerationTooLarge
    from detsched.kernels import LEnsemble

    n = kernel.n
    if n > max_size:
        raise EnumerationTooLarge(f"ground set of {n} nodes exceeds cap {max_size}")
    size = 1 << n
    masks = np.arange(size)
    out = np.empty(size, dtype=float)
    mat = kernel.matrix
    positions = [np.flatnonzero([(m >> b) & 1 for b in range(n)]) for m in range(size)]
    if isinstance(kernel, LEnsemble):
        norm = kernel.normalization
        for m in range(size):
            idx = positions[m]
            out[m] = float(np.linalg.det(mat[np.ix_(idx, idx)])) / norm if m else 1.0 / norm
    else:
        # containment determinants, then Moebius inversion down the
        # superset lattice turns them into exact-outcome probabilities
        for m in range(size):
            idx = positions[m]
            out[m] = float(np.linalg.det(mat[np.ix_(idx, idx)])) if m else 1.0
        for b in range(n):
            bit = 1 << b
            without = masks[(masks & bit) == 0]
            out[without] -= out[without | bit]
    tiny = (out < 0.0) & (out >= -CLAMP_TOL)
    out[tiny] = 0.0
    return out


def power_law(r, kappa, beta):
    return (kappa * r) ** (-beta)


def fixed_success(points, rx, tx, active_others, tau, kappa, beta, noise, fading_mean):
    """P(SINR > tau) for a fixed transmitting set, exponential fading.

    points: (n, d) transmitter coordinates; rx: receiver coordinate;
    active_others: indices transmitting besides tx.  Power-law loss only.
    """
    points = np.asarray(points, dtype=float)
    rx = np.asarray(rx, dtype=float)
    r = float(np.linalg.norm(points[tx] - rx))
    lr = power_law(r, kappa, beta)
    if tau == 0.0:
        acc = 1.0
    else:
        acc = math.exp(-(tau / fading_mean) * noise / lr)
    for z in active_others:
        s = float(np.linalg.norm(points[z] - rx))
        if s <= 1e-12:
            return 0.0
        if tau > 0.0:
            acc *= 1.0 / (1.0 + tau * power_law(s, kappa, beta) / lr)
    return acc


def coverage_by_enumeration(pmf, success):
    """Σ_ψ P(Ψ=ψ) 1[i ∈ ψ] success(ψ) with success a callable of the set."""
    joint = 0.0
    seen = 0.0
    for ψ, p in pmf.items():
        s = success(ψ)
        if s is None:
            continue
        joint += p * s
        seen += p
    return joint, seen


def pair_coverage_oracle(pmf, points, receivers, i, tau, kappa, beta, noise, fading_mean):
    joint = 0.0
    marginal = 0.0
    for ψ, p in pmf.items():
        if i not in ψ:
            continue
        marginal += p
        others = [z for z in ψ if z != i]
        joint += p * fixed_success(
            points, receivers[i], i, others, tau, kappa, beta, noise, fading_mean
        )
    return joint, marginal


def txrx_coverage_oracle(pmf, points, i, j, tau, kappa, beta, noise, fading_mean):
    """Joint and conditioning mass for transmitter i reaching silent node j."""
    joint = 0.0
    mass = 0.0
    for ψ, p in pmf.items():
        if i not in ψ or j in ψ:
            continue
        mass += p
        others = [z for z in ψ if z != i]
        joint += p * fixed_success(
            points, points[j], i, others, tau, kappa, beta, noise, fading_mean
        )
    return joint, mass


def laplace_oracle(pmf, rates):
    rates = np.asarray(rates, dtype=float)
    acc = 0.0
    for ψ, p in pmf.items():
        acc += p * math.exp(-float(sum(rates[list(ψ)])))
    return acc


def mean_size(pmf):
    return sum(p * len(ψ) for ψ, p in pmf.items())


def random_psd_l(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T) / n


def random_marginal_k(rng, n, high=1.0):
    a = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    lam = rng.uniform(0.0, high, size=n)
    return (q * lam) @ q.T


def random_pairs_geometry(rng, n, min_gap=0.05):
    """Unit-square transmitters with receivers at least min_gap away."""
    tx = rng.uniform(0.0, 1.0, size=(n, 2))
    rx = np.empty_like(tx)
    for i in range(n):
        while True:
            cand = rng.uniform(0.0, 1.0, size=2)
            if np.linalg.norm(cand - tx[i]) >= min_gap:
                rx[i] = cand
                break
    return tx, rx


def phase2_loops(V, u):
    """Reference phase-2 selection of the spectral sampler, O(n k^3).

    Selects one point per column of V (n by k, orthonormal columns; V is
    overwritten).  Each step: pick the first row whose cumulative squared
    norm reaches u[t] times the total, eliminate the chosen row via its
    largest pivot column, drop that column, and re-orthonormalize the rest
    with modified Gram-Schmidt.  Written as explicit loops, independently
    of the library's incremental Gram-Schmidt selection.
    """
    n = V.shape[0]
    m = V.shape[1]
    k = m
    chosen = np.empty(k, dtype=np.int64)
    w = np.empty(n, dtype=np.float64)
    for t in range(k):
        total = 0.0
        for i in range(n):
            s = 0.0
            for j in range(m):
                s += V[i, j] * V[i, j]
            w[i] = s
            total += s
        target = u[t] * total
        acc = 0.0
        x = n - 1
        for i in range(n):
            acc += w[i]
            if acc >= target:
                x = i
                break
        # pivot column: largest magnitude at the chosen row
        jbest = 0
        best = -1.0
        for j in range(m):
            v = abs(V[x, j])
            if v > best:
                best = v
                jbest = j
        if best == 0.0:
            # degenerate draw landed on a zero-mass row; fall back to the
            # heaviest row, which must have a nonzero pivot
            x = 0
            hw = -1.0
            for i in range(n):
                if w[i] > hw:
                    hw = w[i]
                    x = i
            best = -1.0
            for j in range(m):
                v = abs(V[x, j])
                if v > best:
                    best = v
                    jbest = j
        chosen[t] = x
        if m == 1:
            break
        # eliminate the chosen row from every other column
        pivot = V[x, jbest]
        for j in range(m):
            if j == jbest:
                continue
            c = V[x, j] / pivot
            if c != 0.0:
                for i in range(n):
                    V[i, j] -= c * V[i, jbest]
        # drop the pivot column by swapping in the last one
        if jbest != m - 1:
            for i in range(n):
                V[i, jbest] = V[i, m - 1]
        m -= 1
        # modified Gram-Schmidt on the surviving columns
        for j in range(m):
            for jj in range(j):
                d = 0.0
                for i in range(n):
                    d += V[i, j] * V[i, jj]
                for i in range(n):
                    V[i, j] -= d * V[i, jj]
            s = 0.0
            for i in range(n):
                s += V[i, j] * V[i, j]
            nrm = math.sqrt(s)
            if nrm > 0.0:
                inv = 1.0 / nrm
                for i in range(n):
                    V[i, j] *= inv
    return chosen



def conditional_raw_loops(geometry, K, params, t, p, s):
    """Reference unclamped conditional coverage of link-table row (t, p, s).

    The scalar per-link evaluation of the batched closed forms: one Palm
    downdate and one determinant per link, and one ``_distance`` and one
    ``interferer_factor`` call per interferer.  The silent node s (if
    s >= 0) gets the discount 0 without any path loss evaluation, and the
    result is divided by its conditional probability of being silent.  Its
    errors come in the scalar order: Palm pivot, silent node, signal,
    interferers in ground-set order, discount range.
    """
    from detsched.dpp import CLAMP_TOL, palm_reduced, scale_kernel
    from detsched.errors import AlwaysScheduledReceiver
    from detsched.propagation import _distance, interferer_factor, noise_factor

    palm = palm_reduced(K, K.node_ids[t])
    q = 0.0
    if s >= 0:
        rx_id = K.node_ids[s]
        q = float(palm.matrix[palm.index(rx_id), palm.index(rx_id)])
        if q >= 1.0 - CLAMP_TOL:
            raise AlwaysScheduledReceiver(
                f"node {s} transmits with conditional probability {q:.12g}, "
                "so it can never listen"
            )
    pts = geometry.transmitter_points()
    y = geometry.receiver_location(p)
    d_sig = _distance(pts[t], y)
    hv = np.array([0.0 if z == s else interferer_factor(_distance(pts[z], y), d_sig, params)
                   for z in range(geometry.n) if z != t])
    m = K.n - 1
    det = float(np.linalg.det(np.eye(m) - scale_kernel(palm.matrix, hv)))
    return (noise_factor(d_sig, params) / (1.0 - q)) * det


def conditional_raw_semi_reduced(geometry, K, params, t, p, s, use_semi_reduced=None):
    """Unclamped conditional coverage of link-table row (t, p, s) by the
    two-fold Palm identity: det(I - K'_h) - q det(I - K''_h), over 1 - q.

    An independent form of what ``conditional_raw_loops`` computes with a
    zero discount at s: K' is the one-fold Palm kernel at t and K'' the
    semi-reduced kernel that also retains s, both scaled by every node's
    discount, s's own included.  ``use_semi_reduced`` unset skips the
    correction under a path loss singular at zero, where s's discount is
    exactly 0 and the correction's determinant vanishes; forced on it is
    always applied.  The difference of two determinants cancels as q -> 1.
    """
    from detsched.dpp import (
        CLAMP_TOL, PALM_PIVOT_TOL, palm_reduced, palm_semi_reduced, scale_kernel,
    )
    from detsched.errors import AlwaysScheduledReceiver
    from detsched.propagation import _distance, interferer_factor, noise_factor

    tx_id = K.node_ids[t]
    palm = palm_reduced(K, tx_id)
    q = 0.0
    if s >= 0:
        rx_id = K.node_ids[s]
        q = float(palm.matrix[palm.index(rx_id), palm.index(rx_id)])
        if q >= 1.0 - CLAMP_TOL:
            raise AlwaysScheduledReceiver(
                f"node {s} transmits with conditional probability {q:.12g}, "
                "so it can never listen"
            )
    pts = geometry.transmitter_points()
    y = geometry.receiver_location(p)
    d_sig = _distance(pts[t], y)
    hv = np.array([interferer_factor(_distance(pts[z], y), d_sig, params)
                   for z in range(geometry.n) if z != t])
    m = K.n - 1
    det1 = float(np.linalg.det(np.eye(m) - scale_kernel(palm.matrix, hv)))
    if use_semi_reduced is None:
        use_semi_reduced = not params.pathloss.singular_at_zero
    term = 0.0
    if use_semi_reduced and q > PALM_PIVOT_TOL:
        semi = palm_semi_reduced(K, tx_id, rx_id)
        det2 = float(np.linalg.det(np.eye(m) - scale_kernel(semi.matrix, hv)))
        term = q * det2
    return (noise_factor(d_sig, params) / (1.0 - q)) * (det1 - term)


def link_report_loops(geometry, K, params, t, p, s):
    """Reference LinkReport of link-table row (t, p, s), built on
    ``conditional_raw_loops``; ``full_report`` must reproduce it exactly,
    flags and error strings included."""
    from detsched.coverage import LinkReport, local_delay
    from detsched.dpp import PALM_PIVOT_TOL
    from detsched.errors import DetschedError

    rx = None if s < 0 else p
    if s < 0:
        sel = max(float(K.matrix[t, t]), 0.0)
    else:
        pair = K.matrix[np.ix_((t, s), (t, s))]
        sel = max(float(K.matrix[t, t]) - float(np.linalg.det(pair)), 0.0)
    if sel <= PALM_PIVOT_TOL:
        flag = ("never_scheduled" if float(K.matrix[t, t]) <= PALM_PIVOT_TOL
                else "receiver_always_scheduled")
        return LinkReport(t, rx, sel, None, 0.0, math.inf, flags=(flag,))
    try:
        raw = conditional_raw_loops(geometry, K, params, t, p, s)
    except DetschedError as e:
        return LinkReport(t, rx, sel, None, None, None, error=str(e))
    cond = min(max(raw, 0.0), 1.0)
    flags = ("clamped",) if abs(raw - cond) > 1e-9 else ()
    cov = sel * cond
    return LinkReport(t, rx, sel, cond, cov, local_delay(cov).mean, flags=flags)
