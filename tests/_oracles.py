"""Independent brute-force oracles used to pin expected values.

Everything here is written from first principles on purpose: probabilities
come from explicit sums over all 2^n subsets, determinants from
np.linalg.det or from exact elimination on Fractions, and propagation
factors from the defining formulas, so the library under test shares no
code path with these reference values.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

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


def _pmf_from_minors(kernel, minors):
    """Subset law from principal minors listed by bitmask (bit b is
    position b): over det(L + I) for an L-ensemble; for a marginal kernel,
    Moebius inversion down the superset lattice turns containment minors
    into exact-outcome probabilities.  Negatives within CLAMP_TOL become 0."""
    from detsched.dpp import CLAMP_TOL
    from detsched.kernels import LEnsemble

    size = len(minors)
    masks = np.arange(size)
    out = np.array(minors, dtype=float)
    if isinstance(kernel, LEnsemble):
        out /= kernel.normalization
    else:
        for b in range(kernel.n):
            bit = 1 << b
            without = masks[(masks & bit) == 0]
            out[without] -= out[without | bit]
    tiny = (out < 0.0) & (out >= -CLAMP_TOL)
    out[tiny] = 0.0
    return out


def _check_cap(kernel, max_size):
    from detsched.errors import EnumerationTooLarge

    if kernel.n > max_size:
        raise EnumerationTooLarge(f"ground set of {kernel.n} nodes exceeds cap {max_size}")


def exact_pmf_array_loops(kernel, max_size=20):
    """Independent reference for ``dpp.exact_pmf_array``: one index array
    and one np.linalg.det (an LU) per subset."""
    _check_cap(kernel, max_size)
    n = kernel.n
    mat = kernel.matrix
    minors = [1.0]
    for m in range(1, 1 << n):
        idx = np.flatnonzero([(m >> b) & 1 for b in range(n)])
        minors.append(float(np.linalg.det(mat[np.ix_(idx, idx)])))
    return _pmf_from_minors(kernel, minors)


def exact_pmf_array_elimination(kernel, max_size=20):
    """Reference ``dpp.exact_pmf_array`` must equal bit for bit.

    Per subset, Gaussian elimination without pivoting on Python floats over
    the members in increasing position: at pivot p = c[s][s], each later
    row takes f = c[i][s] / p and then c[i][j] - f * c[s][j].  The minor is
    the running product 1.0 * p * p' * ...; a pivot <= 0 makes it 0.
    """
    _check_cap(kernel, max_size)
    n = kernel.n
    mat = kernel.matrix.tolist()
    minors = []
    for m in range(1 << n):
        members = [b for b in range(n) if (m >> b) & 1]
        c = [[mat[i][j] for j in members] for i in members]
        det = 1.0
        for s in range(len(members)):
            p = c[s][s]
            if p <= 0.0:
                det = 0.0
                break
            det *= p
            for i in range(s + 1, len(members)):
                f = c[i][s] / p
                for j in range(s + 1, len(members)):
                    c[i][j] -= f * c[s][j]
        minors.append(det)
    return _pmf_from_minors(kernel, minors)


def exact_pmf_array_mask_first(kernel, max_size=20):
    """Reference ``dpp.exact_pmf_array`` must equal bit for bit at any n:
    the same Schur-complement recursion with the subsets on the first axis,
    complements (2^b, n - b, n - b), grown level by level by concatenation."""
    _check_cap(kernel, max_size)
    out = np.ones(1)
    comp = kernel.matrix[None]
    for _ in range(kernel.n):
        piv = comp[:, 0, 0]
        live = piv > 0.0
        keep = comp[:, 1:, 1:]
        f = comp[:, 1:, 0] / np.where(live, piv, 1.0)[:, None]
        down = keep - f[:, :, None] * comp[:, None, 0, 1:]
        down[~live] = 0.0
        out = np.concatenate([out, np.where(live, out * piv, 0.0)])
        comp = np.concatenate([keep, down])
    return _pmf_from_minors(kernel, out)


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
    norm exceeds u[t] times the total (so never a zero-mass row, even at
    u[t] = 0), eliminate the chosen row via its largest pivot column, drop
    that column, and re-orthonormalize the rest with modified Gram-Schmidt.
    Written as explicit loops, independently of the library's incremental
    Gram-Schmidt selection.
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
            if acc > target:
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
            # the chosen row is eliminated exactly, not to a rounding residue
            V[x, j] = 0.0
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


def conditional_raw_bordered(geometry, K, params, t, p, s):
    """Reference unclamped conditional coverage of link-table row (t, p, s)
    that the batched closed forms must equal bit for bit, in their order of
    operations, on Python floats.

    Discounts h per node from ``interferer_factor``, 0 at s; roots
    r_j = sqrt(1 - clip(h_j)) and r_t = 1 / sqrt(K_tt); the bordered matrix
    M[i][j] = I_ij - r_i K_ij r_j on all n nodes, with M[t][t] = -1; one
    np.linalg.det; then -(w / f) times it, with f = (1 - K_ss) +
    K_st K_st / K_tt, that is 1 - q, or 1 without a silent node.  The row's
    errors are those of ``conditional_raw_loops``, the scalar Palm chain,
    which runs first.
    """
    from detsched.propagation import _distance, interferer_factor, noise_factor

    conditional_raw_loops(geometry, K, params, t, p, s)
    mat = K.matrix.tolist()
    n = len(mat)
    pts = geometry.transmitter_points()
    y = geometry.receiver_location(p)
    d_sig = _distance(pts[t], y)
    h = [0.0 if z in (t, s) else interferer_factor(_distance(pts[z], y), d_sig, params)
         for z in range(n)]
    root = [math.sqrt(1.0 - min(max(x, 0.0), 1.0)) for x in h]
    root[t] = 1.0 / math.sqrt(mat[t][t])
    M = [[float(i == j) - root[i] * mat[i][j] * root[j] for j in range(n)] for i in range(n)]
    M[t][t] = -1.0
    free = 1.0 if s < 0 else (1.0 - mat[s][s]) + mat[s][t] * mat[s][t] / mat[t][t]
    return -(noise_factor(d_sig, params) / free) * float(np.linalg.det(np.array(M)))


def link_report_loops(geometry, K, params, t, p, s, raw=conditional_raw_bordered):
    """Reference LinkReport of link-table row (t, p, s), built on ``raw``;
    on the default ``conditional_raw_bordered`` ``full_report`` must
    reproduce it exactly, flags and error strings included.  A row whose
    selection probability K_tt (1 - q) is at most PALM_PIVOT_TOL is flagged
    by its smaller factor: never_scheduled when K_tt is at most
    PALM_PIVOT_TOL or 1 - q, receiver_always_scheduled otherwise."""
    from detsched.coverage import LinkReport, local_delay
    from detsched.dpp import PALM_PIVOT_TOL
    from detsched.errors import DetschedError

    rx = None if s < 0 else p
    mat = K.matrix.tolist()
    ktt = mat[t][t]
    # K_tt - det(K on {t, s}) = K_tt (1 - K_ss) + K_st^2
    sel = max(ktt if s < 0 else ktt * (1.0 - mat[s][s]) + mat[s][t] * mat[s][t], 0.0)
    if sel <= PALM_PIVOT_TOL:
        # a pairs row gets here only through K_tt
        never = ktt <= PALM_PIVOT_TOL or ktt <= (1.0 - mat[s][s]) + mat[s][t] * mat[s][t] / ktt
        flag = "never_scheduled" if never else "receiver_always_scheduled"
        return LinkReport(t, rx, sel, None, 0.0, math.inf, flags=(flag,))
    try:
        value = raw(geometry, K, params, t, p, s)
    except DetschedError as e:
        return LinkReport(t, rx, sel, None, None, None, error=str(e))
    cond = min(max(value, 0.0), 1.0)
    flags = ("clamped",) if abs(value - cond) > 1e-9 else ()
    cov = sel * cond
    return LinkReport(t, rx, sel, cond, cov, local_delay(cov).mean, flags=flags)


def bernoulli_estimate(successes, reps):
    """Reference Monte Carlo coverage estimate from one success count, in
    scalar float arithmetic: the rate and the sample standard deviation of
    the 0/1 indicators over sqrt(reps)."""
    from detsched.montecarlo import Estimate

    p = successes / reps
    if reps > 1:
        std = math.sqrt(max(reps * p * (1.0 - p), 0.0) / (reps - 1))
    else:
        std = 0.0
    return Estimate(mean=p, std_error=std / math.sqrt(reps), replications=reps)


def local_delay_loops(arena, seed, reps, cap):
    """Reference ``montecarlo._first_successes``: replication by replication
    and slot by slot, a scheduling draw then an n-by-n fading block from
    substream(seed, r) and one SINR test per slot, with a Python list of the
    links still waiting.  Returns the (reps, links) int64 first-success
    slots, ``cap`` where censored, and each link's censored count."""
    from detsched import _sampling
    from detsched.rng import exponential_fading, substream

    links = len(arena.links)
    rows = []
    censored = [0] * links
    for r in range(reps):
        rng = substream(seed, r)
        row = [cap] * links
        waiting = list(range(links))
        slot = 0
        while waiting and slot < cap:
            slot += 1
            mask = _sampling.draw_mask(arena.mu, arena.vecs, rng)
            fading = exponential_fading(rng, arena.params.fading_mean, (arena.n, arena.n))
            hit = arena.success(mask, fading).tolist()
            still = []
            for t in waiting:
                if hit[t]:
                    row[t] = slot
                else:
                    still.append(t)
            waiting = still
        for t in waiting:
            censored[t] += 1
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(reps, links), np.array(censored)


def fraction_det(m):
    """Determinant of a square matrix of Fractions, exactly: Gaussian
    elimination, pivoting on the first nonzero entry of each column."""
    a = [list(row) for row in m]
    n = len(a)
    det = Fraction(1)
    for j in range(n):
        p = next((i for i in range(j, n) if a[i][j] != 0), None)
        if p is None:
            return Fraction(0)
        if p != j:
            a[j], a[p] = a[p], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, n):
            f = a[i][j] / a[j][j]
            for k in range(j + 1, n):
                a[i][k] -= f * a[j][k]
    return det


def fraction_l_pmf(L):
    """{subset: P(Phi = subset)} of an L-ensemble given as a matrix of
    Fractions, exactly: det(L restricted to the subset) / det(I + L)."""
    n = len(L)
    norm = fraction_det([[L[i][j] + int(i == j) for j in range(n)] for i in range(n)])
    return {S: fraction_det([[L[i][j] for j in S] for i in S]) / norm for S in all_subsets(n)}


def fraction_marginal_kernel(L):
    """K = I - (I + L)^-1 of a matrix L of Fractions, exactly
    (Gauss-Jordan elimination)."""
    n = len(L)
    a = [[Fraction(int(i == j)) + L[i][j] for j in range(n)] + [Fraction(int(i == j))
                                                               for j in range(n)]
         for i in range(n)]
    for j in range(n):
        p = next(i for i in range(j, n) if a[i][j] != 0)
        a[j], a[p] = a[p], a[j]
        a[j] = [x / a[j][j] for x in a[j]]
        for i in range(n):
            if i != j and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return [[Fraction(int(i == j)) - a[i][n + j] for j in range(n)] for i in range(n)]


def fraction_pmf(K):
    """{subset: P(Phi = subset)} of a marginal kernel of Fractions, exactly:
    P(Phi = S) = (-1)^(n - |S|) det(K - I restricted to the nodes outside S)."""
    n = len(K)
    out = {}
    for S in all_subsets(n):
        m = [[K[i][j] - int(i == j and i not in S) for j in range(n)] for i in range(n)]
        out[S] = (-1) ** (n - len(S)) * fraction_det(m)
    return out


def _link_factors(transmitters, receiver, t, s, theta, table, noise, fading_mean):
    """(h, w) of the link from transmitter t to the point ``receiver`` with
    silent node s: per node z other than t and s (None at those) its
    interferer discount h_z = 1 / (1 + theta l_z / l_t), and the noise
    discount w = exp(-theta noise / (fading_mean l_t)), under the path loss
    r^-4 (1 / (dx^2 + dy^2)^2, exact) or the piecewise-linear ``table``
    (radii, values).  A table's distances, its interpolation and the
    discount's exp are decimals of 50 digits, far below the doubles' rounding."""
    def dec(x):
        x = Fraction(x)
        return Decimal(x.numerator) / Decimal(x.denominator)

    def loss(z):
        dx, dy = (Fraction(a) - Fraction(b) for a, b in zip(transmitters[z], receiver))
        if table is None:
            return 1 / (dx * dx + dy * dy) ** 2
        r = dec(dx * dx + dy * dy).sqrt()
        radii, values = ([dec(x) for x in v] for v in table)
        k = next(k for k in range(1, len(radii)) if r <= radii[k])
        return Fraction(values[k - 1] + (values[k] - values[k - 1]) * (r - radii[k - 1])
                        / (radii[k] - radii[k - 1]))

    with localcontext() as ctx:
        ctx.prec = 50
        lt = loss(t)
        h = [1 / (1 + theta * loss(z) / lt) if z not in (t, s) else None
             for z in range(len(transmitters))]
        w = Fraction((-dec(theta * Fraction(noise) / (Fraction(fading_mean) * lt))).exp())
    return h, w


def fraction_link(pmf, transmitters, receiver, t, s, theta, table=None, noise=0,
                  fading_mean=1):
    """Exact (selection probability, conditional coverage) of the link from
    transmitter t to the point ``receiver`` with silent node s (-1 for
    none), from an exact pmf and rational coordinates, under fading of mean
    ``fading_mean`` and the path loss of ``_link_factors``: the sums over
    the subsets S with t in S and s not in S of P(Phi = S), and of
    P(Phi = S) times the product over j in S, j != t, of h_j, that one
    times the noise discount w."""
    h, w = _link_factors(transmitters, receiver, t, s, theta, table, noise, fading_mean)
    sel = joint = Fraction(0)
    for S, p in pmf.items():
        if t not in S or s in S:
            continue
        prod = Fraction(1)
        for z in S:
            if z != t:
                prod *= h[z]
        sel += p
        joint += p * prod
    return sel, w * joint / sel


def fraction_link_det(K, transmitters, receiver, t, s, theta, table=None, noise=0,
                      fading_mean=1):
    """``fraction_link`` from an exact marginal kernel K (a matrix of
    Fractions) in polynomial time, four determinants per link: for per-node
    factors f, E[prod over j in Phi of f_j] = det(I - K diag(1 - f)).  With
    f_s = 0, that at f_t = 1 less that at f_t = 0 is E[1{t in Phi}
    1{s not in Phi} prod over j in Phi, j != t, of f_j]: the joint sum with
    every other f_j = h_j, the selection probability with every other f_j = 1."""
    h, w = _link_factors(transmitters, receiver, t, s, theta, table, noise, fading_mean)
    n = len(K)

    def marked(f):
        dets = []
        for ft in (1, 0):
            g = [0 if z == s else ft if z == t else f[z] for z in range(n)]
            dets.append(fraction_det([[int(i == j) - K[i][j] * (1 - g[j]) for j in range(n)]
                                      for i in range(n)]))
        return dets[0] - dets[1]

    sel = marked([1] * n)
    return sel, w * marked(h) / sel
