import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import detsched as ds
from detsched import _sampling, dpp
from detsched.dpp import exact_pmf_array

from _oracles import (
    all_subsets,
    exact_pmf_array_elimination,
    exact_pmf_array_loops,
    exact_pmf_array_mask_first,
    fraction_l_pmf,
    laplace_oracle,
    mean_size,
    phase2_loops,
    pmf_from_k,
    pmf_from_k_signed,
    pmf_from_l,
    random_psd_l,
)


def _rand_k(rng, n, high=0.95):
    a = rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    lam = rng.uniform(0.05, high, size=n)
    return ds.MarginalKernel.from_matrix((q * lam) @ q.T)


def test_inclusion_probability_known_value():
    K = ds.MarginalKernel.from_matrix([[0.5, 0.2], [0.2, 0.5]])
    assert ds.inclusion_probability(K, []) == 1.0
    assert ds.inclusion_probability(K, [0]) == pytest.approx(0.5)
    # det [[.5,.2],[.2,.5]] = 0.25 - 0.04
    assert ds.inclusion_probability(K, [0, 1]) == pytest.approx(0.21, abs=1e-15)
    with pytest.raises(ds.BadSubset):
        ds.inclusion_probability(K, [0, 0])
    with pytest.raises(ds.BadSubset):
        ds.inclusion_probability(K, [7])


def test_subset_probability_known_values():
    L = ds.LEnsemble.from_matrix([[2.0, 1.0], [1.0, 2.0]])
    # det(L + I) = 8; minors: {}, {0}, {0,1} give 1, 2, 3
    assert ds.subset_probability(L, []) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert ds.subset_probability(L, [0]) == pytest.approx(0.25, abs=1e-15)
    assert ds.subset_probability(L, [0, 1]) == pytest.approx(0.375, abs=1e-15)


def test_exact_pmf_matches_l_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 3, 5):
        L = ds.LEnsemble.from_matrix(random_psd_l(rng, n))
        pmf = ds.exact_pmf(L)
        oracle = pmf_from_l(L.matrix)
        assert set(pmf) == set(oracle)
        for s in oracle:
            assert pmf[s] == pytest.approx(oracle[s], abs=1e-12)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_exact_pmf_matches_k_oracles():
    rng = np.random.default_rng(12)
    for n in (2, 4):
        K = _rand_k(rng, n)
        pmf = ds.exact_pmf(K)
        moebius = pmf_from_k(K.matrix)
        signed = pmf_from_k_signed(K.matrix)
        for s in moebius:
            assert pmf[s] == pytest.approx(moebius[s], abs=1e-12)
            assert pmf[s] == pytest.approx(signed[s], abs=1e-12)


def test_exact_pmf_handles_eigenvalue_one():
    # projection onto (1,1)/sqrt(2): always schedules exactly one node
    K = ds.MarginalKernel.from_matrix([[0.5, 0.5], [0.5, 0.5]])
    pmf = ds.exact_pmf(K)
    assert pmf[()] == pytest.approx(0.0, abs=1e-12)
    assert pmf[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert pmf[(1,)] == pytest.approx(0.5, abs=1e-12)
    assert pmf[(0, 1)] == pytest.approx(0.0, abs=1e-12)


def test_exact_pmf_array_bitmask_order():
    K = ds.MarginalKernel.from_matrix(np.diag([0.25, 0.75]))
    arr = exact_pmf_array(K)
    np.testing.assert_allclose(
        arr, [0.75 * 0.25, 0.25 * 0.25, 0.75 * 0.75, 0.25 * 0.75], atol=1e-12
    )


def test_exact_pmf_size_cap():
    K = ds.MarginalKernel.from_matrix(np.diag([0.5] * 21))
    with pytest.raises(ds.EnumerationTooLarge):
        ds.exact_pmf(K)
    K4 = ds.MarginalKernel.from_matrix(np.diag([0.5] * 4))
    with pytest.raises(ds.EnumerationTooLarge):
        ds.exact_pmf(K4, max_size=3)


def test_exact_pmf_keys_values_and_order():
    # the dict pinned, order included, against the per-mask comprehension
    # it replaced: sorted node-id tuples in mask order, on increasing ids
    # and on unsorted ones (keys built in id order, then placed by mask)
    rng = np.random.default_rng(45)
    for n in range(1, 9):
        mat = random_psd_l(rng, n)
        picked = rng.permutation(10 * n)[:n].tolist()
        for ids in (None, sorted(picked), picked, [chr(ord("a") + i) for i in range(n)],
                    [chr(ord("a") + i) for i in rng.permutation(n).tolist()]):
            kernel = ds.LEnsemble.from_matrix(mat, node_ids=ids)
            arr = exact_pmf_array(kernel)
            want = {
                tuple(sorted(kernel.node_ids[b] for b in range(n) if (m >> b) & 1)): p
                for m, p in enumerate(arr.tolist())
            }
            got = ds.exact_pmf(kernel)
            assert list(got.items()) == list(want.items())


def _enumeration_kernels(rng, n):
    """One kernel of each kind the enumeration must reproduce exactly."""
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, n))
    low = rng.normal(size=(n, n // 2))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.05, 0.95, size=n)
    lam[0] = 1.0
    bigger = ds.l_to_k(ds.LEnsemble.from_matrix(random_psd_l(rng, n + 1)))
    return {
        "L": L,
        "K": ds.l_to_k(L),
        "rank-deficient L": ds.LEnsemble.from_matrix(low @ low.T),
        "K with eigenvalue one": ds.MarginalKernel.from_matrix((q * lam) @ q.T),
        "diagonal K": ds.MarginalKernel.from_matrix(np.diag(rng.uniform(0.0, 1.0, size=n))),
        "Palm K": ds.palm_reduced(bigger, n),
    }


def test_exact_pmf_array_matches_loop_reference():
    # bit for bit against per-subset scalar elimination in the recursion's
    # operation order; an LU per subset is the independent check
    rng = np.random.default_rng(41)
    for n in range(1, 13):
        for name, kernel in _enumeration_kernels(rng, n).items():
            got = exact_pmf_array(kernel)
            assert np.array_equal(got, exact_pmf_array_elimination(kernel)), (n, name)
            np.testing.assert_allclose(got, exact_pmf_array_loops(kernel), rtol=0, atol=1e-14,
                                       err_msg=f"n={n} {name}")


def test_exact_pmf_array_bit_exact_at_n_13_to_18():
    # n 13-18, beyond the scalar elimination's reach: bit for bit against the
    # same recursion with the subsets on the first axis; a zero row at
    # position 0 or n - 1 kills the pivot at the first or the last level
    rng = np.random.default_rng(47)
    for n in range(13, 19):
        pts = rng.uniform(0.0, math.sqrt(n), size=(n, 2))
        low = rng.normal(size=(n, n // 3))
        ls = [ds.build_L(ds.GaussianSpec(sigma=0.7), pts), ds.LEnsemble.from_matrix(low @ low.T)]
        for zero in (0, n - 1):
            mat = random_psd_l(rng, n)
            mat[zero, :] = mat[:, zero] = 0.0
            ls.append(ds.LEnsemble.from_matrix(mat))
        for i, L in enumerate(ls):
            for kernel in (L, ds.l_to_k(L)):
                got = exact_pmf_array(kernel)
                want = exact_pmf_array_mask_first(kernel)
                assert got.tobytes() == want.tobytes(), (n, i, type(kernel).__name__)


def test_exact_pmf_array_subnormal_l_ensemble():
    # the stacked LU flags a division by zero on this kernel's subnormal
    # blocks; the library keeps that quiet (RuntimeWarnings are errors here)
    # and its probabilities equal the per-subset reference and sum to 1
    n = 6
    mat = np.zeros((n, n))
    mat[1, :] = mat[:, 1] = 1.1e-308
    mat[1, 1] = 0.25
    L = ds.LEnsemble.from_matrix(mat)
    got = exact_pmf_array(L)
    with np.errstate(divide="ignore"):  # the reference runs the same LU per subset
        ref = exact_pmf_array_loops(L)
    assert np.array_equal(got, ref)
    assert math.fsum(got) == pytest.approx(1.0, abs=1e-15)
    assert np.isfinite(got).all()


def test_exact_pmf_array_diagonal_l_ensembles_exact_values():
    # a diagonal L schedules each node independently with probability
    # d / (1 + d); the L route carries one rounding per factor, the K route
    # cancels in the Moebius pass
    n = 14
    rng = np.random.default_rng(44)
    diagonals = {
        "1e9 I": np.full(n, 1e9),
        "1e-9 I": np.full(n, 1e-9),
        "log-uniform 1e-6..1e6": 10.0 ** rng.uniform(-6.0, 6.0, size=n),
    }
    for name, d in diagonals.items():
        exact = [Fraction(1)]
        for x in map(Fraction, d.tolist()):
            exact = [e / (1 + x) for e in exact] + [e * x / (1 + x) for e in exact]
        L = ds.LEnsemble.from_matrix(np.diag(d))
        by_l = exact_pmf_array(L).tolist()
        by_k = exact_pmf_array(ds.l_to_k(L)).tolist()
        rel = max(abs(Fraction(got) - e) / e for got, e in zip(by_l, exact))
        assert rel <= n * np.finfo(float).eps, (name, float(rel))
        err = max(abs(Fraction(got) - e) for got, e in zip(by_k, exact))
        assert err <= 1e-13, (name, float(err))


def _degenerate_l_ensembles(rng, n, zero):
    pts = rng.uniform(0.0, 2.0, size=(n, 2))
    pts[3] = pts[1]
    low = rng.normal(size=(n, 2))
    mat = random_psd_l(rng, n)
    mat[zero, :] = mat[:, zero] = 0.0
    return {
        "coincident nodes": ds.build_L(ds.GaussianSpec(sigma=0.7), pts),
        "rank 2": ds.LEnsemble.from_matrix(low @ low.T),
        "zero row": ds.LEnsemble.from_matrix(mat),
        "1e-9 I": ds.LEnsemble.from_matrix(1e-9 * np.eye(n)),
    }


def test_exact_pmf_array_degenerate_kernels():
    rng = np.random.default_rng(43)
    for n in (8, 12, 16):
        zero = int(rng.integers(n))
        for name, L in _degenerate_l_ensembles(rng, n, zero).items():
            for kernel in (L, ds.l_to_k(L)):
                got = exact_pmf_array(kernel)  # RuntimeWarnings are errors here
                where = (n, name, type(kernel).__name__)
                assert np.isfinite(got).all(), where
                assert abs(math.fsum(got) - 1.0) <= 1e-13, where
                np.testing.assert_allclose(got, exact_pmf_array_loops(kernel), rtol=0, atol=1e-12,
                                           err_msg=str(where))
                if name == "zero row":
                    masks = np.arange(1 << n)
                    assert (got[(masks >> zero) & 1 == 1] == 0.0).all(), where


def test_exact_pmf_array_at_the_cap():
    n = dpp.ENUMERATION_CAP
    rng = np.random.default_rng(46)
    L = ds.build_L(ds.GaussianSpec(sigma=0.7), rng.uniform(0.0, math.sqrt(n), size=(n, 2)))
    by_l = exact_pmf_array(L)
    by_k = exact_pmf_array(ds.l_to_k(L))
    assert abs(math.fsum(by_l) - 1.0) <= 1e-12 and abs(math.fsum(by_k) - 1.0) <= 1e-12
    np.testing.assert_allclose(by_k, by_l, rtol=0, atol=1e-12)
    with pytest.raises(ds.EnumerationTooLarge):
        exact_pmf_array(ds.LEnsemble.from_matrix(np.eye(n + 1)))


@pytest.mark.parametrize("n, scale", [(8, 1e45), (dpp.ENUMERATION_CAP, 1e16)])
def test_overflowing_normalization_raises(n, scale):
    # det(L + I) past the largest double: an error that names the K route,
    # not NaN with a RuntimeWarning (an error here too), from every entry
    # point that divides by it; the K route still gives P(all nodes) = 1
    L = ds.LEnsemble.from_matrix(scale * np.eye(n))
    for call in (exact_pmf_array, ds.exact_pmf, lambda L: ds.subset_probability(L, L.node_ids)):
        with pytest.raises(ds.NormalizationOverflow, match=r"overflows.*K route.*l_to_k"):
            call(L)
    assert exact_pmf_array(ds.l_to_k(L))[-1] == 1.0


def _rational_l(rng, n, kind):
    """A symmetric PSD matrix of small dyadic rationals, exact in floats."""
    if kind == "diagonal":
        return np.diag(rng.integers(0, 9, size=n) / 4.0)
    a = rng.integers(-4, 5, size=(n, n if kind != "rank-deficient" else max(1, n // 2))) / 4.0
    mat = a @ a.T
    if kind == "zero row":
        zero = int(rng.integers(n))
        mat[zero, :] = mat[:, zero] = 0.0
    return mat


def test_exact_pmf_array_against_exact_arithmetic():
    # both routes within 1e-14 of det(L_S) / det(I + L) in Fractions, on
    # dyadic L (exact in floats) with n <= 6: full, rank-deficient, a zero
    # row and diagonal ones
    rng = np.random.default_rng(49)
    kinds = ("full", "rank-deficient", "zero row", "diagonal")
    for i in range(60):
        n, kind = 1 + i % 6, kinds[i % 4]
        L = ds.LEnsemble.from_matrix(_rational_l(rng, n, kind))
        exact = fraction_l_pmf([[Fraction(x) for x in row] for row in L.matrix.tolist()])
        for kernel in (L, ds.l_to_k(L)):
            got = exact_pmf_array(kernel).tolist()
            err = max(abs(Fraction(got[sum(1 << z for z in S)]) - p) for S, p in exact.items())
            assert err <= 1e-14, (i, n, kind, type(kernel).__name__, float(err))


@st.composite
def _psd_l(draw):
    n = draw(st.integers(1, 7))
    a = draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    return a @ a.T


@settings(derandomize=True, deadline=None)
@given(_psd_l())
def test_enumeration_properties(mat):
    n = mat.shape[0]
    L = ds.LEnsemble.from_matrix(mat)
    K = ds.l_to_k(L)
    by_l = exact_pmf_array(L)
    by_k = exact_pmf_array(K)
    oracle = pmf_from_l(L.matrix)
    want = np.empty(1 << n)
    for subset, p in oracle.items():
        want[sum(1 << z for z in subset)] = p
    np.testing.assert_allclose(by_l, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(by_k, by_l, rtol=0, atol=1e-12)
    assert abs(by_l.sum() - 1.0) <= 1e-12 and abs(by_k.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(ds.k_to_l(K).matrix, L.matrix, rtol=0, atol=1e-10)


def test_palm_reduced_determinant_identity():
    # conditioning identity: P(x in S) * P_palm(A subset S) = P({x} + A subset S)
    rng = np.random.default_rng(21)
    K = _rand_k(rng, 4)
    for x in range(4):
        palm = ds.palm_reduced(K, x)
        assert palm.n == 3
        assert x not in palm.node_ids
        assert palm.conditioned_on == ((x, "reduced"),)
        rest = [z for z in range(4) if z != x]
        for sub in all_subsets(3):
            nodes = [rest[t] for t in sub]
            lhs = K.matrix[x, x] * ds.inclusion_probability(palm, nodes)
            rhs = ds.inclusion_probability(K, nodes + [x])
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_palm_reduced_never_scheduled():
    K = ds.MarginalKernel.from_matrix(np.diag([0.0, 0.5]))
    with pytest.raises(ds.NeverScheduled):
        ds.palm_reduced(K, 0)
    ds.palm_reduced(K, 1)  # fine


def test_palm_retained_pins_the_node():
    rng = np.random.default_rng(22)
    K = _rand_k(rng, 3)
    ret = ds.palm_retained(K, 1)
    assert ret.n == 3
    assert ret.node_ids == K.node_ids
    assert ret.matrix[1, 1] == 1.0
    assert ret.matrix[0, 1] == 0.0 and ret.matrix[2, 1] == 0.0
    assert ds.inclusion_probability(ret, [1]) == 1.0
    red = ds.palm_reduced(K, 1)
    np.testing.assert_allclose(
        ret.matrix[np.ix_([0, 2], [0, 2])], red.matrix, atol=1e-15
    )


def test_palm_two_fold_order_invariance():
    rng = np.random.default_rng(23)
    K = _rand_k(rng, 4)
    ab = ds.palm_reduced(ds.palm_reduced(K, 0), 2)
    ba = ds.palm_reduced(ds.palm_reduced(K, 2), 0)
    np.testing.assert_allclose(ab.matrix, ba.matrix, atol=1e-12)
    assert ab.node_ids == ba.node_ids


def test_palm_semi_reduced():
    rng = np.random.default_rng(24)
    K = _rand_k(rng, 3)
    semi = ds.palm_semi_reduced(K, 0, 2)
    assert semi.node_ids == (1, 2)
    assert semi.conditioned_on == ((0, "reduced"), (2, "retained"))
    step = ds.palm_retained(ds.palm_reduced(K, 0), 2)
    np.testing.assert_allclose(semi.matrix, step.matrix, atol=1e-15)
    with pytest.raises(ds.SameNode):
        ds.palm_semi_reduced(K, 1, 1)


def test_palm_retained_is_the_reduced_matrix_padded():
    # on every node of random kernels, plain and already conditioned: the
    # reduced matrix with a zero row and column inserted, 1 at the node
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        K = _rand_k(rng, n)
        K = ds.MarginalKernel.from_matrix(K.matrix, node_ids=[f"v{i}" for i in range(n)])
        kernels = [K] + ([ds.palm_reduced(K, "v0")] if n > 1 else [])
        for kernel in kernels:
            for idx, node in enumerate(kernel.node_ids):
                ret = ds.palm_retained(kernel, node)
                red = ds.palm_reduced(kernel, node).matrix
                want = np.zeros((kernel.n, kernel.n))
                rest = [i for i in range(kernel.n) if i != idx]
                want[np.ix_(rest, rest)] = red
                want[idx, idx] = 1.0
                assert np.array_equal(ret.matrix, want)
                assert ret.node_ids == kernel.node_ids
                assert ret.conditioned_on == (
                    dpp._conditioning_of(kernel) + ((node, "retained"),))


def test_empty_set_minors():
    rng = np.random.default_rng(26)
    for n in range(1, 9):
        K = _rand_k(rng, n)
        assert ds.inclusion_probability(K, []) == 1.0
        L = ds.k_to_l(K)
        assert ds.subset_probability(L, []) == 1.0 / L.normalization
        assert ds.subset_probability(L, []) == pytest.approx(
            1.0 / np.linalg.det(L.matrix + np.eye(n)), rel=1e-12)


def test_scale_kernel_known_values():
    K = np.array([[0.5, 0.2], [0.2, 0.5]])
    out = ds.scale_kernel(K, np.array([0.0, 0.75]))
    np.testing.assert_allclose(out, [[0.5, 0.1], [0.1, 0.125]], atol=1e-15)
    # weight one wipes the node's row and column entirely
    full = ds.scale_kernel(K, np.array([0.0, 1.0]))
    np.testing.assert_allclose(full, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_scale_kernel_inputs():
    K = ds.MarginalKernel.from_matrix([[0.5, 0.2], [0.2, 0.5]])
    by_map = ds.scale_kernel(K, {0: 0.0, 1: 0.75})
    np.testing.assert_allclose(by_map, [[0.5, 0.1], [0.1, 0.125]], atol=1e-15)
    # the message prints a Python float, not numpy >= 2's np.float64(1.5)
    with pytest.raises(ds.BadScaling) as e:
        ds.scale_kernel(K, np.array([0.0, 1.5]))
    assert str(e.value) == "scaling values must lie in [0, 1], found 1.5"
    with pytest.raises(ds.BadScaling):
        ds.scale_kernel(K, np.array([-0.2, 0.5]))
    with pytest.raises(ds.BadScaling) as e:
        ds.scale_kernel(K, [math.nan, 0.5])
    assert str(e.value) == "scaling values must lie in [0, 1], found nan"
    with pytest.raises(ds.BadScaling):
        ds.scale_kernel(K, {0: 0.5})
    with pytest.raises(ds.BadScaling):
        ds.scale_kernel(K, np.array([0.5]))
    # a raw matrix must be square
    with pytest.raises(ds.BadArgument, match="square"):
        ds.scale_kernel(np.zeros((2, 3)), [0.5, 0.5])


def test_clamp01_window():
    # within CLAMP_TOL of [0, 1] a probability is clamped onto it; past
    # that it is left as it is, for the caller to see
    tol = dpp.CLAMP_TOL
    for x, want in [(-tol, 0.0), (math.nextafter(-tol, 0.0), 0.0),
                    (1.0 + tol, 1.0), (math.nextafter(1.0 + tol, 1.0), 1.0),
                    (math.nextafter(-tol, -1.0), None), (math.nextafter(1.0 + tol, 2.0), None),
                    (0.0, None), (0.25, None), (1.0, None)]:
        got = dpp._clamp01(x)
        assert type(got) is float and got == (x if want is None else want)


def test_scaled_determinant_averages_products():
    # det(I - K scaled by h) equals E[product of h over the scheduled set]
    rng = np.random.default_rng(31)
    for n in (1, 3, 5):
        K = _rand_k(rng, n)
        h = rng.uniform(0.0, 1.0, size=n)
        det = float(np.linalg.det(np.eye(n) - ds.scale_kernel(K, h)))
        pmf = pmf_from_k_signed(K.matrix)
        expect = sum(p * float(np.prod(h[list(s)])) for s, p in pmf.items())
        assert det == pytest.approx(expect, abs=1e-10)


def test_laplace_functional_single_node():
    K = ds.MarginalKernel.from_matrix([[0.5]])
    got = ds.laplace_functional(K, np.array([1.0]))
    assert got == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-12)


def test_laplace_functional_matches_enumeration():
    rng = np.random.default_rng(32)
    for n in (2, 4, 6):
        K = _rand_k(rng, n, high=1.0)
        f = rng.uniform(0.0, 3.0, size=n)
        got = ds.laplace_functional(K, f)
        want = laplace_oracle(pmf_from_k_signed(K.matrix), f)
        assert got == pytest.approx(want, abs=1e-10)


def test_laplace_functional_edge_rates():
    K = ds.MarginalKernel.from_matrix([[0.5, 0.1], [0.1, 0.4]])
    # zero rates: expectation of 1
    assert ds.laplace_functional(K, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)
    # infinite rate on node 0 counts schedules avoiding node 0
    got = ds.laplace_functional(K, np.array([np.inf, 0.0]))
    assert got == pytest.approx(1.0 - 0.5, abs=1e-12)
    with pytest.raises(ds.BadFunction):
        ds.laplace_functional(K, np.array([-0.1, 0.0]))
    with pytest.raises(ds.BadFunction):
        ds.laplace_functional(K, np.array([np.nan, 0.0]))


@st.composite
def _laplace_instance(draw):
    n = draw(st.integers(1, 8))
    a = draw(arrays(np.float64, (n, draw(st.integers(1, n))), elements=st.floats(-2.0, 2.0)))
    rates = draw(arrays(np.float64, n, elements=st.floats(0.0, 10.0) | st.just(math.inf)))
    return a @ a.T, rates


@settings(derandomize=True, deadline=None)
@given(_laplace_instance())
def test_laplace_functional_equals_pmf_sum(instance):
    # E exp(-sum of the rates over the scheduled set) as a sum over the
    # exact pmf; an infinite rate makes its subsets' terms 0
    mat, rates = instance
    K = ds.l_to_k(ds.LEnsemble.from_matrix(mat))
    pmf = exact_pmf_array(K)
    masks = np.arange(pmf.size)
    total = sum(np.where((masks >> z) & 1 == 1, r, 0.0) for z, r in enumerate(rates.tolist()))
    want = math.fsum((pmf * np.exp(-total)).tolist())
    assert ds.laplace_functional(K, rates) == pytest.approx(want, abs=1e-12)


def test_sample_from_k_equals_sample_from_l():
    # both kernel types draw from the marginal kernel's eigenpairs, which
    # l_to_k computes as the sampler did from L: the same draws, stream for stream
    rng = np.random.default_rng(3)
    for n in (1, 3, 6, 12):
        L = ds.LEnsemble.from_matrix(random_psd_l(rng, n, scale=2.0))
        K = ds.l_to_k(L)
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert ds.sample(K, a) == ds.sample(L, b)
            assert a.bit_generator.state == b.bit_generator.state


def test_projection_kernel_draws_its_trace():
    # an eigenvalue at 1 has no likelihood form; the projection kernel
    # schedules exactly trace(K) = 2 nodes in every draw
    K = ds.MarginalKernel.from_matrix([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    rng = np.random.default_rng(8)
    draws = [ds.sample(K, rng) for _ in range(2000)]
    assert {len(s) for s in draws} == {2}
    assert set(draws) == {(0, 2), (1, 2)}


def test_sample_is_deterministic_given_stream():
    L = ds.LEnsemble.from_matrix(random_psd_l(np.random.default_rng(5), 4))
    a = [ds.sample(L, np.random.default_rng(99)) for _ in range(10)]
    b = [ds.sample(L, np.random.default_rng(99)) for _ in range(10)]
    assert a == b


def test_sample_distribution_matches_pmf():
    from scipy import stats

    L = ds.LEnsemble.from_matrix(random_psd_l(np.random.default_rng(6), 3, scale=2.0))
    pmf = ds.exact_pmf(L)
    draws = 40000
    rng = np.random.default_rng(1234)
    counts = {s: 0 for s in pmf}
    sizes = np.empty(draws)
    for t in range(draws):
        s = ds.sample(L, rng)
        counts[s] += 1
        sizes[t] = len(s)
    stat = sum(
        (counts[s] - draws * p) ** 2 / (draws * p) for s, p in pmf.items() if p > 0
    )
    dof = sum(1 for p in pmf.values() if p > 0) - 1
    assert stat < stats.chi2.ppf(1.0 - 1e-6, dof)
    # mean scheduled-set size tracks the kernel trace
    trace = float(np.trace(ds.l_to_k(L).matrix))
    se = sizes.std(ddof=1) / math.sqrt(draws)
    assert abs(sizes.mean() - trace) < 5 * se


def test_sample_mask_positions():
    L = ds.LEnsemble.from_matrix(
        random_psd_l(np.random.default_rng(7), 3), node_ids=("x", "y", "z")
    )
    rng = np.random.default_rng(42)
    mask = ds.sample_mask(L, rng)
    assert mask.dtype == bool and mask.shape == (3,)
    ids = ds.sample(L, np.random.default_rng(42))
    assert ids == tuple(sorted(L.node_ids[i] for i in np.flatnonzero(mask)))


class _Uniforms:
    """A stand-in generator whose ``random(size)`` hands out the given
    uniform blocks in order."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random(self, size):
        block = self.blocks.pop(0)
        assert len(block) == size
        return block


def _zero_mass_basis(rng, n):
    """An orthonormal basis whose rows outside a random live set carry mass
    only on eigenvectors m..n-1, and the live count m."""
    m = int(rng.integers(1, n))
    live = rng.permutation(n)[:m]
    vecs = np.zeros((n, n))
    vecs[np.ix_(live, range(m))] = np.linalg.qr(rng.normal(size=(m, m)))[0]
    vecs[np.ix_(np.setdiff1d(np.arange(n), live), range(m, n))] = np.eye(n - m)
    return vecs, m


def test_sampler_selections_match_loop_reference():
    # single-draw and block selections pick exactly the reference's points
    # from the same uniforms, and a draw's picks do not depend on its block;
    # up to n = 40, with zero-mass rows and the edge uniforms 0 and 1 - 2^-53
    rng = np.random.default_rng(2024)
    for case, n in enumerate([*range(1, 13)] * 25 + [16, 20, 24, 28, 32, 36, 40] * 2):
        if case % 3 == 2 and n > 1:
            # no draw keeps eigenvectors m..n-1, so the dead rows carry no mass
            vecs, m = _zero_mass_basis(rng, n)
        else:
            m, vecs = n, np.linalg.qr(rng.normal(size=(n, n)))[0]
        sel = rng.random((6, n)) < rng.uniform(0.2, 0.9)
        sel[:, m:] = False
        u = rng.random((6, n))
        edge = rng.random((6, n))
        u[edge < 0.15] = 0.0
        u[edge > 0.85] = 1.0 - 2.0 ** -53
        block = _sampling.select_block(vecs, sel, u)
        for r in range(6):
            k = int(sel[r].sum())
            ref = np.zeros(n, dtype=bool)
            one = np.zeros(n, dtype=bool)
            if k:
                ref[phase2_loops(vecs[:, sel[r]].copy(), u[r, :k])] = True
                one[_sampling._select(vecs[:, sel[r]], u[r, :k].tolist())] = True
            assert ref.sum() == k
            np.testing.assert_array_equal(one, ref)
            np.testing.assert_array_equal(block[r], ref)
            alone = _sampling.select_block(vecs, sel[r:r + 1], u[r:r + 1])[0]
            np.testing.assert_array_equal(alone, ref)
            # draw_mask keeps the eigenvectors whose coin falls below mu
            stream = _Uniforms(np.where(sel[r], 0.25, 0.75), *([u[r, :k]] if k else []))
            np.testing.assert_array_equal(_sampling.draw_mask(np.full(n, 0.5), vecs, stream), ref)
            assert not stream.blocks


@pytest.mark.parametrize("basis", ["random", "gaussian", "zero mass"])
def test_block_selection_does_not_depend_on_position_or_block_size(basis):
    # one product per step runs across every live draw of a block, so pin
    # that a draw's picks depend only on its own coins and uniforms: each row
    # of blocks of 1 to 1092 draws (50 at n = 100), drawn with repeats from a
    # pool of distinct rows that includes k = 0 and k = n, picks what its
    # one-row block, _select on its kept eigenvectors and phase2_loops pick
    rng = np.random.default_rng([2025, ["random", "gaussian", "zero mass"].index(basis)])
    for n in (4, 10, 30, 100):
        m = n
        if basis == "random":
            vecs = np.linalg.qr(rng.normal(size=(n, n)))[0]
        elif basis == "gaussian":
            pts = rng.uniform(0.0, math.sqrt(n), size=(n, 2))
            vecs = np.linalg.eigh(ds.build_L(ds.GaussianSpec(sigma=0.7), pts).matrix)[1]
        else:
            vecs, m = _zero_mass_basis(rng, n)
        # the phase2_loops reference costs O(n k^3) in Python: keep k small
        # at large n
        pool, low, high = {4: (64, 0.2, 0.9), 10: (64, 0.2, 0.9), 30: (24, 0.05, 0.3),
                           100: (10, 0.02, 0.08)}[n]
        sel = rng.random((pool, n)) < rng.uniform(low, high, (pool, 1))
        sel[:, m:] = False
        sel[0], sel[1] = False, True
        u = rng.random((pool, n))
        edge = rng.random((pool, n))
        u[edge < 0.15] = 0.0
        u[edge > 0.85] = 1.0 - 2.0 ** -53
        want = np.zeros((pool, n), dtype=bool)
        for r in range(pool):
            k = int(sel[r].sum())
            if k == n and n >= 30:
                # all eigenvectors kept: the projection kernel is the
                # identity and every point is picked (phase2_loops would
                # take seconds here; it agrees at n = 4 and 10)
                want[r] = True
            elif k:
                want[r, phase2_loops(vecs[:, sel[r]].copy(), u[r, :k])] = True
            assert want[r].sum() == k
            one = np.zeros(n, dtype=bool)
            one[_sampling._select(vecs[:, sel[r]], u[r, :k].tolist())] = True
            np.testing.assert_array_equal(one, want[r])
            alone = _sampling.select_block(vecs, sel[r:r + 1], u[r:r + 1])[0]
            np.testing.assert_array_equal(alone, want[r])
        for R in (1, 7, 136, 1092) if n < 100 else (1, 7, 50):
            rows = rng.integers(pool, size=R)
            block = _sampling.select_block(vecs, sel[rows], u[rows])
            np.testing.assert_array_equal(block, want[rows])


def test_sampler_never_selects_zero_mass_row():
    # nodes 0, 3 and 5 carry no mass in the projection kernel; the extreme
    # uniforms must still land on the others
    rng = np.random.default_rng(77)
    n = 6
    live = [1, 2, 4]
    for trial in range(20):
        vecs = np.zeros((n, n))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        vecs[np.ix_(live, range(3))] = q
        vecs[np.ix_([0, 3, 5], range(3, 6))] = np.eye(3)
        k = 1 + trial % 3
        for edge in (0.0, 1.0 - 2.0 ** -53):
            u = np.full((1, n), edge)
            sel = np.zeros((1, n), dtype=bool)
            sel[0, :k] = True
            picked = np.flatnonzero(_sampling.select_block(vecs, sel, u)[0])
            single = sorted(_sampling._select(vecs[:, :k], [edge] * k))
            assert len(picked) == k and set(picked) <= set(live)
            assert single == picked.tolist()
