import numpy as np
import pytest

import detsched as ds
from detsched.kernels import EIGENVALUE_TOL, SYMMETRY_TOL

from _oracles import random_marginal_k, random_psd_l


def test_marginal_from_matrix_basic():
    K = ds.MarginalKernel.from_matrix([[0.5, 0.2], [0.2, 0.5]])
    assert K.n == 2
    assert K.node_ids == (0, 1)
    assert not K.matrix.flags.writeable
    np.testing.assert_allclose(K.matrix, [[0.5, 0.2], [0.2, 0.5]])


def test_marginal_custom_node_ids():
    K = ds.MarginalKernel.from_matrix([[0.5, 0.0], [0.0, 0.3]], node_ids=("a", "b"))
    assert K.node_ids == ("a", "b")
    assert K.index("b") == 1
    with pytest.raises(ds.BadSubset):
        K.index("c")
    with pytest.raises(ds.BadSubset):
        K.indices(["a", "a"])


def test_marginal_rejects_bad_shapes():
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix([[0.5, 0.2]])
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix(np.zeros((0, 0)))
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix([[np.nan]])
    with pytest.raises(ds.BadArgument):
        ds.MarginalKernel.from_matrix([[0.5]], node_ids=(0, 1))
    with pytest.raises(ds.BadArgument, match="unique"):
        ds.MarginalKernel.from_matrix([[0.5, 0.0], [0.0, 0.5]], node_ids=(3, 3))


def test_marginal_rejects_asymmetry_beyond_tolerance():
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix([[0.5, 0.3], [0.1, 0.5]])
    # tiny asymmetry is averaged away
    K = ds.MarginalKernel.from_matrix([[0.5, 0.2 + 1e-12], [0.2, 0.5]])
    assert K.matrix[0, 1] == K.matrix[1, 0]


def test_marginal_eigenvalue_window():
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix([[1.5]])
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix([[-0.1]])
    # eigenvalues 1.1 and -0.1: both sides out of range
    with pytest.raises(ds.KernelInvalid):
        ds.MarginalKernel.from_matrix([[0.5, 0.6], [0.6, 0.5]])


def test_marginal_clips_within_tolerance():
    eps = 0.5 * EIGENVALUE_TOL
    K = ds.MarginalKernel.from_matrix([[1.0 + eps]])
    vals, _ = K.eigh
    assert 0.0 <= vals[0] <= 1.0
    assert K.matrix[0, 0] <= 1.0
    K2 = ds.MarginalKernel.from_matrix([[-eps]])
    assert K2.matrix[0, 0] >= 0.0


def test_l_ensemble_requires_psd():
    with pytest.raises(ds.KernelInvalid):
        ds.LEnsemble.from_matrix([[0.5, 0.6], [0.6, 0.5]])  # eigenvalue -0.1
    L = ds.LEnsemble.from_matrix([[2.0, 1.0], [1.0, 2.0]])
    assert L.normalization == pytest.approx(8.0, abs=1e-12)  # det(L + I)


def test_l_to_k_known_values():
    L = ds.LEnsemble.from_matrix([[2.0, 1.0], [1.0, 2.0]])
    K = ds.l_to_k(L)
    np.testing.assert_allclose(K.matrix, [[0.625, 0.125], [0.125, 0.625]], atol=1e-12)
    vals, _ = K.eigh
    np.testing.assert_allclose(sorted(vals), [0.5, 0.75], atol=1e-12)
    assert K.node_ids == L.node_ids


def test_k_l_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        L = ds.LEnsemble.from_matrix(random_psd_l(rng, n))
        K = ds.l_to_k(L)
        back = ds.k_to_l(K)
        np.testing.assert_allclose(back.matrix, L.matrix, atol=1e-10)


def test_k_to_l_refuses_eigenvalue_one():
    K = ds.MarginalKernel.from_matrix([[1.0]])
    with pytest.raises(ds.NotLRepresentable):
        ds.k_to_l(K)
    # within tolerance of 1 counts as 1
    K2 = ds.MarginalKernel.from_matrix([[1.0 - 1e-10]])
    with pytest.raises(ds.NotLRepresentable):
        ds.k_to_l(K2)


def test_validate_reports_problems_without_raising():
    r = ds.validate(np.array([[0.5, 0.6], [0.6, 0.5]]))
    assert not r.valid
    assert r.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
    assert r.max_eigenvalue == pytest.approx(1.1, abs=1e-12)
    assert any("below 0" in p for p in r.problems)
    assert any("above 1" in p for p in r.problems)

    ok = ds.validate(np.array([[0.5, 0.2], [0.2, 0.5]]))
    assert ok.valid and ok.problems == ()
    assert ok.min_diagonal == 0.5 and ok.max_diagonal == 0.5

    asym = ds.validate(np.array([[0.5, 0.3], [0.1, 0.5]]))
    assert not asym.valid
    assert asym.symmetry_defect == pytest.approx(0.2)

    nonfinite = ds.validate(np.array([[np.inf]]))
    assert not nonfinite.valid

    with pytest.raises(ds.BadArgument):
        ds.validate(np.zeros((2, 3)))


def test_validate_accepts_kernel_objects():
    K = ds.MarginalKernel.from_matrix([[0.5]])
    assert ds.validate(K).valid


def test_gaussian_spec_builds_distance_kernel():
    pts = np.array([[0.0, 0.0], [0.3, 0.4]])  # distance 0.5
    L = ds.build_L(ds.GaussianSpec(sigma=1.0, scale=2.0), pts)
    assert L.matrix[0, 0] == pytest.approx(2.0)
    assert L.matrix[0, 1] == pytest.approx(2.0 * np.exp(-0.25), abs=1e-12)
    K = ds.build_K(ds.GaussianSpec(sigma=1.0), pts)
    assert ds.validate(K.matrix).valid


def test_gaussian_spec_validation():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ds.BadSpec):
        ds.build_L(ds.GaussianSpec(sigma=0.0), pts)
    with pytest.raises(ds.BadSpec):
        ds.build_L(ds.GaussianSpec(sigma=1.0, scale=-1.0), pts)
    # the spec checks its bounds itself: an infinite sigma would build an
    # all-ones L
    for bad in (dict(sigma=np.inf), dict(sigma=1.0, scale=np.nan), dict(sigma=True)):
        with pytest.raises(ds.BadSpec):
            ds.GaussianSpec(**bad)
    with pytest.raises(ds.BadArgument):
        ds.build_L(ds.GaussianSpec(sigma=1.0), None)


def test_gaussian_spec_keeps_its_limits_past_the_doubles():
    # sigma^2 past the doubles (a traceback before) gives an all-scale L;
    # sigma^2 of 0 (NaN at distance 0 before) gives scale on the diagonal,
    # 1 at coincident nodes
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    L = ds.build_L(ds.GaussianSpec(sigma=1e300, scale=0.5), pts)
    assert (L.matrix == 0.5).all()
    L = ds.build_L(ds.GaussianSpec(sigma=1e-300, scale=0.5), pts)
    assert L.matrix.tolist() == [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.5]]


def test_kernels_past_the_doubles_are_invalid():
    # entries whose sums or spectra overflow: eigh returned NaN, which passed
    # the eigenvalue window as a valid marginal kernel, or failed to converge
    for cls in (ds.MarginalKernel, ds.LEnsemble):
        for m in ([[0.0, 0.0], [0.0, 1.7e308]], [[1.7e308, 1.7e308], [1.7e308, 1.7e308]],
                  [[3.0, 1e-300, 1.7e308], [1e-300, 0.5, 1e-13], [1.7e308, 1e-13, 1e300]],
                  [[0.0, 0.0, 1.7e308], [0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]]):
            with pytest.raises(ds.KernelInvalid, match="past the largest double"):
                cls.from_matrix(m)
    with pytest.raises(ds.KernelInvalid, match="non-finite"):
        ds.build_L(ds.QualitySimilaritySpec(np.array([1e300, 1.0]), np.eye(2)))
    report = ds.validate([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
    assert not report.valid and "eigenvalues past the largest double" in report.problems
    # eigvalsh fails to converge here: a report, with NaN eigenvalue bounds
    report = ds.validate([[0.0, 0.0, 1.7e308], [0.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]])
    assert not report.valid and "eigenvalues past the largest double" in report.problems
    assert np.isnan(report.min_eigenvalue) and np.isnan(report.max_eigenvalue)


def test_quality_similarity_spec():
    spec = ds.QualitySimilaritySpec(
        quality=np.array([1.0, 2.0]),
        similarity=np.array([[1.0, 0.5], [0.5, 1.0]]),
    )
    L = ds.build_L(spec)
    np.testing.assert_allclose(L.matrix, [[1.0, 1.0], [1.0, 4.0]], atol=1e-12)
    with pytest.raises(ds.BadSpec):
        ds.build_L(ds.QualitySimilaritySpec(np.array([0.0, 1.0]), np.eye(2)))
    with pytest.raises(ds.BadSpec):
        ds.build_L(ds.QualitySimilaritySpec(np.array([1.0]), np.eye(2)))


def test_aloha_spec():
    spec = ds.AlohaSpec(probabilities=np.array([0.25, 0.5]))
    K = ds.build_K(spec)
    np.testing.assert_allclose(K.matrix, np.diag([0.25, 0.5]))
    L = ds.build_L(spec)
    np.testing.assert_allclose(L.matrix, np.diag([1.0 / 3.0, 1.0]), atol=1e-12)
    for build in (ds.build_K, ds.build_L):
        with pytest.raises(ds.BadSpec, match=r"access probabilities must lie in \[0, 1\]"):
            build(ds.AlohaSpec(np.array([1.5])))
    # probability one is a valid marginal but has no likelihood form
    assert ds.build_K(ds.AlohaSpec(np.array([1.0]))).matrix[0, 0] == 1.0
    with pytest.raises(ds.NotLRepresentable):
        ds.build_L(ds.AlohaSpec(np.array([1.0])))


def test_explicit_specs():
    K = ds.build_K(ds.ExplicitMarginalSpec(np.array([[0.5]])))
    assert K.matrix[0, 0] == 0.5
    L = ds.build_L(ds.ExplicitLSpec(np.array([[3.0]])))
    assert L.matrix[0, 0] == 3.0
    # marginal spec routed through the likelihood side
    L2 = ds.build_L(ds.ExplicitMarginalSpec(np.array([[0.5]])))
    assert L2.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
    K2 = ds.build_K(ds.ExplicitLSpec(np.array([[3.0]])))
    assert K2.matrix[0, 0] == pytest.approx(0.75, abs=1e-12)
    # a spec of no known type
    for build in (ds.build_K, ds.build_L):
        with pytest.raises(ds.BadSpec, match="unknown kernel spec type dict"):
            build({"matrix": [[0.5]]})


def test_build_accepts_network_geometry():
    geo = ds.NetworkGeometry.pairs([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]])
    K = ds.build_K(ds.GaussianSpec(sigma=2.0), geo)
    assert K.n == 2
    # plain coordinates must be an (n, dim) array
    with pytest.raises(ds.BadArgument, match="coordinate array"):
        ds.build_K(ds.GaussianSpec(sigma=2.0), np.array([0.0, 1.0]))


def test_constructors_return_exactly_symmetric_matrices():
    # the closed forms' batched Palm downdate skips palm_reduced's
    # symmetrize pass, which is bit-exact only on exactly symmetric input
    rng = np.random.default_rng(41)
    n = 6
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    skew = 1e-11 * rng.normal(size=(n, n))  # inside SYMMETRY_TOL
    plain = (q * rng.uniform(0.1, 0.9, size=n)) @ q.T + skew
    edge = (q * np.array([-5e-10, 0.2, 0.4, 0.6, 0.8, 1.0 + 5e-10])) @ q.T + skew
    vals = np.linalg.eigvalsh((edge + edge.T) / 2.0)
    assert vals[0] < 0.0 and vals[-1] > 1.0  # from_matrix re-projects it
    L = ds.LEnsemble.from_matrix(random_psd_l(rng, n))
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    specs = [ds.GaussianSpec(sigma=0.7, scale=2.0),
             ds.QualitySimilaritySpec(rng.uniform(0.5, 2.0, size=n), random_psd_l(rng, n)),
             ds.ExplicitMarginalSpec(plain),
             ds.ExplicitLSpec(random_psd_l(rng, n)),
             ds.AlohaSpec(rng.uniform(0.0, 0.9, size=n))]
    kernels = [ds.MarginalKernel.from_matrix(plain), ds.MarginalKernel.from_matrix(edge),
               ds.l_to_k(L), ds.k_to_l(ds.MarginalKernel.from_matrix(plain))]
    kernels += [ds.build_K(spec, pts) for spec in specs]
    kernels += [ds.palm_reduced(K, x) for K in kernels[:3] for x in K.node_ids]
    for kernel in kernels:
        assert np.array_equal(kernel.matrix, kernel.matrix.T)
        # K and L carry their eigenpairs from construction; none computes them later
        assert "eigh" in vars(kernel) or isinstance(kernel, ds.PalmKernel)
    assert not hasattr(ds.MarginalKernel, "eigh") and not hasattr(ds.LEnsemble, "eigh")


def _spectral(kernel):
    vals, vecs = kernel.eigh
    m = (vecs * vals) @ vecs.T
    return (m + m.T) / 2.0


def _zero_row_cases(rng, make, count=200):
    """``count`` matrices from ``make(n)``, n 4-16, each with and without an
    exactly zero row and column at a random node."""
    for _ in range(count):
        n = int(rng.integers(4, 17))
        mat, z = make(n), int(rng.integers(n))
        dead = mat.copy()
        dead[z, :] = dead[:, z] = 0.0
        yield mat, dead, z


def _assert_zero_node(matrix, z):
    assert not matrix[z, :].any() and not matrix[:, z].any()


def test_l_to_k_keeps_zero_rows_zero():
    # a node with a zero row in L is never scheduled; rounding in the
    # spectral product left entries of order 1e-17 in its row of K
    rng = np.random.default_rng(51)
    for mat, dead, z in _zero_row_cases(rng, lambda n: random_psd_l(rng, n)):
        K = ds.l_to_k(ds.LEnsemble.from_matrix(mat))
        assert np.array_equal(K.matrix, _spectral(K))  # no zero row: unchanged
        _assert_zero_node(ds.l_to_k(ds.LEnsemble.from_matrix(dead)).matrix, z)


def test_k_to_l_keeps_zero_rows_zero():
    rng = np.random.default_rng(52)
    for mat, dead, z in _zero_row_cases(rng, lambda n: random_marginal_k(rng, n, high=0.9)):
        L = ds.k_to_l(ds.MarginalKernel.from_matrix(mat))
        assert np.array_equal(L.matrix, _spectral(L))
        _assert_zero_node(ds.k_to_l(ds.MarginalKernel.from_matrix(dead)).matrix, z)


def test_marginal_reprojection_keeps_zero_rows_zero():
    # eigh may return a zero row's eigenvalue as -1e-18, and from_matrix then
    # projects the spectrum back into [0, 1]; the zero row must survive that
    rng = np.random.default_rng(53)
    reprojected = 0
    for mat, dead, z in _zero_row_cases(rng, lambda n: random_marginal_k(rng, n)):
        lo = np.linalg.eigvalsh(dead)[0]
        reprojected += lo < 0.0
        _assert_zero_node(ds.MarginalKernel.from_matrix(dead).matrix, z)
    assert reprojected >= 20
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    edge = (q * np.array([-5e-10, 0.2, 0.4, 0.6, 0.8, 1.0 + 5e-10])) @ q.T
    K = ds.MarginalKernel.from_matrix(edge)
    assert np.array_equal(K.matrix, _spectral(K))  # no zero row: the plain projection
