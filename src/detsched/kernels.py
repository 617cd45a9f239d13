"""Kernel types for determinantal scheduling.

Two equivalent descriptions of the same scheduling law are supported.  The
marginal kernel gives containment probabilities directly: the chance that a
given node set is jointly scheduled is the determinant of the corresponding
submatrix.  The likelihood kernel (an L-ensemble) gives the probability of
each exact outcome up to a normalizing constant.  Both are symmetric
matrices indexed by node id; the marginal form needs eigenvalues in [0, 1],
the likelihood form needs them >= 0, so none at 1 in the marginal form.

Conversions between the two reuse one eigendecomposition: the matrices
share eigenvectors and the eigenvalues map through x -> x / (1 + x).
Sampling reads the marginal kernel's eigenpairs from either (``_spectrum``).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadArgument,
    BadSpec,
    BadSubset,
    KernelInvalid,
    NormalizationOverflow,
    NotLRepresentable,
)
from .propagation import _bounded, _check_bounds

SYMMETRY_TOL = 1e-9
EIGENVALUE_TOL = 1e-9

NodeId = int


def _as_square(matrix, what: str) -> np.ndarray:
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise KernelInvalid(f"{what} must be a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise KernelInvalid(f"{what} must have at least one node")
    if not np.all(np.isfinite(a)):
        raise KernelInvalid(f"{what} contains non-finite entries")
    return a


def _symmetric_eigh(a: np.ndarray, what: str) -> tuple:
    """(a symmetrized, its eigenvalues, its eigenvectors).  An asymmetric
    ``a`` raises KernelInvalid, and so does one whose entries or spectrum
    leave the doubles, where eigh gives NaN or fails."""
    # a difference or sum past the doubles is inf, and fails below
    with np.errstate(over="ignore"):
        defect = float(np.max(np.abs(a - a.T)))
        a = (a + a.T) / 2.0
    if defect > SYMMETRY_TOL:
        raise KernelInvalid(
            f"{what} is asymmetric (defect {defect:.3g} exceeds {SYMMETRY_TOL:g})"
        )
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        vals = vecs = np.array([np.nan])
    if not np.isfinite(vals).all():
        raise KernelInvalid(f"{what} has entries or eigenvalues past the largest double")
    return a, vals, vecs


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _from_spectrum(vals: np.ndarray, vecs: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Symmetric matrix with eigenvalues ``vals`` on eigenvectors ``vecs``.

    A node whose row and column are exactly zero in ``like`` stays exactly
    zero: rounding in the product would otherwise leave entries of order
    1e-17 there and schedule a never-scheduled node.
    """
    m = (vecs * vals) @ vecs.T
    m = (m + m.T) / 2.0
    dead = ~(like.any(axis=0) | like.any(axis=1))
    m[dead] = 0.0
    m[:, dead] = 0.0
    return m


def _resolve_ids(node_ids, n: int) -> tuple:
    if node_ids is None:
        return tuple(range(n))
    ids = tuple(node_ids)
    if len(ids) != n:
        raise BadArgument(f"expected {n} node ids, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise BadArgument("node ids must be unique")
    return ids


class _NodeIndexed:
    """Ground-set bookkeeping shared by the kernel types: rows and columns
    of ``matrix`` follow ``node_ids``."""

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def index(self, node: NodeId) -> int:
        try:
            return self.node_ids.index(node)
        except ValueError:
            raise BadSubset(f"unknown node id {node!r}") from None

    def indices(self, nodes) -> np.ndarray:
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise BadSubset("duplicate node ids in subset")
        return np.array([self.index(x) for x in nodes], dtype=np.intp)

    @classmethod
    def _from_eigh(cls, matrix, node_ids, vals, vecs):
        """Kernel on ``matrix`` with its eigendecomposition already known."""
        obj = cls(_frozen(matrix), node_ids)
        obj.__dict__["eigh"] = (_frozen(vals), _frozen(vecs))
        return obj


@dataclass(frozen=True)
class MarginalKernel(_NodeIndexed):
    """Symmetric matrix with spectrum in [0, 1], indexed by node id.

    Entry (i, i) is the probability node i is scheduled; the determinant of
    the submatrix on a node set is the probability all of them are.
    Construct through :meth:`from_matrix`, which validates and symmetrizes.
    """

    matrix: np.ndarray
    node_ids: tuple = field(default=None)

    @classmethod
    def from_matrix(cls, matrix, node_ids: Optional[Sequence[NodeId]] = None):
        a, vals, vecs = _symmetric_eigh(_as_square(matrix, "marginal kernel"), "marginal kernel")
        lo, hi = float(vals[0]), float(vals[-1])
        if lo < -EIGENVALUE_TOL or hi > 1.0 + EIGENVALUE_TOL:
            raise KernelInvalid(
                "marginal kernel eigenvalues must lie in [0, 1]; "
                f"found range [{lo:.6g}, {hi:.6g}]"
            )
        clipped = np.clip(vals, 0.0, 1.0)
        if lo < 0.0 or hi > 1.0:
            # inside tolerance but outside the unit interval: project back
            a = _from_spectrum(clipped, vecs, a)
        return cls._from_eigh(a, _resolve_ids(node_ids, a.shape[0]), clipped, vecs)

    @cached_property
    def eigh(self):
        vals, vecs = np.linalg.eigh(self.matrix)
        return _frozen(vals), _frozen(vecs)


@dataclass(frozen=True)
class LEnsemble(_NodeIndexed):
    """Positive semidefinite likelihood kernel, indexed by node id.

    The probability of scheduling exactly the node set A is proportional to
    the determinant of the submatrix on A; the constant is det(L + I).
    """

    matrix: np.ndarray
    node_ids: tuple = field(default=None)

    @classmethod
    def from_matrix(cls, matrix, node_ids: Optional[Sequence[NodeId]] = None):
        a, vals, vecs = _symmetric_eigh(_as_square(matrix, "likelihood kernel"),
                                        "likelihood kernel")
        lo = float(vals[0])
        if lo < -EIGENVALUE_TOL:
            raise KernelInvalid(
                f"likelihood kernel must be positive semidefinite; "
                f"smallest eigenvalue {lo:.6g}"
            )
        return cls._from_eigh(a, _resolve_ids(node_ids, a.shape[0]), np.clip(vals, 0.0, None), vecs)

    @cached_property
    def eigh(self):
        vals, vecs = np.linalg.eigh(self.matrix)
        return _frozen(np.clip(vals, 0.0, None)), _frozen(vecs)

    @cached_property
    def normalization(self) -> float:
        """det(L + I), computed from the eigenvalues; NormalizationOverflow
        where it exceeds the largest double."""
        vals, _ = self.eigh
        # every factor is at least 1: the product is finite or inf, and inf raises below
        with np.errstate(over="ignore"):
            det = float(np.prod(1.0 + vals))
        if det == np.inf:
            raise NormalizationOverflow(
                f"det(L + I) overflows a double ({self.n} nodes, largest eigenvalue "
                f"{float(vals[-1]):.6g}); take probabilities by the K route, from "
                "the marginal kernel l_to_k(L)")
        return det


def _spectrum(kernel) -> tuple:
    """(mu, V): the marginal kernel's eigenpairs, from K or from L."""
    vals, vecs = kernel.eigh
    return (vals / (1.0 + vals), vecs) if isinstance(kernel, LEnsemble) else (vals, vecs)


def l_to_k(L: LEnsemble) -> MarginalKernel:
    """Marginal kernel of the scheduling law described by ``L``.

    Shares eigenvectors with L; eigenvalues map through x -> x / (1 + x).
    """
    kvals, vecs = _spectrum(L)
    m = _from_spectrum(kvals, vecs, L.matrix)
    return MarginalKernel._from_eigh(m, L.node_ids, kvals, vecs)


def k_to_l(K: MarginalKernel) -> LEnsemble:
    """Likelihood kernel of the scheduling law described by ``K``.

    Defined only when every eigenvalue of K is strictly below 1; an
    eigenvalue within 1e-9 of 1 raises NotLRepresentable.
    """
    vals, vecs = K.eigh
    hi = float(vals[-1])
    if hi > 1.0 - EIGENVALUE_TOL:
        raise NotLRepresentable(
            f"marginal kernel has eigenvalue {hi:.12g}, within {EIGENVALUE_TOL:g} of 1"
        )
    lvals = np.clip(vals / (1.0 - vals), 0.0, None)
    m = _from_spectrum(lvals, vecs, K.matrix)
    return LEnsemble._from_eigh(m, K.node_ids, lvals, vecs)


@dataclass(frozen=True)
class ValidationReport:
    symmetry_defect: float
    min_eigenvalue: float
    max_eigenvalue: float
    min_diagonal: float
    max_diagonal: float
    valid: bool
    problems: tuple


def validate(matrix) -> ValidationReport:
    """Check a candidate marginal kernel and report what is wrong.

    Never raises for structural defects; returns a report instead.  The
    eigenvalue range is computed on the symmetrized matrix.
    """
    if isinstance(matrix, (MarginalKernel, LEnsemble)):
        matrix = matrix.matrix
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise BadArgument(f"expected a nonempty square matrix, got shape {a.shape}")
    problems = []
    if not np.all(np.isfinite(a)):
        problems.append("matrix contains non-finite entries")
        a = np.nan_to_num(a, nan=0.0, posinf=0.0, neginf=0.0)
    # a difference or sum past the doubles is inf
    with np.errstate(over="ignore"):
        defect = float(np.max(np.abs(a - a.T)))
        sym = (a + a.T) / 2.0
    if defect > SYMMETRY_TOL:
        problems.append(f"asymmetric: defect {defect:.6g} exceeds {SYMMETRY_TOL:g}")
    vals = np.linalg.eigvalsh(sym)
    lo, hi = float(vals[0]), float(vals[-1])
    if not np.isfinite(vals).all():
        problems.append("eigenvalues past the largest double")
    if lo < -EIGENVALUE_TOL:
        problems.append(f"eigenvalue {lo:.6g} below 0")
    if hi > 1.0 + EIGENVALUE_TOL:
        problems.append(f"eigenvalue {hi:.6g} above 1")
    diag = np.diag(a)
    return ValidationReport(
        symmetry_defect=defect,
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        min_diagonal=float(diag.min()),
        max_diagonal=float(diag.max()),
        valid=not problems,
        problems=tuple(problems),
    )


# ---------------------------------------------------------------------------
# Kernel specifications: small declarative recipes for building kernels.


@dataclass(frozen=True)
class GaussianSpec:
    """Likelihood kernel scale * exp(-d^2 / sigma^2) over node coordinates."""

    sigma: float = _bounded(0.0, strict=True)
    scale: float = _bounded(0.0, strict=True, default=1.0)

    def __post_init__(self):
        _check_bounds(self, BadSpec)


@dataclass(frozen=True)
class QualitySimilaritySpec:
    """Likelihood kernel q_i * S_ij * q_j from per-node quality and a
    positive semidefinite similarity matrix."""

    quality: np.ndarray
    similarity: np.ndarray


@dataclass(frozen=True)
class ExplicitMarginalSpec:
    matrix: np.ndarray


@dataclass(frozen=True)
class ExplicitLSpec:
    matrix: np.ndarray


@dataclass(frozen=True)
class AlohaSpec:
    """Independent scheduling with per-node probabilities (diagonal kernel)."""

    probabilities: np.ndarray


KernelSpec = Union[
    GaussianSpec, QualitySimilaritySpec, ExplicitMarginalSpec, ExplicitLSpec, AlohaSpec
]


def _transmitter_points(geometry) -> np.ndarray:
    if geometry is None:
        raise BadArgument("this kernel spec needs node coordinates")
    if hasattr(geometry, "transmitter_points"):
        return geometry.transmitter_points()
    pts = np.asarray(geometry, dtype=float)
    if pts.ndim != 2:
        raise BadArgument(f"expected an (n, dim) coordinate array, got shape {pts.shape}")
    return pts


def build_L(spec: KernelSpec, geometry=None) -> LEnsemble:
    """Materialize the likelihood kernel described by ``spec``.

    Geometry-based specs need ``geometry`` (a NetworkGeometry, or a plain
    (n, dim) coordinate array).  A marginal spec with an eigenvalue at 1
    has no likelihood form and raises NotLRepresentable.
    """
    if isinstance(spec, GaussianSpec):
        pts = _transmitter_points(geometry)
        try:
            width = spec.sigma**2
        except OverflowError:  # a width past the doubles
            width = math.inf
        # a square past the doubles, or a ratio past them or over a width of
        # 0, is inf, where the kernel is exp(-inf) = 0; it is 1 at distance 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            g = np.exp(-d2 / width)
        g[d2 == 0] = 1.0
        return LEnsemble.from_matrix(spec.scale * g)
    if isinstance(spec, QualitySimilaritySpec):
        q = np.asarray(spec.quality, dtype=float)
        s = np.asarray(spec.similarity, dtype=float)
        if q.ndim != 1 or s.shape != (q.size, q.size):
            raise BadSpec(
                f"quality shape {q.shape} does not match similarity shape {s.shape}"
            )
        if not np.all(q > 0):
            raise BadSpec("quality values must be strictly positive")
        # an entry past the doubles is inf, which from_matrix rejects
        with np.errstate(over="ignore", invalid="ignore"):
            m = q[:, None] * s * q[None, :]
        return LEnsemble.from_matrix(m)
    if isinstance(spec, ExplicitLSpec):
        return LEnsemble.from_matrix(spec.matrix)
    if isinstance(spec, ExplicitMarginalSpec):
        return k_to_l(MarginalKernel.from_matrix(spec.matrix))
    if isinstance(spec, AlohaSpec):
        p = np.asarray(spec.probabilities, dtype=float)
        if p.ndim != 1 or not np.all((p >= 0) & (p <= 1)):
            raise BadSpec("access probabilities must lie in [0, 1]")
        if np.any(p > 1.0 - EIGENVALUE_TOL):
            raise NotLRepresentable("access probability at 1 has no likelihood form")
        return LEnsemble.from_matrix(np.diag(p / (1.0 - p)))
    raise BadSpec(f"unknown kernel spec type {type(spec).__name__}")


def build_K(spec: KernelSpec, geometry=None) -> MarginalKernel:
    """Materialize the marginal kernel described by ``spec``."""
    if isinstance(spec, ExplicitMarginalSpec):
        return MarginalKernel.from_matrix(spec.matrix)
    if isinstance(spec, AlohaSpec):
        p = np.asarray(spec.probabilities, dtype=float)
        if p.ndim != 1 or not np.all((p >= 0) & (p <= 1)):
            raise BadSpec("access probabilities must lie in [0, 1]")
        return MarginalKernel.from_matrix(np.diag(p))
    return l_to_k(build_L(spec, geometry))
