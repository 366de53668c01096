"""Dense complex linear algebra and quantum primitives for small registers.

States and operators are numpy arrays in double-precision complex, tagged
with an ordered tuple of tensor-factor dimensions. Factor 0 is the leftmost
slot of every Kronecker product; protocol code puts the order/control qubit
in the last slot. Registers stay at or below 2**(MAX_RECEIVERS + 1)
dimensions, so everything is dense and every constructed state is cheap to
validate eagerly.

Single-factor operations (local gates, local Kraus channels, projective
measurements) go through one factor-local kernel that contracts the touched
axis in place of a d x d embedding. Two measurements are offered:
``measure_projective`` keeps every factor in its post-measurement states,
while ``measure_and_discard`` traces the measured factor out of them, which
is what LOCC protocols use once a measured qubit is never touched again.

All functions are pure: they never mutate their arguments and are safe to
call concurrently on distinct inputs.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Absolute tolerance for equality and validity checks.
ATOL = 1e-9
#: Probability below which a measurement branch counts as numerically zero.
PROB_FLOOR = 1e-12
#: Largest supported receiver count (total dimension 2**(MAX_RECEIVERS + 1)).
MAX_RECEIVERS = 6


class DimensionMismatchError(ValueError):
    """Operands carry incompatible shapes or tensor factorizations."""


class CompletenessError(ValueError):
    """A Kraus or projector set does not resolve the identity."""


class ValidityError(ValueError):
    """A state or operator failed its numerical validity checks."""


def _clean_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d <= 0 for d in out):
        raise DimensionMismatchError(f"invalid factor dimensions {dims!r}")
    return out


def _frozen_array(values, shape_check=None) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape_check is not None and arr.ndim != shape_check:
        raise DimensionMismatchError(
            f"expected a {shape_check}-dimensional array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidityError("entries contain NaN or Inf")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix with explicit tensor-factor dimensions.

    ``dims`` factorizes the row space. ``col_dims`` factorizes the column
    space and defaults to ``dims``, which covers the square case; rectangular
    operators (isometries, Kraus operators between registers of different
    size) pass both.
    """

    entries: np.ndarray
    dims: tuple[int, ...]
    col_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        arr = _frozen_array(self.entries, shape_check=2)
        dims = _clean_dims(self.dims)
        col_dims = dims if self.col_dims is None else _clean_dims(self.col_dims)
        if math.prod(dims) != arr.shape[0] or math.prod(col_dims) != arr.shape[1]:
            raise DimensionMismatchError(
                f"dims {dims} x {col_dims} do not match matrix shape {arr.shape}"
            )
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "col_dims", col_dims)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @property
    def is_square(self) -> bool:
        return self.entries.shape[0] == self.entries.shape[1]

    @property
    def dag(self) -> "Operator":
        return Operator(self.entries.conj().T, self.col_dims, self.dims)

    @property
    def trace(self) -> complex:
        if not self.is_square:
            raise DimensionMismatchError("trace of a non-square operator")
        return complex(np.trace(self.entries))

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatchError(
                f"cannot multiply shapes {self.shape} and {other.shape}"
            )
        return Operator(self.entries @ other.entries, self.dims, other.col_dims)

    def __add__(self, other: "Operator") -> "Operator":
        if self.shape != other.shape:
            raise DimensionMismatchError("operator shapes differ")
        return Operator(self.entries + other.entries, self.dims, self.col_dims)

    def __sub__(self, other: "Operator") -> "Operator":
        if self.shape != other.shape:
            raise DimensionMismatchError("operator shapes differ")
        return Operator(self.entries - other.entries, self.dims, self.col_dims)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.entries * scalar, self.dims, self.col_dims)

    __rmul__ = __mul__


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; factor lists concatenate in order."""
    return Operator(
        np.kron(a.entries, b.entries), a.dims + b.dims, a.col_dims + b.col_dims
    )


def identity(dims: Iterable[int]) -> Operator:
    dims = _clean_dims(dims)
    return Operator(np.eye(math.prod(dims)), dims)


def _check_local(op: Operator, factor: int, dims: tuple[int, ...], what: str) -> None:
    if not 0 <= factor < len(dims):
        raise DimensionMismatchError(f"factor {factor} out of range for {dims}")
    if not op.is_square or op.shape[0] != dims[factor]:
        raise DimensionMismatchError(
            f"{what} of shape {op.shape} does not act on factor {factor} of {dims}"
        )


def _conjugate_local(
    mat: np.ndarray, gate: np.ndarray, factor: int, dims: tuple[int, ...]
) -> np.ndarray:
    """G_f mat G_f^dag for a gate on one factor, without embedding it.

    With a = prod(dims[:factor]), k = dims[factor] and b the product of the
    rest, the row index of mat splits as (a, k, b), so G acts on axis 1 of
    mat reshaped to (a, k, b * d). Applying the same step to the conjugate
    transpose of the result applies G^dag from the right.
    """
    side = mat.shape[0]
    before = math.prod(dims[:factor])
    shape = (before, dims[factor], side // (before * dims[factor]) * side)
    rows = np.matmul(gate, mat.reshape(shape)).reshape(side, side)
    return np.matmul(gate, rows.conj().T.reshape(shape)).reshape(side, side).conj().T


def embed(op: Operator, factor: int, dims: Iterable[int]) -> Operator:
    """Lift a single-factor operator to the full register, identity elsewhere.

    Dense reference for the factor-local kernels; nothing in the package
    needs the d x d matrix it builds.
    """
    dims = _clean_dims(dims)
    _check_local(op, factor, dims, "operator")
    before = math.prod(dims[:factor])
    after = math.prod(dims[factor + 1 :])
    full = np.kron(np.kron(np.eye(before), op.entries), np.eye(after))
    return Operator(full, dims)


def cnot_permutation(num_factors: int, control: int, target: int) -> np.ndarray:
    """Basis-index permutation of CNOT on a register of qubits.

    Basis state i goes to perm[i]; CNOT is an involution, so conjugating a
    state by it is the index permutation ``rho[perm][:, perm]``. Factor 0 is
    the most significant bit of the computational index.
    """
    if control == target or not (
        0 <= control < num_factors and 0 <= target < num_factors
    ):
        raise DimensionMismatchError(
            f"bad control/target ({control}, {target}) for {num_factors} qubits"
        )
    index = np.arange(2**num_factors)
    cbit = num_factors - 1 - control
    tbit = num_factors - 1 - target
    return index ^ (((index >> cbit) & 1) << tbit)


def controlled_not(num_factors: int, control: int, target: int) -> Operator:
    """CNOT on a register of qubits, as a permutation matrix."""
    perm = cnot_permutation(num_factors, control, target)
    mat = np.zeros((perm.size, perm.size))
    mat[perm, np.arange(perm.size)] = 1.0
    return Operator(mat, (2,) * num_factors)


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state as a complex amplitude vector with factor dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = _frozen_array(np.asarray(self.amplitudes).reshape(-1), shape_check=1)
        dims = _clean_dims(self.dims)
        if math.prod(dims) != vec.shape[0]:
            raise DimensionMismatchError(
                f"dims {dims} do not match vector length {vec.shape[0]}"
            )
        if abs(np.linalg.norm(vec) - 1.0) > ATOL:
            raise ValidityError(f"ket norm {np.linalg.norm(vec)} is not 1")
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        vec = self.amplitudes
        return DensityMatrix.from_matrix(np.outer(vec, vec.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive within tolerance."""

    op: Operator
    tolerance: float = ATOL

    def __post_init__(self):
        if not self.op.is_square or self.op.col_dims != self.op.dims:
            raise DimensionMismatchError("density matrix must be square")
        mat = self.op.entries
        tol = self.tolerance
        if np.abs(mat - mat.conj().T).max() > tol:
            raise ValidityError("state is not Hermitian within tolerance")
        if abs(np.trace(mat) - 1.0) > tol:
            raise ValidityError(f"state trace {np.trace(mat)} is not 1")
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < -tol:
            raise ValidityError(f"state has negative eigenvalue {lo}")

    @classmethod
    def from_matrix(cls, matrix, dims, tolerance: float = ATOL) -> "DensityMatrix":
        return cls(Operator(matrix, _clean_dims(dims)), tolerance)

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityMatrix":
        return ket.density()

    @property
    def matrix(self) -> np.ndarray:
        return self.op.entries

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        return DensityMatrix.from_matrix(
            np.kron(self.matrix, other.matrix),
            self.dims + other.dims,
            max(self.tolerance, other.tolerance),
        )


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the kept factors (0-based indices); factor order is preserved."""
    dims = rho.dims
    count = len(dims)
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise DimensionMismatchError("must keep at least one factor")
    if kept[0] < 0 or kept[-1] >= count:
        raise DimensionMismatchError(f"factor index out of range for {dims}")
    if len(kept) == count:
        return rho
    kept_set = set(kept)
    tensor_form = rho.matrix.reshape(dims + dims)
    letters = string.ascii_lowercase
    row, col = [], []
    for i in range(count):
        row.append(letters[2 * i])
        # traced factors reuse the row letter, contracting that pair of axes
        col.append(letters[2 * i + 1] if i in kept_set else letters[2 * i])
    out = "".join(letters[2 * i] for i in kept) + "".join(
        letters[2 * i + 1] for i in kept
    )
    reduced = np.einsum(f"{''.join(row)}{''.join(col)}->{out}", tensor_form)
    new_dims = tuple(dims[i] for i in kept)
    side = math.prod(new_dims)
    return DensityMatrix.from_matrix(reduced.reshape(side, side), new_dims, rho.tolerance)


def kraus_defect(kraus: Sequence[Operator]) -> float:
    """Max-entry deviation of sum(K^dag K) from the identity on the input space."""
    if not kraus:
        raise CompletenessError("empty Kraus list")
    cols = kraus[0].shape[1]
    acc = np.zeros((cols, cols), dtype=complex)
    for k in kraus:
        if k.shape[1] != cols:
            raise DimensionMismatchError("Kraus operators act on different spaces")
        acc += k.entries.conj().T @ k.entries
    return float(np.abs(acc - np.eye(cols)).max())


def apply_kraus(
    rho: DensityMatrix,
    kraus: Sequence[Operator],
    atol: float = ATOL,
    factor: int | None = None,
) -> DensityMatrix:
    """Apply the channel sum(K rho K^dag) for a complete Kraus set.

    With ``factor`` given, each K acts on that factor alone (identity on the
    others) and is applied by the factor-local kernel. Completeness is then
    checked on the single-factor set, whose defect equals that of the
    embedded set.
    """
    if not kraus:
        raise CompletenessError("empty Kraus list")
    shape = kraus[0].shape
    if any(k.shape != shape for k in kraus):
        raise DimensionMismatchError("Kraus operators have mixed shapes")
    if factor is not None:
        _check_local(kraus[0], factor, rho.dims, "Kraus operator")
    elif shape[1] != rho.dim:
        raise DimensionMismatchError(
            f"Kraus input dimension {shape[1]} does not match state dimension {rho.dim}"
        )
    defect = kraus_defect(kraus)
    if defect > atol:
        raise CompletenessError(f"Kraus set incomplete (defect {defect:.3e})")
    mat = rho.matrix
    if factor is None:
        out_dims = kraus[0].dims
        out = np.zeros((shape[0], shape[0]), dtype=complex)
        for k in kraus:
            out += k.entries @ mat @ k.entries.conj().T
    else:
        out_dims = rho.dims
        out = np.zeros_like(mat)
        for k in kraus:
            out += _conjugate_local(mat, k.entries, factor, out_dims)
    out = (out + out.conj().T) / 2  # suppress Hermiticity drift
    return DensityMatrix.from_matrix(out, out_dims, rho.tolerance)


def recombine_kraus(kraus: Sequence[Operator], mixing: np.ndarray) -> list[Operator]:
    """Mix a Kraus list through an isometry; the channel is unchanged.

    ``mixing`` has shape (r, m) with m = len(kraus) and satisfies
    mixing^dag mixing = identity.
    """
    mixing = np.asarray(mixing, dtype=complex)
    if mixing.ndim != 2 or mixing.shape[1] != len(kraus):
        raise DimensionMismatchError(
            f"mixing shape {mixing.shape} does not match {len(kraus)} Kraus operators"
        )
    gram = mixing.conj().T @ mixing
    if np.abs(gram - np.eye(mixing.shape[1])).max() > ATOL:
        raise ValidityError("mixing matrix is not an isometry")
    out = []
    for row in mixing:
        acc = sum(c * k.entries for c, k in zip(row, kraus))
        out.append(Operator(acc, kraus[0].dims, kraus[0].col_dims))
    return out


class MeasurementOutcome(NamedTuple):
    label: int
    probability: float
    state: DensityMatrix


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Surviving outcomes of a projective measurement, plus the labels of
    outcomes dropped for having probability below PROB_FLOOR."""

    outcomes: tuple[MeasurementOutcome, ...]
    dropped: tuple[int, ...]

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self):
        return len(self.outcomes)

    def __getitem__(self, item):
        return self.outcomes[item]


def _projector_stack(
    projectors: Sequence[Operator], dims: tuple[int, ...], factor: int, atol: float
) -> np.ndarray:
    """Check that the projectors on one factor are complete and mutually
    orthogonal; return their entries stacked along a leading axis."""
    if not 0 <= factor < len(dims):
        raise DimensionMismatchError(f"factor {factor} out of range for {dims}")
    for p in projectors:
        _check_local(p, factor, dims, "projector")
    stack = np.array([p.entries for p in projectors]).reshape(-1, dims[factor], dims[factor])
    if np.abs(stack.sum(axis=0) - np.eye(dims[factor])).max() > atol:
        raise CompletenessError("projectors do not sum to the identity")
    for i, p in enumerate(stack):
        for j, q in enumerate(stack):
            expected = p if i == j else 0.0
            if np.abs(p @ q - expected).max() > atol:
                raise CompletenessError("projector set is not orthogonal")
    return stack


def _collect_outcomes(
    posts: Iterable[np.ndarray], dims: tuple[int, ...], tolerance: float, atol: float
) -> ProjectiveMeasurement:
    """Turn unnormalized post-measurement matrices, in label order, into
    validated outcomes; drop those below PROB_FLOOR and check that the
    probabilities sum to 1 within ``atol``."""
    outcomes, dropped = [], []
    prob_sum = 0.0
    for label, post in enumerate(posts):
        prob = float(np.real(np.trace(post)))
        prob_sum += prob
        if prob < PROB_FLOOR:
            dropped.append(label)
            continue
        post = (post + post.conj().T) / 2 / prob
        outcomes.append(
            MeasurementOutcome(label, prob, DensityMatrix.from_matrix(post, dims, tolerance))
        )
    if abs(prob_sum - 1.0) > atol:
        raise ValidityError(f"outcome probabilities sum to {prob_sum}, not 1")
    return ProjectiveMeasurement(tuple(outcomes), tuple(dropped))


def measure_projective(
    rho: DensityMatrix,
    projectors: Sequence[Operator],
    factor: int,
    atol: float = ATOL,
) -> ProjectiveMeasurement:
    """Measure one tensor factor with a complete orthogonal projector set.

    Post-measurement states keep every factor and are renormalized. Branch
    probabilities of surviving outcomes sum to 1 within ``atol``.
    """
    dims = rho.dims
    stack = _projector_stack(projectors, dims, factor, atol)
    posts = (_conjugate_local(rho.matrix, p, factor, dims) for p in stack)
    return _collect_outcomes(posts, dims, rho.tolerance, atol)


def measure_and_discard(
    rho: DensityMatrix,
    projectors: Sequence[Operator],
    factor: int,
    atol: float = ATOL,
) -> ProjectiveMeasurement:
    """Measure one tensor factor and trace it out of every outcome.

    Runs the same projector, ``PROB_FLOOR`` and probability-sum checks as
    ``measure_projective``. Each outcome state is Tr_f(P rho) / p, a
    validated state on the remaining factors: the partial trace of the
    corresponding ``measure_projective`` state. For rank-1 projectors the
    discarded factor is left in a fixed pure state, so validating the
    reduced state is equivalent to validating the full post-state.
    """
    dims = rho.dims
    if len(dims) < 2:
        raise DimensionMismatchError("cannot discard the only factor of a register")
    stack = _projector_stack(projectors, dims, factor, atol)
    before = math.prod(dims[:factor])
    side = dims[factor]
    after = rho.dim // (before * side)
    tensor_form = rho.matrix.reshape(before, side, after, before, side, after)
    # Tr_f(P rho): row index k of the measured factor meets column index l
    # through P[l, k]; one pass over all projectors
    remaining = rho.dim // side
    posts = np.einsum("mlk,akbcld->mabcd", stack, tensor_form).reshape(
        len(stack), remaining, remaining
    )
    rest = dims[:factor] + dims[factor + 1 :]
    return _collect_outcomes(posts, rest, rho.tolerance, atol)


def fidelity_pure(target: Ket, rho: DensityMatrix) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target."""
    if target.dim != rho.dim:
        raise DimensionMismatchError(
            f"target dimension {target.dim} does not match state dimension {rho.dim}"
        )
    vec = target.amplitudes
    value = float(np.real(vec.conj() @ rho.matrix @ vec))
    if value < -ATOL or value > 1.0 + ATOL:
        raise ValidityError(f"fidelity {value} outside [0, 1]")
    return max(value, 0.0)


# Single-qubit constants. X, Y, Z are the Pauli matrices; the +/- kets span
# the Fourier (Hadamard) basis used by the retrieval measurements.
I2 = identity((2,))
X = Operator([[0, 1], [1, 0]], (2,))
Y = Operator([[0, -1j], [1j, 0]], (2,))
Z = Operator([[1, 0], [0, -1]], (2,))
CNOT = controlled_not(2, 0, 1)

KET0 = Ket([1, 0], (2,))
KET1 = Ket([0, 1], (2,))
KET_PLUS = Ket([1 / math.sqrt(2), 1 / math.sqrt(2)], (2,))
KET_MINUS = Ket([1 / math.sqrt(2), -1 / math.sqrt(2)], (2,))

PROJ0 = Operator([[1, 0], [0, 0]], (2,))
PROJ1 = Operator([[0, 0], [0, 1]], (2,))
PROJ_PLUS = Operator([[0.5, 0.5], [0.5, 0.5]], (2,))
PROJ_MINUS = Operator([[0.5, -0.5], [-0.5, 0.5]], (2,))


def random_ket(dims: Iterable[int], rng: np.random.Generator) -> Ket:
    dims = _clean_dims(dims)
    size = math.prod(dims)
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    return Ket(vec / np.linalg.norm(vec), dims)


def random_density(dims: Iterable[int], rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state (normalized Ginibre square)."""
    dims = _clean_dims(dims)
    size = math.prod(dims)
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    mat = g @ g.conj().T
    return DensityMatrix.from_matrix(mat / np.trace(mat), dims)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix with phase fixing)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
