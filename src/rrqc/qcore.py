"""Dense complex linear algebra and quantum primitives for small registers.

States and operators are numpy arrays in double-precision complex, tagged
with an ordered tuple of tensor-factor dimensions; an ``Operator`` is square.
A Kraus set is one untagged array of shape (m, d_out, d_in), its m operators
stacked along the first axis, and a batch of sets adds leading axes. Factor
0 is the leftmost slot of every Kronecker product; protocol code puts the
order/control qubit in the last slot. Registers stay at or below
2**(MAX_RECEIVERS + 1) dimensions, so everything is dense and every
constructed state is cheap to validate eagerly.

Every validity check uses the fixed tolerance ``ATOL``. States are
validated by one check that works on a stack of shape (B, d, d):
``check_states`` tests finiteness, Hermiticity and unit trace, and
positivity through the closed-form lowest eigenvalue of each qubit state
(d = 2) or one batched Cholesky factorization of S + ATOL * I (d > 2), with
a batched ``eigvalsh`` deciding only when that fails. ``DensityMatrix``
runs it on a stack of one, and ``DensityMatrix.from_stack`` once on a whole
stack, whose rows it then keeps without checking each again; a protocol
evaluation checks its own fresh stack and keeps its rows the same way,
without the copy. Kraus stacks pass one check, ``check_complete``, which
takes nothing but an array.

Single-factor operations (local gates, local Kraus channels, projective
measurements) go through one factor-local kernel that contracts the touched
axis of every state in a stack, in place of a d x d embedding;
``apply_kraus`` and ``measure_projective`` call it on a stack of one
(``apply_kraus`` without a factor treats the whole register as one), and
``local_channel`` on a whole stack. ``project_and_discard`` measures one
factor of every state in a stack and traces it out, which is what LOCC
protocols do once a measured qubit is never touched again; its projector
set is checked once by ``projector_set``.

All functions are pure: they never mutate their arguments and are safe to
call concurrently on distinct inputs.
"""

from __future__ import annotations

import functools
import math
import operator
import string
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Absolute tolerance of every equality and validity check; not settable.
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


def as_index(value) -> int:
    """``operator.index(value)`` for a count, factor, target or seed: any
    value that is not an integer raises TypeError, and so does a bool,
    which ``operator.index`` would read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _clean_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(map(as_index, dims))
    if not out or any(d <= 0 for d in out):
        raise DimensionMismatchError(f"invalid factor dimensions {dims!r}")
    return out


def _frozen_array(values, shape_check=None) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape_check is not None and arr.ndim != shape_check:
        raise DimensionMismatchError(
            f"expected a {shape_check}-dimensional array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidityError("entries contain NaN or Inf")
    arr.setflags(write=False)
    return arr


# bound once: a protocol evaluation makes two records per branch with them
_new, _set = object.__new__, object.__setattr__


def _prechecked(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` from fields its caller has
    already validated, without running ``__post_init__``: records put
    together from checked stacks are not checked again. ``fields`` is a
    fresh dict, by field name in field order, and becomes the instance's
    ``__dict__`` in one write."""
    obj = _new(cls)
    _set(obj, "__dict__", fields)
    return obj


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix whose side is the product of ``dims``,
    the tensor-factor dimensions it acts on: a gate, a projector or a
    protocol's recorded operation. Kraus sets are not Operators but stacked
    (m, d_out, d_in) arrays."""

    entries: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        arr = _frozen_array(self.entries, shape_check=2)
        dims = _clean_dims(self.dims)
        side = math.prod(dims)
        if arr.shape != (side, side):
            raise DimensionMismatchError(f"dims {dims} do not match matrix shape {arr.shape}")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "dims", dims)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; factor lists concatenate in order."""
    return Operator(np.kron(a.entries, b.entries), a.dims + b.dims)


def identity(dims: Iterable[int]) -> Operator:
    dims = _clean_dims(dims)
    return Operator(np.eye(math.prod(dims)), dims)


def _check_local(op: Operator, factor: int, dims: tuple[int, ...], what: str) -> None:
    if not 0 <= factor < len(dims):
        raise DimensionMismatchError(f"factor {factor} out of range for {dims}")
    if op.shape[0] != dims[factor]:
        raise DimensionMismatchError(
            f"{what} of shape {op.shape} does not act on factor {factor} of {dims}"
        )


def _check_stack(stack: np.ndarray, dims: tuple[int, ...]) -> None:
    side = math.prod(dims)
    if stack.ndim != 3 or stack.shape[1:] != (side, side):
        raise DimensionMismatchError(f"stack of shape {stack.shape} does not match dims {dims}")


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _conjugate_local(
    stack: np.ndarray, gate: np.ndarray, factor: int, dims: tuple[int, ...]
) -> np.ndarray:
    """G_f S G_f^dag for every S of a (B, d, d) stack, with G on one factor,
    without embedding it.

    With a = prod(dims[:factor]), k = dims[factor] and b the product of the
    rest, the row index of S splits as (a, k, b), so G acts on axis 2 of the
    stack reshaped to (B, a, k, b * d). Applying the same step to the
    conjugate transpose of the result applies G^dag from the right.
    """
    count, side = stack.shape[0], stack.shape[-1]
    before = math.prod(dims[:factor])
    shape = (count, before, dims[factor], side // (before * dims[factor]) * side)
    rows = np.matmul(gate, stack.reshape(shape)).reshape(count, side, side)
    return _dagger(np.matmul(gate, _dagger(rows).reshape(shape)).reshape(count, side, side))


def local_channel(
    stack: np.ndarray, kraus: np.ndarray, factor: int, dims: tuple[int, ...]
) -> np.ndarray:
    """sum_K K_f S K_f^dag for every S of a (B, d, d) stack, each K acting on
    one factor, Hermitian-symmetrized.

    ``kraus`` is an (m, k, k) stack whose completeness the caller has
    checked; the output stack is not validated.
    """
    _check_stack(stack, dims)
    if not 0 <= factor < len(dims) or kraus.ndim != 3 or kraus.shape[1:] != (dims[factor],) * 2:
        raise DimensionMismatchError(f"Kraus set does not act on factor {factor} of {dims}")
    out = _conjugate_local(stack, kraus[0], factor, dims)
    for k in kraus[1:]:
        out = out + _conjugate_local(stack, k, factor, dims)
    return (out + _dagger(out)) / 2  # suppress Hermiticity drift


@functools.lru_cache(maxsize=None)
def _identity(side: int) -> np.ndarray:
    eye = np.eye(side)
    eye.setflags(write=False)
    return eye


@functools.lru_cache(maxsize=None)
def _shifted_identity(side: int) -> np.ndarray:
    """ATOL * I, the shift of the positivity test."""
    shift = ATOL * np.eye(side)
    shift.setflags(write=False)
    return shift


def check_states(stack: np.ndarray) -> None:
    """Raise ValidityError unless every matrix of a (B, d, d) stack is a state:
    finite, Hermitian and of unit trace within ``ATOL``, with no eigenvalue
    below -``ATOL``. Any other shape raises DimensionMismatchError.

    Positivity of a qubit stack (d = 2) is decided by the closed-form lowest
    eigenvalue of every state, Tr S / 2 - sqrt(((a - d) / 2)^2 + |b|^2) for
    S = [[a, b*], [b, d]], read from the diagonal and lower triangle as
    ``eigvalsh`` reads them; a larger stack passes when one batched Cholesky
    factorization of S + ATOL * I succeeds, which it does exactly when every
    eigenvalue of every S exceeds -ATOL. When either test fails, a batched
    ``eigvalsh`` gives the verdict and the reported eigenvalue. Errors name
    the first failing state; an empty stack has none.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatchError(
            f"expected a (B, d, d) stack of states, got shape {stack.shape}"
        )
    if not len(stack):
        return
    if not np.isfinite(stack).all():
        raise ValidityError("entries contain NaN or Inf")
    if np.abs(stack - _dagger(stack)).max() > ATOL:
        raise ValidityError("state is not Hermitian within tolerance")
    traces = stack.trace(axis1=1, axis2=2)
    errors = np.abs(traces - 1.0)
    if errors.max() > ATOL:
        raise ValidityError(f"state trace {traces[np.argmax(errors > ATOL)]} is not 1")
    if stack.shape[-1] == 2:
        a, d = stack[:, 0, 0].real, stack[:, 1, 1].real
        lowest = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(stack[:, 1, 0]))
        if lowest.min() >= -ATOL:
            return
    else:
        try:
            np.linalg.cholesky(stack + _shifted_identity(stack.shape[-1]))
            return
        except np.linalg.LinAlgError:
            pass
    lowest = np.linalg.eigvalsh(stack).min(axis=1)
    if lowest.min() < -ATOL:
        lo = float(lowest[np.argmax(lowest < -ATOL)])
        raise ValidityError(f"state has negative eigenvalue {lo}")


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


def check_kets(amplitudes: np.ndarray) -> None:
    """Raise ValidityError unless every row of a (B, d) amplitude stack has
    unit norm within ``ATOL`` (NaN and Inf fail); the error names the first
    failing row."""
    norms = np.linalg.norm(amplitudes, axis=1)
    failed = ~(np.abs(norms - 1.0) <= ATOL)
    if failed.any():
        raise ValidityError(f"ket norm {norms[np.argmax(failed)]} is not 1")


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
        check_kets(vec[None])
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
    """Validated quantum state: a finite square matrix whose side is the
    product of ``dims``, Hermitian, unit trace and positive within ATOL."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        arr = _frozen_array(self.matrix, shape_check=2)
        dims = _clean_dims(self.dims)
        side = math.prod(dims)
        if arr.shape != (side, side):
            raise DimensionMismatchError(f"dims {dims} do not match matrix shape {arr.shape}")
        check_states(arr[None])
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_matrix(cls, matrix, dims) -> "DensityMatrix":
        return cls(matrix, dims)

    @classmethod
    def from_stack(cls, stack: np.ndarray, dims) -> tuple["DensityMatrix", ...]:
        """Every state of a (B, d, d) stack, validated by one ``check_states``
        call and then built row by row (``_prechecked``) without checking
        each again; the rows are read-only views of one copy of the stack,
        and an empty stack gives ``()``."""
        dims = _clean_dims(dims)
        frozen = np.array(stack, dtype=complex)
        _check_stack(frozen, dims)
        check_states(frozen)
        frozen.setflags(write=False)
        return tuple(_prechecked(cls, {"matrix": m, "dims": dims}) for m in frozen)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduce to the kept factors (0-based indices); factor order is preserved."""
    dims = rho.dims
    count = len(dims)
    kept = sorted(set(map(as_index, keep)))
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
    return DensityMatrix.from_matrix(reduced.reshape(side, side), new_dims)


def kraus_defect(kraus: np.ndarray) -> float:
    """Max-entry deviation of sum(K^dag K) from the identity on the input space
    for an (..., m, out, in) array of Kraus sets, the worst over the sets:
    with a set's K stacked row-wise into one matrix F, the sum is the single
    product F^dag F. Anything else, a list of operators included, raises
    DimensionMismatchError."""
    if not isinstance(kraus, np.ndarray) or kraus.ndim < 3:
        raise DimensionMismatchError(
            f"a Kraus set is an (..., m, out, in) array, got {type(kraus).__name__}"
            f" of shape {getattr(kraus, 'shape', None)}"
        )
    if kraus.size == 0:
        raise CompletenessError("empty Kraus list")
    flat = kraus.reshape(kraus.shape[:-3] + (-1, kraus.shape[-1]))
    gram = _dagger(flat) @ flat
    return float(np.abs(gram - _identity(flat.shape[-1])).max())


def check_complete(kraus: np.ndarray, what: str = "Kraus set") -> None:
    """Raise CompletenessError unless ``kraus_defect`` is within ATOL (NaN fails)."""
    defect = kraus_defect(kraus)
    if not defect <= ATOL:
        raise CompletenessError(f"{what} incomplete (defect {defect:.3e})")


def apply_kraus(
    rho: DensityMatrix,
    kraus: np.ndarray,
    factor: int | None = None,
) -> DensityMatrix:
    """Apply the channel sum(K rho K^dag) of a complete (m, d, d) Kraus stack.

    With ``factor`` given, the stack is (m, k, k) and each K acts on that
    factor alone (identity on the others). Either way it is applied by the
    factor-local kernel, the whole register counting as one factor when no
    ``factor`` is given; completeness is checked on the stack as given, whose
    defect equals that of the embedded set.
    """
    check_complete(kraus)
    if factor is None:
        out = local_channel(rho.matrix[None], kraus, 0, (rho.dim,))
    else:
        out = local_channel(rho.matrix[None], kraus, factor, rho.dims)
    return DensityMatrix.from_matrix(out[0], rho.dims)


def recombine_kraus(kraus: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Mix an (m, out, in) Kraus stack through an isometry into an
    (r, out, in) stack, formed in one product; the channel is unchanged.

    ``mixing`` has shape (r, m) and satisfies mixing^dag mixing = identity.
    """
    mixing = np.asarray(mixing, dtype=complex)
    if not isinstance(kraus, np.ndarray) or kraus.ndim != 3 or mixing.shape != (
        len(mixing), len(kraus)
    ):
        raise DimensionMismatchError(
            f"mixing shape {mixing.shape} does not match Kraus stack of shape {kraus.shape}"
        )
    gram = mixing.conj().T @ mixing
    if np.abs(gram - np.eye(mixing.shape[1])).max() > ATOL:
        raise ValidityError("mixing matrix is not an isometry")
    return (mixing @ kraus.reshape(len(kraus), -1)).reshape((-1,) + kraus.shape[1:])


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


def projector_set(projectors: Sequence[Operator]) -> np.ndarray:
    """Entries of a complete, mutually orthogonal set of projectors on one
    factor, stacked as a read-only (m, k, k) array in label order.

    Raises CompletenessError for an incomplete or non-orthogonal set, so a
    constant set needs checking only once.
    """
    if not projectors:
        raise CompletenessError("empty projector set")
    side = projectors[0].shape[0]
    if any(p.shape[0] != side for p in projectors):
        raise DimensionMismatchError("projectors act on different spaces")
    stack = np.array([p.entries for p in projectors])
    if np.abs(stack.sum(axis=0) - np.eye(side)).max() > ATOL:
        raise CompletenessError("projectors do not sum to the identity")
    for i, p in enumerate(stack):
        for j, q in enumerate(stack):
            expected = p if i == j else 0.0
            if np.abs(p @ q - expected).max() > ATOL:
                raise CompletenessError("projector set is not orthogonal")
    stack.setflags(write=False)
    return stack


def _outcome_probabilities(posts: np.ndarray) -> np.ndarray:
    """Probabilities of unnormalized post-measurement states stacked as
    (B, m, d, d), one row per measured state; each row must sum to 1 within
    ``ATOL``."""
    probs = np.trace(posts, axis1=-2, axis2=-1).real
    sums = probs.sum(axis=-1)
    bad = np.abs(sums - 1.0) > ATOL
    if bad.any():
        raise ValidityError(f"outcome probabilities sum to {sums[bad][0]}, not 1")
    return probs


def renormalize(posts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Hermitian-symmetrized post-measurement states (k, d, d) divided by
    their probabilities (k,)."""
    return (posts + _dagger(posts)) / 2 / probs[:, None, None]


def measure_projective(
    rho: DensityMatrix,
    projectors: Sequence[Operator],
    factor: int,
) -> ProjectiveMeasurement:
    """Measure one tensor factor with a complete orthogonal projector set.

    Post-measurement states keep every factor and are renormalized. Branch
    probabilities of all outcomes sum to 1 within ``ATOL``.
    """
    dims = rho.dims
    for p in projectors:
        _check_local(p, factor, dims, "projector")
    stack = projector_set(projectors)
    mat = rho.matrix[None]
    posts = np.concatenate([_conjugate_local(mat, p, factor, dims) for p in stack])
    probs = _outcome_probabilities(posts[None])[0]
    kept = probs >= PROB_FLOOR
    states = renormalize(posts[kept], probs[kept])
    outcomes = tuple(
        MeasurementOutcome(label, float(probs[label]), DensityMatrix.from_matrix(state, dims))
        for label, state in zip(np.flatnonzero(kept).tolist(), states)
    )
    return ProjectiveMeasurement(outcomes, tuple(np.flatnonzero(~kept).tolist()))


def project_and_discard(
    stack: np.ndarray,
    projectors: np.ndarray,
    factor: int,
    dims: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Measure one factor of every state of a (B, d, d) stack and trace it out.

    ``projectors`` is a set checked by ``projector_set``. Returns the
    outcome probabilities, shaped (B, m), and the unnormalized reduced
    states Tr_f(P S), shaped (B, m, d / k, d / k); each row of probabilities
    must sum to 1 within ``ATOL``. For rank-1 projectors the discarded factor
    is left in a fixed pure state, so validating a renormalized reduced
    state is equivalent to validating the full post-measurement state.
    """
    if len(dims) < 2:
        raise DimensionMismatchError("cannot discard the only factor of a register")
    if not 0 <= factor < len(dims):
        raise DimensionMismatchError(f"factor {factor} out of range for {dims}")
    _check_stack(stack, dims)
    side = dims[factor]
    if projectors.shape[1:] != (side, side):
        raise DimensionMismatchError(
            f"projectors of shape {projectors.shape[1:]} do not act on factor {factor} of {dims}"
        )
    before = math.prod(dims[:factor])
    after = stack.shape[-1] // (before * side)
    tensor_form = stack.reshape(-1, before, side, after, before, side, after)
    # Tr_f(P S): row index k of the measured factor meets column index l
    # through P[l, k]; one pass over all states and projectors
    remaining = stack.shape[-1] // side
    posts = np.einsum("mlk,Nakbcld->Nmabcd", projectors, tensor_form).reshape(
        stack.shape[0], len(projectors), remaining, remaining
    )
    return _outcome_probabilities(posts), posts


def fidelity_pure(target: Ket, rho: DensityMatrix) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target."""
    if target.dim != rho.dim:
        raise DimensionMismatchError(
            f"target dimension {target.dim} does not match state dimension {rho.dim}"
        )
    return float(fidelities_pure(target.amplitudes, rho.matrix[None])[0])


def fidelities_pure(amplitudes: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Overlaps <psi| S |psi> of every state S of a (B, d, d) stack with a
    unit vector, clipped at 0: ``amplitudes`` is one target (d,) for every
    state or one per state (B, d). A value outside [-ATOL, 1 + ATOL] (or NaN)
    raises ValidityError; an empty stack gives no values."""
    if stack.ndim != 3 or amplitudes.shape not in ((stack.shape[2],), stack.shape[:2]):
        raise DimensionMismatchError(
            f"stack of shape {stack.shape} does not match targets of shape {amplitudes.shape}"
        )
    products = amplitudes.conj()[..., :, None] * stack * amplitudes[..., None, :]
    values = products.reshape(len(stack), math.prod(stack.shape[1:])).sum(axis=-1).real
    if len(values) and not (values.min() >= -ATOL and values.max() <= 1.0 + ATOL):  # NaN fails too
        bad = values[~((values >= -ATOL) & (values <= 1.0 + ATOL))][0]
        raise ValidityError(f"fidelity {bad} outside [0, 1]")
    return np.maximum(values, 0.0)


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
    return DensityMatrix.from_matrix(random_density_stack(dims, rng, 1)[0], dims)


def random_density_stack(
    dims: Iterable[int], rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` draws of ``random_density`` in turn, as an unvalidated
    (count, d, d) stack: the generator advances exactly as it would over
    ``count`` calls."""
    size = math.prod(_clean_dims(dims))
    parts = rng.normal(size=(count, 2, size, size))  # real then imaginary, per draw
    g = parts[:, 0] + 1j * parts[:, 1]
    mats = g @ _dagger(g)
    return mats / mats.trace(axis1=1, axis2=2)[:, None, None]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix with phase fixing)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
