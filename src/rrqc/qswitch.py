"""Quantum SWITCH of two channels with a qubit order control.

``switch_generic`` applies the standard Kraus construction for arbitrary
channel pairs: with Kraus sets {A_j} and {B_k}, the switched channel acts on
message (x) control through the operators

    A_j B_k (x) |0><0|  +  B_k A_j (x) |1><1|,

with the control in the last tensor slot. Every Kraus set here is a stacked
(m, d_out, d_in) array: the two channels come as (m, d, d) stacks, whose
shapes are checked before any product is formed. All |A| * |B| switch
operators are built at once as one (m, 2d, 2d) stack, from one matrix
product for each order, and the stack is checked complete once, when it is
built; the switched outputs, ``switch_kraus``, ``switched_kraus`` and the
generic Choi matrix are all computed from it. The control state is absorbed
into the stack (``_lift_control``, one (2d, d) operator per Kraus operator
and control eigenvector), whose operators K form the input kernel
R = sum_K K (x) conj(K) as one Gram product; the outputs for a (T, d, d) stack of messages are then
one (T, d^2) @ (d^2, 4 d^2) product, and ``switch_generic`` is the
one-message case.

When both channels are products of single-qubit Pauli channels, one rule
gives the switched channel exactly. On each qubit sigma_a sigma_b =
+-sigma_b sigma_a, with the minus sign when the two Paulis anticommute, so
the pair product A_j B_k is a Pauli string and reversing the order changes
its sign when an odd number of qubits anticommute. Grouping the pairs by
that parity gives the decomposition

    p_plus * C_plus(rho) (x) omega  +  p_minus * C_minus(rho) (x) Z omega Z

into two normalized Pauli-string channels correlated with the control.
``closed_form_product`` builds it for any two products, one qubit at a time:
a per-qubit table of summed pair weights keyed by (product label,
anticommutes), combined across qubits by a parity-tracked convolution.
``closed_form_two_party`` (a two-qubit product switched with itself) and
``closed_form_nxy_n`` (n equal-X/Y mixtures, whose branches are the even-
and odd-weight Z strings) are its special cases. A closed form is evaluated
only from its string tables, each string a flip pattern and a sign vector
(``_string_arrays``): ``SwitchedChannel.apply_stack`` applies them as summed
masks and index permutations, and ``_closed_kernels`` scatters them into
input kernels.

``validate_closed_forms`` cross-checks the closed forms against the generic
switch at the level of Choi matrices, which is the only trusted route: the
closed forms are derived here from the Pauli pair algebra, not transcribed
from any external table. A unit-trace Choi matrix holds the Gram entries of
the lifted Kraus operators divided by d, and the input kernel holds the same
entries in another order, so each Choi comparison is one of input kernels:
the generic switch's against the closed form's scattered one, with the
max-entry difference divided by d.

For two products of single-qubit Kraus sets, A = (x)_q a_q and B =
(x)_q b_q, the generic switch factors over the qubits (``_product_kernel``,
the standard construction taken one qubit at a time): with M^0_ij = a_i b_j
and M^1_ij = b_j a_i on one qubit, block (c, c') of the input kernel is
omega_cc' times the Kronecker product over the qubits of the 4 x 4 pair sums
L_cc' = sum_ij M^c_ij (x) conj(M^c'_ij). This is exact for any product
channels, uses none of the Pauli algebra the closed forms come from, and
never forms the (|a| |b|)^n operators of the dense stack. Every generic
kernel of ``validate_closed_forms`` takes this route; the dense stack stays
behind ``switch_generic``, ``switch_kraus``, ``switched_kraus`` and
``choi_deviation``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import channels, qcore
from .qcore import (
    ATOL,
    MAX_RECEIVERS,
    PROB_FLOOR,
    CompletenessError,
    DensityMatrix,
    DimensionMismatchError,
    ValidityError,
)

StringTable = dict[tuple[str, ...], float]

# trials per stacked pass of ``validate_closed_forms``
_BLOCK = 16

# I, X, Y, Z stacked, in ``channels.PAULI_LABELS`` order
_PAULIS = np.stack([op.entries for op in (qcore.I2, qcore.X, qcore.Y, qcore.Z)])
_PAULIS.setflags(write=False)
_LABELS = frozenset(channels.PAULI_LABELS)


def _register_side(stack_a: np.ndarray, stack_b: np.ndarray) -> int:
    """The side d of the register two (m, d, d) Kraus stacks act on; raises
    DimensionMismatchError for anything else, before any product is formed."""
    for stack in (stack_a, stack_b):
        if not isinstance(stack, np.ndarray) or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise DimensionMismatchError(
                f"a channel Kraus set is an (m, d, d) array, got {type(stack).__name__}"
                f" of shape {getattr(stack, 'shape', None)}"
            )
    if stack_a.shape[1:] != stack_b.shape[1:]:
        raise DimensionMismatchError("channel Kraus sets act on different registers")
    return stack_a.shape[-1]


def _switch_of(stack_a: np.ndarray, stack_b: np.ndarray) -> np.ndarray:
    """All switch Kraus operators of two stacked Kraus sets on one register.

    Entry j * |B| + k is A_j B_k (x) |0><0| + B_k A_j (x) |1><1|. The control
    is the last factor, so its index interleaves both rows and columns. Each
    order is one matrix product: with the A_j stacked as rows and the B_k as
    columns, block (j, k) of the product is A_j B_k. The caller has checked
    the shapes (``_register_side``); both sets and the result are checked
    complete.
    """
    qcore.check_complete(stack_a, "first Kraus set")
    qcore.check_complete(stack_b, "second Kraus set")
    count_a, count_b, side = len(stack_a), len(stack_b), stack_a.shape[-1]
    ab = stack_a.reshape(-1, side) @ stack_b.transpose(1, 0, 2).reshape(side, -1)
    ba = stack_b.reshape(-1, side) @ stack_a.transpose(1, 0, 2).reshape(side, -1)
    stack = np.zeros((count_a * count_b, 2 * side, 2 * side), dtype=complex)
    stack[:, 0::2, 0::2] = (
        ab.reshape(count_a, side, count_b, side).transpose(0, 2, 1, 3).reshape(-1, side, side)
    )
    stack[:, 1::2, 1::2] = (
        ba.reshape(count_b, side, count_a, side).transpose(2, 0, 1, 3).reshape(-1, side, side)
    )
    qcore.check_complete(stack, "switch Kraus set")
    return stack


def _lift_control(stack: np.ndarray, omega: DensityMatrix) -> np.ndarray:
    """Absorb the control state into stacked message (x) control Kraus
    operators: each S becomes S (I (x) sqrt(lam) |v>) for every eigenpair of
    omega above ``PROB_FLOOR``, operator-major. The control index is the last
    one of S, so this is one (., 2) @ (2, r) product."""
    vals, vecs = np.linalg.eigh(omega.matrix)
    keep = vals >= PROB_FLOOR
    amps = vecs[:, keep] * np.sqrt(vals[keep])
    m, rows, cols = stack.shape
    side = cols // 2
    lifted = (stack.reshape(-1, 2) @ amps).reshape(m, rows, side, -1)
    return lifted.transpose(0, 3, 1, 2).reshape(-1, rows, side)


def _input_kernel(lifted: np.ndarray) -> np.ndarray:
    """The (d^2, (2d)^2) matrix that takes a row-major flattened message rho
    to the flattened output sum_k K_k rho K_k^dag of a lifted Kraus stack
    (m, 2d, d): the transpose of R = sum_k K_k (x) conj(K_k), formed as one
    Gram product of the flattened operators."""
    m, rows, side = lifted.shape
    flat = lifted.reshape(m, -1)
    gram = flat.T @ flat.conj()  # ((a, i), (b, j)): sum_k K_ai conj(K_bj)
    kernel = gram.reshape(rows, side, rows, side).transpose(1, 3, 0, 2)
    return kernel.reshape(side**2, rows**2)


def _product_kernel(first: np.ndarray, second: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The ``_input_kernel`` of the switch of two n-qubit product channels
    with the control absorbed, for T trials at once and one qubit at a time.

    ``first`` and ``second`` hold each trial's per-qubit Kraus factor sets,
    (T, n, k, 2, 2) (the two k may differ), and ``omegas`` the (T, 2, 2)
    controls; the result is (T, d^2, (2d)^2), what ``_input_kernel(
    _lift_control(_switch_of(A, B), omega))`` gives for A and B the products
    of the factor sets. On one qubit, with M^0_ij = a_i b_j and M^1_ij =
    b_j a_i, the pair sum L_cc' = sum_ij M^c_ij (x) conj(M^c'_ij) is one
    4 x 4 block; the pair sum over the product sets factors over the qubits,
    so block (c, c') of the kernel is omega_cc' times the Kronecker product
    of the L_cc'. This holds for any product Kraus sets and uses no Pauli
    algebra. Each control enters as ``_lift_control`` absorbs it, through
    its eigenpairs above ``PROB_FLOOR``. Every factor set and each qubit's
    M^0 and M^1 sets are checked complete, which together is the
    completeness of the product sets and of the switch Kraus set.
    """
    count, n = first.shape[:2]
    vals, vecs = np.linalg.eigh(omegas)
    kept = np.where(vals >= PROB_FLOOR, vals, 0.0)
    controls = (vecs * kept[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    qcore.check_complete(first, "first Kraus factor set")
    qcore.check_complete(second, "second Kraus factor set")
    orders = np.stack(
        [first[:, :, :, None] @ second[:, :, None], second[:, :, None] @ first[:, :, :, None]],
        axis=2,
    ).reshape(count, n, 2, -1, 2, 2)  # (T, n, c, pair, row, column)
    qcore.check_complete(orders, "switch Kraus factor set")
    flat = orders.transpose(0, 1, 3, 2, 4, 5).reshape(count, n, -1, 8)
    gram = flat.swapaxes(-1, -2) @ flat.conj()  # ((c, m, i), (c', m', j)) per qubit
    # per qubit L[c, c', i, j, m, m'], the control weights folded into qubit 0
    local = gram.reshape((count, n) + (2,) * 6).transpose(0, 1, 2, 5, 4, 7, 3, 6)
    kernel = local[:, 0] * controls[:, :, :, None, None, None, None]
    for q in range(1, n):
        side = 2 * kernel.shape[-1]
        kernel = (
            kernel[..., :, None, :, None, :, None, :, None]
            * local[:, q, ..., None, :, None, :, None, :, None, :]
        ).reshape(count, 2, 2, side, side, side, side)
    side = kernel.shape[-1]
    # (T, c, c', i, j, m, m') -> rows (i, j), columns ((m, c), (m', c'))
    return kernel.transpose(0, 3, 4, 5, 1, 6, 2).reshape(count, side**2, 4 * side**2)


def _switch_outputs(kernel: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The outputs of the map whose ``_input_kernel`` is ``kernel`` for every
    message of a (T, d, d) stack, as one (T, d^2) @ (d^2, 4 d^2) product,
    Hermitian-symmetrized; the outputs are not validated."""
    count, side = rhos.shape[:2]
    out = (rhos.reshape(count, -1) @ kernel).reshape(count, 2 * side, 2 * side)
    return (out + out.conj().transpose(0, 2, 1)) / 2  # suppress Hermiticity drift


def switch_kraus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kraus operators of the switch of two channels on a d-dimensional
    register, given as (m, d, d) stacks, on message (x) control: an
    (|A| |B|, 2d, 2d) stack."""
    _register_side(a, b)
    return _switch_of(a, b)


def switch_generic(
    a: np.ndarray,
    b: np.ndarray,
    input: DensityMatrix,
    omega: DensityMatrix,
) -> DensityMatrix:
    """Output state of the switched channel for a given message and control
    state, on the message's factors followed by the control."""
    side = _register_side(a, b)
    if input.dim != side:
        raise DimensionMismatchError(
            f"message dimension {input.dim} does not match channels on dimension {side}"
        )
    if omega.dim != 2:
        raise DimensionMismatchError("the order control must be a qubit")
    kernel = _input_kernel(_lift_control(_switch_of(a, b), omega))
    out = _switch_outputs(kernel, input.matrix[None])
    return DensityMatrix.from_matrix(out[0], input.dims + (2,))


def switched_kraus(a: np.ndarray, b: np.ndarray, omega: DensityMatrix) -> np.ndarray:
    """Kraus set of the message -> message (x) control map with the control
    state absorbed (via its spectral decomposition): an (|A| |B| r, 2d, d)
    stack, r the rank of ``omega``."""
    _register_side(a, b)
    if omega.dim != 2:
        raise DimensionMismatchError("the order control must be a qubit")
    return _lift_control(_switch_of(a, b), omega)


@dataclass(frozen=True, eq=False)
class SwitchedChannel:
    """Decomposition of a switched Pauli-product channel.

    The output on input rho is
    p_plus * C_plus(rho) (x) omega_plus + p_minus * C_minus(rho) (x) omega_minus,
    where C_plus/C_minus are the normalized Pauli-string channels given by
    ``plus_strings``/``minus_strings`` and omega_minus = Z omega_plus Z.
    """

    p_plus: float
    p_minus: float
    omega_plus: DensityMatrix
    plus_strings: StringTable
    minus_strings: StringTable

    def __post_init__(self):
        if self.omega_plus.dims != (2,):
            raise DimensionMismatchError("the order control must be a qubit")
        # every check is written so that NaN fails it
        if not (self.p_plus >= -ATOL and self.p_minus >= -ATOL):
            raise ValidityError("negative branch probability")
        if not abs(self.p_plus + self.p_minus - 1.0) <= ATOL:
            raise ValidityError(
                f"branch probabilities sum to {self.p_plus + self.p_minus}, not 1"
            )
        # a Pauli-string channel is complete iff its weights form a distribution
        for name, table in (("C_plus", self.plus_strings), ("C_minus", self.minus_strings)):
            weights = table.values()
            if not (all(w >= 0.0 for w in weights) and abs(sum(weights) - 1.0) <= ATOL):
                raise CompletenessError(f"{name} weights are not a distribution")
        # both tables key Pauli strings of one length n, as label tuples
        lengths = set()
        for key in (*self.plus_strings, *self.minus_strings):
            if type(key) is not tuple or not set(key) <= _LABELS:
                raise ValidityError(f"string table key {key!r} is not a tuple of Pauli labels")
            lengths.add(len(key))
        if len(lengths) != 1 or not 1 <= min(lengths) <= MAX_RECEIVERS:
            raise DimensionMismatchError(
                f"string table keys have lengths {sorted(lengths)}, not one n in 1..{MAX_RECEIVERS}"
            )

    @functools.cached_property
    def omega_minus(self) -> DensityMatrix:
        """The control state of the minus branch, Z omega_plus Z, as a
        read-only matrix. Conjugating by Z only flips the signs of the
        off-diagonal entries, so it has the Hermiticity, trace and spectrum of
        the checked omega_plus and is not checked again."""
        flipped = qcore.Z.entries @ self.omega_plus.matrix @ qcore.Z.entries
        flipped.setflags(write=False)
        return qcore._prechecked(DensityMatrix, {"matrix": flipped, "dims": (2,)})

    @property
    def num_qubits(self) -> int:
        return len(next(iter(self.plus_strings)))

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Total switched-channel output on message (x) control."""
        out = self.apply_stack(rho.matrix[None])
        return DensityMatrix.from_matrix(out[0], rho.dims + (2,))

    def apply_stack(self, rhos: np.ndarray) -> np.ndarray:
        """Total switched-channel output on message (x) control for every
        message of a (T, d, d) stack, Hermitian-symmetrized; the outputs are
        not validated."""
        size = 2**self.num_qubits
        if rhos.ndim != 3 or rhos.shape[1:] != (size, size):
            raise DimensionMismatchError(
                f"message dimension {rhos.shape[-1]} does not match {self.num_qubits} qubits"
            )
        count, side = len(rhos), 2 * size
        out = np.zeros((count, side, side), dtype=complex)
        for prob, groups, omega in self._flip_groups:
            branch = np.zeros_like(rhos, dtype=complex)
            for inverse, mask in groups:
                branch += (mask * rhos)[:, inverse][:, :, inverse]
            # the Kronecker products (prob * branch) (x) omega
            out += (prob * branch[:, :, None, :, None] * omega.matrix[:, None]).reshape(
                count, side, side
            )
        return (out + out.conj().transpose(0, 2, 1)) / 2

    @property
    def _branches(self) -> list[tuple[float, StringTable, DensityMatrix]]:
        """(p, string table, control) of each branch of positive probability."""
        plus = (self.p_plus, self.plus_strings, self.omega_plus)
        minus = (self.p_minus, self.minus_strings, self.omega_minus)
        return [branch for branch in (plus, minus) if branch[0] > 0.0]

    @functools.cached_property
    def _flip_groups(self):
        """Each branch of positive probability with its string table grouped
        by flip pattern (``_string_arrays``): per flip pattern u that occurs,
        the index permutation i -> i ^ u and one summed mask
        sum_s w_s c_s c_s^T, its strings added in table order, so that the
        group applies as (mask * rho) permuted on rows and columns."""
        out = []
        for prob, table, omega in self._branches:
            flips, signs, weights = _string_arrays(table.items())
            masks: dict[int, np.ndarray] = {}
            for flip, sign, w in zip(flips.tolist(), signs, weights):
                masks[flip] = masks.get(flip, 0.0) + w * np.outer(sign, sign)
            index = np.arange(signs.shape[1])
            groups = tuple((index ^ flip, mask) for flip, mask in masks.items())
            for array in (a for group in groups for a in group):
                array.setflags(write=False)  # every later apply reads them
            out.append((prob, groups, omega))
        return tuple(out)


def _string_arrays(items) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(label string, weight) items, such as a string table's, as arrays in
    their order: the (s,) flip patterns, the (s, 2**n) sign vectors and the
    (s,) weights.

    A Pauli string is, up to a global phase, X^u D with u its flip pattern
    (the qubits carrying X or Y, qubit 0 the most significant bit) and D
    diagonal with entries c_i = (-1)^popcount(i & z), z the qubits carrying Z
    or Y (a Y is X Z up to its phase). So sigma rho sigma^dag is
    (c c^T * rho) with rows and columns permuted by i -> i ^ u.
    """
    strings, weights = zip(*items)
    labels = np.array(strings)  # (s, n): one label per string and qubit
    n = labels.shape[1]
    bits = 1 << np.arange(n - 1, -1, -1)
    flips = ((labels == "X") | (labels == "Y")) @ bits
    zmasks = ((labels == "Y") | (labels == "Z")) @ bits
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)  # popcount(i) mod 2
    for bit in range(n):
        parity ^= (index >> bit) & 1
    signs = 1.0 - 2.0 * parity[index & zmasks[:, None]]
    return flips, signs, np.array(weights, dtype=float)


def _closed_kernels(switched: Sequence[SwitchedChannel]) -> np.ndarray:
    """The ``_input_kernel`` of each of T closed forms on the same n qubits,
    (T, d^2, (2d)^2), scattered from their string tables.

    A string with flip pattern u, signs c and weight w, in a branch of
    probability p and control omega, takes rho_ij to p w c_i c_j omega_cc'
    at output row (i ^ u, c) and column (j ^ u, c'). The strings of a branch
    are summed into one mask per u, and both branches into one block per u,
    which fills its own kernel entries. No completeness check is made: a
    closed form is trace preserving once ``SwitchedChannel`` has checked its
    probabilities and weights, and its control is a checked state.
    """
    count, size = len(switched), 2 ** switched[0].num_qubits
    items, slots = [], []
    controls = np.zeros((count, 2, 2, 2), dtype=complex)
    for t, sw in enumerate(switched):
        for b, (prob, table, omega) in enumerate(sw._branches):
            items += [(labels, prob * w) for labels, w in table.items()]
            slots += [2 * t + b] * len(table)
            controls[t, b] = omega.matrix
    flips, signs, weights = _string_arrays(items)
    masks = np.zeros((2 * count, size, size, size))  # ((t, branch), u, i, j)
    scaled = weights[:, None] * signs
    np.add.at(masks, (slots, flips), scaled[:, :, None] * signs[:, None, :])
    masks = masks.reshape(count, 2, size, size, size, 1, 1)
    summed = (masks * controls[:, :, None, None, None]).sum(axis=1)  # (t, u, i, j, c, c')
    index = range(size)
    u, i, j, c, c2 = np.ix_(index, index, index, range(2), range(2))
    rows = size * i + j
    cols = (2 * (i ^ u) + c) * 2 * size + 2 * (j ^ u) + c2
    kernels = np.zeros((count, size**2, 4 * size**2), dtype=complex)
    kernels[:, rows, cols] = summed
    return kernels


def _closed_form_deviations(switched: Sequence[SwitchedChannel], kernels: np.ndarray):
    """Max-entry unit-trace Choi difference between each of T closed forms on
    n qubits and the map whose ``_input_kernel`` is the matching one of the
    (T, d^2, (2d)^2) ``kernels``: their max-entry difference divided by d."""
    closed = _closed_kernels(switched)
    deviations = np.abs(kernels - closed).reshape(len(closed), -1).max(axis=1)
    return deviations / 2 ** switched[0].num_qubits


def closed_form_product(
    first: Sequence[channels.PauliChannel],
    second: Sequence[channels.PauliChannel],
    omega: DensityMatrix | None = None,
) -> SwitchedChannel:
    """Switched-channel decomposition for the switch of two n-qubit products
    of Pauli channels, ``first`` on qubits 1..n against ``second``.

    On each qubit the pairs (sigma_a, sigma_b) with weights w_a * w_b are
    summed by (label of sigma_a sigma_b, anticommutes); the qubits are then
    combined keeping the parity of anticommuting factors, and odd-parity
    strings flip the control coherence (C_minus).
    """
    n = len(first)
    if len(second) != n:
        raise ValueError(f"channel products on {n} and {len(second)} qubits")
    if not 1 <= n <= MAX_RECEIVERS:
        raise ValueError(f"receiver count {n} outside 1..{MAX_RECEIVERS}")
    labels = channels.PAULI_LABELS
    # tables[parity] maps the label strings built so far to their weights
    tables: tuple[StringTable, StringTable] = ({(): 1.0}, {})
    for a, b in zip(first, second):
        local: dict[tuple[str, bool], float] = {}
        for la, wa in enumerate(a.weights):
            for lb, wb in enumerate(b.weights):
                if wa == 0.0 or wb == 0.0:
                    continue
                _, product = channels.pauli_product(la, lb)
                key = (labels[product], channels.paulis_anticommute(la, lb))
                local[key] = local.get(key, 0.0) + wa * wb
        grown: tuple[StringTable, StringTable] = ({}, {})
        for parity, table in enumerate(tables):
            for s, w in table.items():
                for (label, flip), wl in local.items():
                    out, key = grown[parity ^ flip], s + (label,)
                    out[key] = out.get(key, 0.0) + w * wl
        tables = grown

    omega = qcore.KET_PLUS.density() if omega is None else omega
    sides = []
    for table in tables:
        total = sum(table.values())
        if total <= PROB_FLOOR:
            # degenerate branch: zero probability, identity channel placeholder
            sides.append((0.0, {("I",) * n: 1.0}))
        else:
            sides.append(
                (total, {s: w / total for s, w in sorted(table.items()) if w > 0.0})
            )
    (p_plus, plus_n), (p_minus, minus_n) = sides
    return SwitchedChannel(
        p_plus=p_plus,
        p_minus=p_minus,
        omega_plus=omega,
        plus_strings=plus_n,
        minus_strings=minus_n,
    )


def closed_form_two_party(
    e1: channels.PauliChannel,
    e2: channels.PauliChannel,
    omega: DensityMatrix | None = None,
) -> SwitchedChannel:
    """Switched-channel decomposition for the switch of e1 (x) e2 with itself."""
    return closed_form_product((e1, e2), (e1, e2), omega)


def closed_form_nxy_n(n: int) -> SwitchedChannel:
    """Switched channel for n parallel equal-X/Y mixtures against themselves,
    with the default |+> control.

    Every Z string on the n qubits appears with weight 2**-n; even-weight
    strings leave the control untouched (C_plus), odd-weight strings flip its
    coherence (C_minus). Both branch probabilities are 1/2.
    """
    return closed_form_product((channels.N_XY,) * n, (channels.N_XY,) * n)


def choi_deviation(sw: SwitchedChannel, a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry Choi difference between a closed form and the generic switch
    of two (m, d, d) Kraus stacks."""
    side = _register_side(a, b)
    if side != 2**sw.num_qubits:
        raise DimensionMismatchError(
            f"closed form on {sw.num_qubits} qubits, channels on dimension {side}"
        )
    kernel = _input_kernel(_lift_control(_switch_of(a, b), sw.omega_plus))
    return float(_closed_form_deviations([sw], kernel[None])[0])


@dataclass(frozen=True)
class ValidationRecord:
    kind: str
    n: int
    detail: str
    deviation: float


@dataclass(frozen=True)
class ClosedFormValidation:
    seed: int
    trials: int
    tolerance: float
    records: tuple[ValidationRecord, ...]
    max_deviation: float
    passed: bool


def validate_closed_forms(
    seed: int,
    trials: int,
    ns: Sequence[int] = (1, 2, 3),
    tolerance: float = ATOL,
) -> ClosedFormValidation:
    """Cross-validate the closed-form decompositions against the generic switch.

    For each requested receiver count n (capped at 3, where the generic
    construction stays cheap) this compares Choi matrices for the identity
    sanity case and the equal-X/Y mixture, runs ``trials`` random-input spot
    checks of the latter, and at n = 2 additionally draws ``trials`` random
    two-party Pauli channel pairs with random pure control states.

    Every generic kernel comes from ``_product_kernel`` and every closed
    kernel from ``_closed_kernels``. What does not depend on the seed is
    built and checked once per process, on the first call that asks for its
    n (``_nxy_fixture``). An empty ``ns``, any n in it outside 1..3, or a
    negative ``trials`` raises ValueError, and a ``trials`` or n that is not
    an integer raises TypeError, before any fixture is built or trial
    drawn. Trials run in blocks of ``_BLOCK``, so memory does not grow
    with ``trials``: a block's messages are drawn in turn and checked as one
    stack, pass through the equal-X/Y kernel as one matrix product and
    through ``SwitchedChannel.apply_stack``, and each side's outputs pass
    one ``qcore.check_states``. A two-party block draws every (e1, e2,
    omega) first and checks the control states as one stack. Its generic
    side is one ``_product_kernel`` pass, which checks every trial's
    single-qubit Kraus factor sets and each qubit's two switch-order sets
    complete; together these are the completeness of both Kraus sets and of
    the switch Kraus set. Its closed side runs ``closed_form_two_party``
    once per trial and one ``_closed_kernels`` call. The random draws come
    in the same order as one trial at a time.
    """
    trials = qcore.as_index(trials)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if len(ns) == 0:
        raise ValueError("ns names no receiver count to validate")
    ns = [qcore.as_index(n) for n in ns]
    for n in ns:
        if not 1 <= n <= 3:
            raise ValueError(f"generic validation supports n in 1..3, got {n}")
    rng = np.random.default_rng(seed)
    records: list[ValidationRecord] = []
    for n in ns:
        fixture = _nxy_fixture(n)
        records.extend(fixture.records)
        records.extend(
            ValidationRecord("nxy-input", n, f"trial {t}", dev)
            for t, dev in enumerate(_input_deviations(fixture, trials, rng))
        )
        if n == 2:
            records.extend(
                ValidationRecord("two-party", 2, f"trial {t}", dev)
                for t, dev in enumerate(_two_party_deviations(trials, rng))
            )
    max_dev = max(r.deviation for r in records)
    return ClosedFormValidation(
        seed=seed,
        trials=trials,
        tolerance=tolerance,
        records=tuple(records),
        max_deviation=max_dev,
        passed=max_dev < tolerance,
    )


class _NxyFixture(NamedTuple):
    """The seed-independent part of validating n equal-X/Y mixtures: the
    closed form, the ``identity`` and ``nxy-choi`` records and the read-only
    ``_product_kernel`` input kernel of the generic switch with the closed
    form's |+> control, which the ``nxy-input`` trials run through."""

    switched: SwitchedChannel
    records: tuple[ValidationRecord, ValidationRecord]
    kernel: np.ndarray


#: Every fixture built so far, by n: at most 3 keys.
_FIXTURES: dict[int, _NxyFixture] = {}


def _nxy_fixture(n: int) -> _NxyFixture:
    """The fixture at n, an int in 1..3 that ``validate_closed_forms`` has
    checked, built and checked on first use and kept for the process: the
    identity and equal-X/Y switches with the |+> control as one
    ``_product_kernel`` pass, each against its closed form."""
    if n not in _FIXTURES:
        products = [(channels.IDENTITY,) * n, (channels.N_XY,) * n]
        switched = [closed_form_product(product, product) for product in products]
        weights = np.array([[ch.weights for ch in product] for product in products])
        factors = np.sqrt(weights)[..., None, None] * _PAULIS  # (2, n, 4, 2, 2)
        controls = np.stack([sw.omega_plus.matrix for sw in switched])
        kernels = _product_kernel(factors, factors, controls)
        identity, nxy = _closed_form_deviations(switched, kernels).tolist()
        kernel = kernels[1].copy()
        kernel.setflags(write=False)
        records = (
            ValidationRecord("identity", n, "", identity),
            ValidationRecord("nxy-choi", n, "", nxy),
        )
        _FIXTURES[n] = _NxyFixture(switched[1], records, kernel)
    return _FIXTURES[n]


def _blocks(trials: int):
    """The trial count of each block of at most ``_BLOCK`` trials."""
    for start in range(0, trials, _BLOCK):
        yield min(_BLOCK, trials - start)


def _input_deviations(fixture: _NxyFixture, trials: int, rng):
    """Max-entry output difference between the closed form and the generic
    switch on each of ``trials`` random messages, a block at a time."""
    sw = fixture.switched
    dims = (2,) * sw.num_qubits
    for count in _blocks(trials):
        rhos = qcore.random_density_stack(dims, rng, count)
        qcore.check_states(rhos)
        generic = _switch_outputs(fixture.kernel, rhos)
        closed = sw.apply_stack(rhos)
        qcore.check_states(generic)
        qcore.check_states(closed)
        yield from np.abs(closed - generic).reshape(count, -1).max(axis=1).tolist()


def _two_party_deviations(trials: int, rng):
    """Choi deviation of the closed form for each of ``trials`` random
    two-party Pauli channel pairs with random pure controls, a block at a
    time: a block draws every (e1, e2, omega) first and checks the control
    states as one stack. The generic side is ``_product_kernel`` on the
    block's factor sets sqrt(w_l) sigma_l (zero weights give zero
    operators), the closed side ``_closed_kernels`` on the block's closed
    forms."""
    for count in _blocks(trials):
        draws = [
            (
                channels.random_pauli_channel(rng),
                channels.random_pauli_channel(rng),
                qcore.random_ket((2,), rng).amplitudes,
            )
            for _ in range(count)
        ]
        kets = np.stack([ket for _, _, ket in draws])
        controls = kets[:, :, None] * kets[:, None, :].conj()
        omegas = DensityMatrix.from_stack(controls, (2,))
        weights = np.array([(e1.weights, e2.weights) for e1, e2, _ in draws])
        factors = np.sqrt(weights)[..., None, None] * _PAULIS  # (T, 2, 4, 2, 2)
        generic = _product_kernel(factors, factors, controls)
        switched = [
            closed_form_two_party(e1, e2, omega) for (e1, e2, _), omega in zip(draws, omegas)
        ]
        yield from _closed_form_deviations(switched, generic).tolist()
