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
``_closed_weights`` builds it for T pairs of products at once, one qubit at
a time: per qubit the 16 Pauli pairs' weights are summed into slots
(product label, anticommutes) (``_PAIR_SLOTS``), and the slots are combined
across qubits by a parity-tracked convolution over arrays of the 4^n
strings, indexed by code (``_strings``: a string's labels read as base-4
digits, so codes run in lexicographic order). ``closed_form_product`` is
its one-pair case, and ``closed_form_two_party`` (a two-qubit product
switched with itself) and ``closed_form_nxy_n`` (n equal-X/Y mixtures,
whose branches are the even- and odd-weight Z strings) are special cases of
that. A closed form is evaluated only from its string weights, each string
a flip pattern and a sign vector read by code:
``SwitchedChannel.apply_stack`` applies them as summed masks and index
permutations, and ``_closed_kernels`` sums them into input kernels.

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
import math
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
_LABEL_ORDER = np.array(channels.PAULI_LABELS)  # sorted, so searchsorted finds a label


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
    a, b = first[:, :, :, None], second[:, :, None]  # (T, n, i, j, row, column)
    orders = np.stack([_products(a, b), _products(b, a)], axis=2).reshape(
        count, n, 2, -1, 2, 2
    )  # (T, n, c, pair, row, column)
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


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The 2 x 2 matrix products of two broadcast stacks, entry by entry:
    (LR)_rc = L_r0 R_0c + L_r1 R_1c."""
    return left[..., :1] * right[..., :1, :] + left[..., 1:] * right[..., 1:, :]


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
        tables = (self.plus_strings, self.minus_strings)
        weights = np.zeros((1, 2, max(map(len, tables))))
        for row, table in zip(weights[0], tables):
            row[: len(table)] = np.fromiter(table.values(), float, len(table))
        _check_branches(np.array([[self.p_plus, self.p_minus]], dtype=float), weights)
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
        by flip pattern (read by code from ``_strings``): per flip pattern u
        that occurs, the index permutation i -> i ^ u and one summed mask
        sum_s w_s c_s c_s^T, its strings added in table order, so that the
        group applies as (mask * rho) permuted on rows and columns."""
        n = self.num_qubits
        strings = _strings(n)
        out = []
        for prob, table, omega in self._branches:
            codes = _codes(table, n)
            masks: dict[int, np.ndarray] = {}
            for flip, sign, w in zip(
                strings.flips[codes].tolist(),
                strings.signs[strings.zmasks[codes]],
                table.values(),
            ):
                masks[flip] = masks.get(flip, 0.0) + w * np.outer(sign, sign)
            index = np.arange(len(strings.grid))
            groups = tuple((index ^ flip, mask) for flip, mask in masks.items())
            for array in (a for group in groups for a in group):
                array.setflags(write=False)  # every later apply reads them
            out.append((prob, groups, omega))
        return tuple(out)


def _check_branches(probs: np.ndarray, weights: np.ndarray) -> None:
    """Raise unless each of T closed forms, given by its (T, 2) branch
    probabilities (p_plus, p_minus) and the (T, 2, s) string weights of
    C_plus and C_minus (zero where a string is absent), has probabilities
    that sum to 1 within ``ATOL``, none below -``ATOL``, and string weights
    that form a distribution each: a Pauli-string channel is complete iff
    they do. The error is that of the first failing closed form, its first
    failing check in this order. Every check is written so that NaN fails
    it."""
    negative = ~(probs >= -ATOL).all(axis=1)
    sums = probs[:, 0] + probs[:, 1]
    unsummed = ~(np.abs(sums - 1.0) <= ATOL)
    incomplete = ~((weights >= 0.0).all(axis=2) & (np.abs(weights.sum(axis=2) - 1.0) <= ATOL))
    failed = negative | unsummed | incomplete.any(axis=1)
    if failed.any():
        t = int(np.argmax(failed))
        if negative[t]:
            raise ValidityError("negative branch probability")
        if unsummed[t]:
            raise ValidityError(f"branch probabilities sum to {float(sums[t])}, not 1")
        name = ("C_plus", "C_minus")[int(np.argmax(incomplete[t]))]
        raise CompletenessError(f"{name} weights are not a distribution")


class _Strings(NamedTuple):
    """The 4**n Pauli strings on n qubits, by code: a string's code is its
    labels read as base-4 digits in ``channels.PAULI_LABELS`` order, qubit 0
    the most significant, so codes run in the lexicographic order of the
    label tuples (``_codes``, ``_labels``).

    A Pauli string is, up to a global phase, X^u D with u its flip pattern
    (the qubits carrying X or Y, qubit 0 the most significant bit) and D
    diagonal with entries c_i = (-1)^popcount(i & z), z its z pattern (the
    qubits carrying Z or Y; a Y is X Z up to its phase). So sigma rho
    sigma^dag is (c c^T * rho) with rows and columns permuted by i -> i ^ u.
    """

    flips: np.ndarray  # (4**n,) the flip pattern u of each code
    zmasks: np.ndarray  # (4**n,) the z pattern z of each code
    signs: np.ndarray  # (2**n, 2**n) the sign vector c of each z pattern
    grid: np.ndarray  # (2**n, 2**n) the code of each (flip pattern, z pattern)


@functools.cache
def _strings(n: int) -> _Strings:
    """The string tables on n qubits, built on first use and kept for the
    process, their arrays read-only: at n = 6 four arrays of 4096 entries."""
    digits = _digits(np.arange(4**n), n)
    bits = 1 << np.arange(n - 1, -1, -1)
    flips = ((digits == 1) | (digits == 2)) @ bits
    zmasks = ((digits == 2) | (digits == 3)) @ bits
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)  # popcount(i) mod 2
    for bit in range(n):
        parity ^= (index >> bit) & 1
    signs = 1.0 - 2.0 * parity[index[:, None] & index]
    grid = np.argsort(flips * 2**n + zmasks).reshape(2**n, 2**n)
    for array in (flips, zmasks, signs, grid):
        array.setflags(write=False)
    return _Strings(flips, zmasks, signs, grid)


def _digits(codes: np.ndarray, n: int) -> np.ndarray:
    """The (s, n) base-4 digits of s codes, qubit 0 first."""
    return (codes[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3


def _codes(keys, n: int) -> np.ndarray:
    """The codes of Pauli strings on n qubits given as label tuples."""
    digits = np.searchsorted(_LABEL_ORDER, np.array(list(keys)).reshape(-1, n))
    return digits @ 4 ** np.arange(n - 1, -1, -1)


def _labels(codes: np.ndarray, n: int) -> list[tuple[str, ...]]:
    """The label tuples of codes on n qubits."""
    return list(map(tuple, _LABEL_ORDER[_digits(codes, n)].tolist()))


# the product of each Pauli pair (a, b), at index 4 a + b, as a slot
# 2 c + f: sigma_a sigma_b is sigma_c up to a phase, and f = 1 iff the two
# anticommute
_PAIR_SLOTS = np.array(
    [
        2 * channels.pauli_product(a, b)[1] + channels.paulis_anticommute(a, b)
        for a in range(4)
        for b in range(4)
    ]
)
_PAIR_SLOTS.setflags(write=False)

# a sort key above every key of a string of ``_closed_weights`` (< 2**30)
_ABSENT = 1 << 40


def _closed_weights(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed forms of the switch of T pairs of n-qubit Pauli-channel
    products, from their (T, n, 4) weights (w_I, w_X, w_Y, w_Z) per qubit:
    the (T, 2) branch probabilities (p_plus, p_minus) and the (T, 2, 4**n)
    normalized string weights of C_plus and C_minus by code (``_strings``).

    On each qubit the 16 pairs (sigma_a, sigma_b) with weights w_a w_b are
    summed in pair order into slots (label of sigma_a sigma_b, anticommutes)
    (``_PAIR_SLOTS``); the qubits are then combined keeping the parity of
    anticommuting factors: a string s + (c,) of parity P takes the weight of
    s at parity 0 times slot (c, P) plus that of s at parity 1 times slot
    (c, 1 - P). Odd-parity strings flip the control coherence (C_minus).

    Each branch's probability is its strings' total, summed one at a time in
    the order of a dict convolution that inserts each string at its first
    contribution: (parent parity, parent order, first pair of its slot with
    both weights nonzero). Every weight and total is the float a dict build
    in that order gives, on any Python version. A branch of total at most
    ``PROB_FLOOR`` gets probability 0 and the identity string's weight 1.
    Nothing is checked here (``_check_branches``).
    """
    count, n = first.shape[:2]
    pairs = (first[..., :, None] * second[..., None, :]).reshape(count, n, 16)
    member = _PAIR_SLOTS[:, None] == np.arange(8)  # (pair, slot)
    # per qubit and slot (f, c): the summed pair weights, and the index of
    # its first pair with both weights nonzero (16 if none)
    local = np.cumsum(pairs[..., None] * member, axis=2)[:, :, -1]
    local = local.reshape(count, n, 4, 2).swapaxes(-1, -2)
    support = ((first != 0.0)[..., :, None] & (second != 0.0)[..., None, :]).reshape(count, n, 16)
    ranks = np.where(support[..., None] & member, np.arange(16)[:, None], 16).min(axis=2)
    ranks = ranks.reshape(count, n, 4, 2).swapaxes(-1, -2)
    # by parity and string code: the weights so far and each string's sort key
    weights = np.zeros((count, 2, 1))
    weights[:, 0] = 1.0
    keys = np.full((count, 2, 1), _ABSENT)
    keys[:, 0] = 0
    for q in range(n):
        slots, first_pairs = local[:, q, :, None], ranks[:, q, :, None]  # (T, P, 1, c)
        weights = (
            weights[:, :1, :, None] * slots + weights[:, 1:, :, None] * slots[:, ::-1]
        ).reshape(count, 2, -1)
        # keys of level q are below 2**(5 q); parity-0 parents come first
        parents, flipped = keys[:, :1, :, None], keys[:, 1:, :, None]
        from_even = np.where(
            (parents < _ABSENT) & (first_pairs < 16), 16 * parents + first_pairs, _ABSENT
        )
        from_odd = np.where(
            (flipped < _ABSENT) & (first_pairs[:, ::-1] < 16),
            (1 << (5 * q + 4)) + 16 * flipped + first_pairs[:, ::-1],
            _ABSENT,
        )
        keys = np.minimum(from_even, from_odd).reshape(count, 2, -1)
    ordered = np.take_along_axis(weights, np.argsort(keys, axis=-1), axis=-1)
    totals = np.cumsum(ordered, axis=-1)[..., -1]  # one at a time, never pairwise
    degenerate = totals <= PROB_FLOOR
    normalized = np.where(
        degenerate[..., None],
        np.eye(1, 4**n)[0],
        weights / np.where(degenerate, 1.0, totals)[..., None],
    )
    return np.where(degenerate, 0.0, totals), normalized


def _switched_channel(probs: np.ndarray, weights: np.ndarray, omega: DensityMatrix):
    """The ``SwitchedChannel`` of one closed form of ``_closed_weights``:
    each table holds the strings of positive weight, in code order."""
    n = weights.shape[-1].bit_length() // 2
    tables = []
    for row in weights:
        codes = np.flatnonzero(row > 0.0)
        tables.append(dict(zip(_labels(codes, n), row[codes].tolist())))
    return SwitchedChannel(float(probs[0]), float(probs[1]), omega, *tables)


# omega -> Z omega Z, elementwise
_Z_CONJUGATION = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _branch_controls(omegas: np.ndarray) -> np.ndarray:
    """The (T, 2, 2, 2) branch controls (omega, Z omega Z) of (T, 2, 2)
    controls."""
    return np.stack([omegas, omegas * _Z_CONJUGATION], axis=1)


def _kernel_weights(sw: SwitchedChannel) -> np.ndarray:
    """The (2, 4**n) branch-weighted string weights p w_s by code of a
    closed form, as ``_closed_kernels`` takes them: zero for a branch of
    probability that is not positive."""
    n = sw.num_qubits
    weights = np.zeros((2, 4**n))
    for row, (prob, table) in zip(
        weights, ((sw.p_plus, sw.plus_strings), (sw.p_minus, sw.minus_strings))
    ):
        if prob > 0.0:
            row[_codes(table, n)] = [prob * w for w in table.values()]
    return weights


def _closed_kernels(weights: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """The ``_input_kernel`` of each of T closed forms on the same n qubits,
    (T, d^2, (2d)^2), from their (T, 2, 4**n) branch-weighted string
    weights p w_s by code and their (T, 2, 2, 2) branch controls.

    A string with flip pattern u, signs c and weight p w, in a branch with
    control omega, takes rho_ij to p w c_i c_j omega_cc' at output row
    (i ^ u, c) and column (j ^ u, c'). The strings of a branch are summed
    into one mask per u, one z pattern at a time, which is code order; both
    branches are summed into one block per u, which fills its own kernel
    entries. No completeness check is made: a closed form is trace
    preserving once its probabilities and weights are checked
    (``_check_branches``), and its control is a checked state.
    """
    count = len(weights)
    strings = _strings(weights.shape[-1].bit_length() // 2)
    size = len(strings.grid)
    by_flip = weights[..., strings.grid]  # (t, branch, u, z)
    masks = np.zeros((count, 2, size, size, size))  # (t, branch, u, i, j)
    for z, sign in enumerate(strings.signs):
        masks += by_flip[..., z, None, None] * (sign[:, None] * sign)
    masks = masks[..., None, None]
    summed = (masks * controls[:, :, None, None, None]).sum(axis=1)  # (t, u, i, j, c, c')
    index = range(size)
    u, i, j, c, c2 = np.ix_(index, index, index, range(2), range(2))
    rows = size * i + j
    cols = (2 * (i ^ u) + c) * 2 * size + 2 * (j ^ u) + c2
    kernels = np.zeros((count, size**2, 4 * size**2), dtype=complex)
    kernels[:, rows, cols] = summed
    return kernels


def _closed_form_deviations(weights: np.ndarray, controls: np.ndarray, kernels: np.ndarray):
    """Max-entry unit-trace Choi difference between each of T closed forms on
    n qubits, as ``_closed_kernels`` takes them, and the map whose
    ``_input_kernel`` is the matching one of the (T, d^2, (2d)^2)
    ``kernels``: their max-entry difference divided by d."""
    closed = _closed_kernels(weights, controls)
    deviations = np.abs(kernels - closed).reshape(len(closed), -1).max(axis=1)
    return deviations / math.isqrt(kernels.shape[1])


def closed_form_product(
    first: Sequence[channels.PauliChannel],
    second: Sequence[channels.PauliChannel],
    omega: DensityMatrix | None = None,
) -> SwitchedChannel:
    """Switched-channel decomposition for the switch of two n-qubit products
    of Pauli channels, ``first`` on qubits 1..n against ``second``: the
    one-pair case of ``_closed_weights``, with the |+> control by default.
    """
    n = len(first)
    if len(second) != n:
        raise ValueError(f"channel products on {n} and {len(second)} qubits")
    if not 1 <= n <= MAX_RECEIVERS:
        raise ValueError(f"receiver count {n} outside 1..{MAX_RECEIVERS}")
    weights = np.array([[ch.weights for ch in first], [ch.weights for ch in second]], dtype=float)
    probs, strings = _closed_weights(weights[:1], weights[1:])
    omega = qcore.KET_PLUS.density() if omega is None else omega
    return _switched_channel(probs[0], strings[0], omega)


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
    controls = _branch_controls(sw.omega_plus.matrix[None])
    return float(_closed_form_deviations(_kernel_weights(sw)[None], controls, kernel[None])[0])


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
    n (``_nxy_fixture``). An empty ``ns``, any n in it outside 1..3, a
    negative ``trials`` or a negative seed raises ValueError, and a seed,
    ``trials`` or n that is not an integer (a bool included) raises
    TypeError, before any fixture is built or trial drawn. Trials run in
    blocks of ``_BLOCK``, so memory does not grow with ``trials``: a
    block's messages are drawn in turn and checked as one stack, pass
    through the equal-X/Y kernel as one matrix product and through
    ``SwitchedChannel.apply_stack``, and each side's outputs pass one
    ``qcore.check_states``. A two-party block draws the Pauli weights of
    every (e1, e2) and the amplitudes of every pure control as plain floats,
    in the order of ``channels.random_pauli_channel`` and
    ``qcore.random_ket`` called in turn, and checks them once as arrays
    under the ``PauliChannel`` and ``Ket`` rules and the controls as one
    stack of states. Its generic side is one ``_product_kernel`` pass, which
    checks every trial's single-qubit Kraus factor sets and each qubit's two
    switch-order sets complete; together these are the completeness of both
    Kraus sets and of the switch Kraus set. Its closed side is one
    ``_closed_weights`` call for the whole block, whose probabilities and
    weights pass one ``_check_branches``, and one ``_closed_kernels`` call.
    """
    seed = qcore.as_index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
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
    ``_closed_weights`` call and one ``_product_kernel`` pass, each against
    its closed form."""
    if n not in _FIXTURES:
        weights = np.array([[ch.weights] * n for ch in (channels.IDENTITY, channels.N_XY)])
        probs, strings = _closed_weights(weights, weights)
        _check_branches(probs, strings)
        plus = qcore.KET_PLUS.density()
        controls = np.stack([plus.matrix] * 2)
        factors = np.sqrt(weights)[..., None, None] * _PAULIS  # (2, n, 4, 2, 2)
        kernels = _product_kernel(factors, factors, controls)
        identity, nxy = _closed_form_deviations(
            probs[..., None] * strings, _branch_controls(controls), kernels
        ).tolist()
        kernel = kernels[1].copy()
        kernel.setflags(write=False)
        records = (
            ValidationRecord("identity", n, "", identity),
            ValidationRecord("nxy-choi", n, "", nxy),
        )
        _FIXTURES[n] = _NxyFixture(_switched_channel(probs[1], strings[1], plus), records, kernel)
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


def _two_party_draws(count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The (count, 2, 4) Pauli weights of (e1, e2) and the (count, 2)
    amplitudes of the pure control of ``count`` two-party trials, unchecked.
    Each trial takes from ``rng`` what ``channels.random_pauli_channel``
    twice and then ``qcore.random_ket((2,), rng)`` take, so every float is
    the one those calls make and the generator ends in the same state."""
    uniforms, normals = [], []
    for _ in range(count):
        uniforms.append(rng.uniform(size=6))  # three cuts per channel
        normals.append(rng.normal(size=4))  # real parts, then imaginary parts
    cuts = np.sort(np.reshape(uniforms, (count, 2, 3)), axis=-1)
    weights = np.diff(cuts, prepend=0.0, append=1.0)
    vecs = np.reshape(normals, (count, 2, 2))
    vecs = vecs[:, 0] + 1j * vecs[:, 1]
    # one norm per vector, as random_ket takes it (a batched norm may round
    # differently)
    norms = np.array([np.linalg.norm(vec) for vec in vecs])
    return weights, vecs / norms[:, None]


def _two_party_deviations(trials: int, rng):
    """Choi deviation of the closed form for each of ``trials`` random
    two-party Pauli channel pairs with random pure controls, a block at a
    time (``_two_party_draws``). The generic side is ``_product_kernel`` on
    the block's factor sets sqrt(w_l) sigma_l (zero weights give zero
    operators), the closed side ``_closed_weights`` and ``_closed_kernels``
    on the block's weights and controls."""
    for count in _blocks(trials):
        weights, kets = _two_party_draws(count, rng)
        channels.check_pauli_weights(weights)
        qcore.check_kets(kets)
        controls = kets[:, :, None] * kets[:, None, :].conj()
        qcore.check_states(controls)
        factors = np.sqrt(weights)[..., None, None] * _PAULIS  # (T, 2, 4, 2, 2)
        generic = _product_kernel(factors, factors, controls)
        probs, strings = _closed_weights(weights, weights)
        _check_branches(probs, strings)
        yield from _closed_form_deviations(
            probs[..., None] * strings, _branch_controls(controls), generic
        ).tolist()
