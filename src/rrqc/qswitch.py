"""Quantum SWITCH of two channels with a qubit order control.

``switch_generic`` applies the standard Kraus construction for arbitrary
channel pairs: with Kraus sets {A_j} and {B_k}, the switched channel acts on
message (x) control, the control last, through the operators

    A_j B_k (x) |0><0|  +  B_k A_j (x) |1><1|,

built from two (m, d, d) stacks as one (m, 2d, 2d) stack, checked complete
once. With the control absorbed (``_lift_control``), its operators K form
the input kernel R = sum_K K (x) conj(K), which takes a (T, d, d) stack of
messages to their outputs in one matrix product.

When both channels are products of single-qubit Pauli channels, one rule
gives the switched channel exactly. On each qubit sigma_a sigma_b =
+-sigma_b sigma_a, with the minus sign when the two Paulis anticommute, so
A_j B_k is a Pauli string whose order reversal flips its sign when an odd
number of qubits anticommute. Grouping the pairs by that parity gives

    p_plus * C_plus(rho) (x) omega  +  p_minus * C_minus(rho) (x) Z omega Z,

two normalized Pauli-string channels, which ``_closed_weights`` builds for
T pairs of products at once over arrays of the 4^n strings by code
(``_strings``: labels read as base-4 digits, in lexicographic order). A
``SwitchedChannel`` holds one closed form as those arrays: its two branch
probabilities and a (2, 4^n) array of string weights by code, from which
``plus_strings`` and ``minus_strings`` derive the label tables.
``closed_form_product`` is the one-pair case, ``closed_form_two_party`` and
``closed_form_nxy_n`` (built once per n, and the one object both the switch
protocol and ``validate_closed_forms`` use) its special cases, and
``SwitchedChannel.apply_stack`` applies a closed form from its string weights
as sign masks and permutations.

``validate_closed_forms`` and ``choi_deviation`` check the closed forms
against the generic switch in the Pauli-transfer basis, at every n in
1..``MAX_RECEIVERS``. A closed form takes a Pauli string sigma_t of the
message to sigma_t (x) Gamma(t), with the 2 x 2 coefficient

    Gamma(t) = p_plus lambda_plus(t) omega + p_minus lambda_minus(t) Z omega Z,

lambda(t) = sum_s w_s (-1)^[sigma_s, sigma_t anticommute] being the Pauli
eigenvalue of a branch (``_closed_transfer``). The generic side uses none of
that algebra: for A = (x)_q a_q and B = (x)_q b_q, block (c, c') of the
switch is omega_cc' times the tensor product over the qubits of the maps
x -> sum_ij M^c_ij x (M^c'_ij)^dag, M^0_ij = a_i b_j and M^1_ij = b_j a_i
(``_product_maps``, from the 2 x 2 factors), whose 4 x 4 Pauli-transfer
matrices give the generic Gamma(t) by the products of their diagonals.

The deviation is max |Delta Gamma| / d, d = 2^n, plus the largest
off-diagonal transfer coefficient of the generic map (zero for Pauli
factors; on the product route, a bound from the per-qubit matrices). It is
an upper bound on the max-entry difference of the unit-trace Choi matrices:
a Choi entry is <a| Phi(|i><j|) |b> / d, and |i><j| is 1/d times d Pauli
strings with unit-modulus coefficients, so the diagonal coefficients move an
entry by at most max |Delta Gamma| / d and the off-diagonal ones by at most
the largest of them. The product route forms no d^2 x (2d)^2 kernel;
``choi_deviation`` runs the dense switch stack on all 4^n strings through
its input kernel.
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

# trials per stacked pass of ``validate_closed_forms``
_BLOCK = 16

# I, X, Y, Z stacked, in ``channels.PAULI_LABELS`` order
_PAULIS = np.stack([op.entries for op in (qcore.I2, qcore.X, qcore.Y, qcore.Z)])
_PAULIS.setflags(write=False)
_LABEL_ORDER = np.array(channels.PAULI_LABELS)  # label of each base-4 digit


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


def _product_maps(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The per-qubit block maps of the switch of two n-qubit product
    channels, for T trials at once, from their (T, n, k, 2, 2) per-qubit
    Kraus factor sets (the two k may differ): (T, n, c, c', (m, m'), (i, j)),
    the 4 x 4 matrix of x -> sum_ij M^c_ij x (M^c'_ij)^dag, M^0_ij = a_i b_j
    and M^1_ij = b_j a_i, on row-major flattened x, read off one Gram product
    per qubit. It uses no Pauli algebra. Every factor set and each qubit's
    M^0 and M^1 sets are checked complete, which together is the
    completeness of the product sets and of the switch Kraus set."""
    count, n = first.shape[:2]
    qcore.check_complete(first, "first Kraus factor set")
    qcore.check_complete(second, "second Kraus factor set")
    a, b = first[:, :, :, None], second[:, :, None]  # (T, n, i, j, row, column)
    orders = np.stack([_products(a, b), _products(b, a)], axis=2).reshape(
        count, n, 2, -1, 2, 2
    )  # (T, n, c, pair, row, column)
    qcore.check_complete(orders, "switch Kraus factor set")
    flat = orders.transpose(0, 1, 3, 2, 4, 5).reshape(count, n, -1, 8)
    gram = flat.swapaxes(-1, -2) @ flat.conj()  # ((c, m, i), (c', m', j)) per qubit
    maps = gram.reshape((count, n) + (2,) * 6).transpose(0, 1, 2, 5, 3, 6, 4, 7)
    return maps.reshape(count, n, 2, 2, 4, 4)


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
    where omega_minus = Z omega_plus Z and C_plus/C_minus are the normalized
    Pauli-string channels whose string weights are the rows of ``weights``:
    a (2, 4**n) array by code (``_strings``), kept as a read-only copy.
    """

    p_plus: float
    p_minus: float
    omega_plus: DensityMatrix
    weights: np.ndarray

    def __post_init__(self):
        if self.omega_plus.dims != (2,):
            raise DimensionMismatchError("the order control must be a qubit")
        # a copy; complex or non-numeric weights raise TypeError
        weights = np.asarray(self.weights).astype(float, casting="same_kind")
        if weights.shape not in [(2, 4**n) for n in range(1, MAX_RECEIVERS + 1)]:
            raise DimensionMismatchError(
                f"string weights of shape {weights.shape}, not (2, 4**n) with n in"
                f" 1..{MAX_RECEIVERS}"
            )
        _check_branches(np.array([[self.p_plus, self.p_minus]], dtype=float), weights[None])
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def plus_strings(self) -> dict[tuple[str, ...], float]:
        """The strings of C_plus of positive weight, by label tuple, in code
        order."""
        return self._table(0)

    @property
    def minus_strings(self) -> dict[tuple[str, ...], float]:
        """The strings of C_minus of positive weight, by label tuple, in code
        order."""
        return self._table(1)

    def _table(self, branch: int) -> dict[tuple[str, ...], float]:
        row = self.weights[branch]
        codes = np.flatnonzero(row > 0.0)
        return dict(zip(_labels(codes, self.num_qubits), row[codes].tolist()))

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
        return self.weights.shape[1].bit_length() // 2

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

    @functools.cached_property
    def _flip_groups(self):
        """Each branch of positive probability with its strings of positive
        weight grouped by flip pattern (``_strings``): per flip pattern u
        that occurs, the index permutation i -> i ^ u and one summed mask
        sum_s w_s c_s c_s^T, its strings added in code order, so that the
        group applies as (mask * rho) permuted on rows and columns."""
        n = self.num_qubits
        strings = _strings(n)
        out = []
        for prob, row, omega in zip(
            (self.p_plus, self.p_minus), self.weights, (self.omega_plus, self.omega_minus)
        ):
            if prob <= 0.0:
                continue
            codes = np.flatnonzero(row > 0.0)
            masks: dict[int, np.ndarray] = {}
            for flip, sign, w in zip(
                strings.flips[codes].tolist(),
                strings.signs[strings.zmasks[codes]],
                row[codes].tolist(),
            ):
                masks[flip] = masks.get(flip, 0.0) + w * np.outer(sign, sign)
            index = np.arange(2**n)
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
    label tuples (``_labels``).

    A Pauli string is, up to a global phase, X^u D with u its flip pattern
    (the qubits carrying X or Y, qubit 0 the most significant bit) and D
    diagonal with entries c_i = (-1)^popcount(i & z), z its z pattern (the
    qubits carrying Z or Y; a Y is X Z up to its phase). So sigma rho
    sigma^dag is (c c^T * rho) with rows and columns permuted by i -> i ^ u.
    """

    flips: np.ndarray  # (4**n,) the flip pattern u of each code
    zmasks: np.ndarray  # (4**n,) the z pattern z of each code
    signs: np.ndarray  # (2**n, 2**n) the sign vector c of each z pattern


@functools.cache
def _strings(n: int) -> _Strings:
    """The string arrays on n qubits, built on first use and kept for the
    process, their arrays read-only: at n = 6 three arrays of 4096 entries."""
    digits = _digits(np.arange(4**n), n)
    bits = 1 << np.arange(n - 1, -1, -1)
    flips = ((digits == 1) | (digits == 2)) @ bits
    zmasks = ((digits == 2) | (digits == 3)) @ bits
    index = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)  # popcount(i) mod 2
    for bit in range(n):
        parity ^= (index >> bit) & 1
    signs = 1.0 - 2.0 * parity[index[:, None] & index]
    for array in (flips, zmasks, signs):
        array.setflags(write=False)
    return _Strings(flips, zmasks, signs)


def _digits(codes: np.ndarray, n: int) -> np.ndarray:
    """The (s, n) base-4 digits of s codes, qubit 0 first."""
    return (codes[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3


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

# +1 where two Paulis commute and -1 where they anticommute, indexed (a, b)
_COMMUTATION = 1.0 - 2.0 * (_PAIR_SLOTS & 1).reshape(4, 4)
_COMMUTATION.setflags(write=False)


def _string_weights(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The (T, 2, 4**n) unnormalized string weights by parity and code of
    the switch of T pairs of n-qubit Pauli-channel products, from their
    (T, n, 4) weights (w_I, w_X, w_Y, w_Z) per qubit. On each qubit the 16
    pairs (sigma_a, sigma_b), weighted w_a w_b, are summed into slots (label
    of sigma_a sigma_b, anticommutes) (``_PAIR_SLOTS``); across qubits, a
    string s + (c,) of parity P takes the weight of s at parity 0 times slot
    (c, P) plus that of s at parity 1 times slot (c, 1 - P). Odd parity is
    C_minus. Every slot and weight sums at most two terms, so none depends
    on the order of summation."""
    count, n = first.shape[:2]
    pairs = (first[..., :, None] * second[..., None, :]).reshape(count, n, 16)
    members = (_PAIR_SLOTS[:, None] == np.arange(8)).astype(float)  # (pair, slot)
    local = (pairs @ members).reshape(count, n, 4, 2).swapaxes(-1, -2)  # (T, n, f, c)
    weights = np.zeros((count, 2, 1))
    weights[:, 0] = 1.0
    for q in range(n):
        slots = local[:, q, :, None]  # (T, P, 1, c)
        weights = (
            weights[:, :1, :, None] * slots + weights[:, 1:, :, None] * slots[:, ::-1]
        ).reshape(count, 2, -1)
    return weights


def _closed_weights(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed forms of the switch of T pairs of n-qubit Pauli-channel
    products, from their (T, n, 4) weights per qubit: the (T, 2) branch
    probabilities (p_plus, p_minus), each the total of its
    ``_string_weights``, and the (T, 2, 4**n) normalized string weights of
    C_plus and C_minus by code (``_strings``). A branch of total at most
    ``PROB_FLOOR`` gets probability 0 and the identity string's weight 1.
    Nothing is checked here (``_check_branches``).
    """
    weights = _string_weights(first, second)
    totals = weights.sum(-1)
    degenerate = totals <= PROB_FLOOR
    normalized = np.where(
        degenerate[..., None],
        np.eye(1, weights.shape[-1])[0],
        weights / np.where(degenerate, 1.0, totals)[..., None],
    )
    return np.where(degenerate, 0.0, totals), normalized


def _per_qubit(values: np.ndarray, matrices) -> np.ndarray:
    """``values`` (..., 4**n), whose last axis holds n base-4 digits, qubit 0
    the most significant, with ``matrices[q]`` (broadcast against the
    leading axes, (..., 4, 4)) applied to digit q for every q. Each step is
    one matrix product that takes the leading digit and puts the result
    last, so after n steps the digits are back in order."""
    for matrix in matrices:
        values = values.reshape(values.shape[:-1] + (4, -1)).swapaxes(-1, -2)
        values = values @ matrix.swapaxes(-1, -2)
        values = values.reshape(values.shape[:-2] + (-1,))
    return values


def _closed_transfer(weighted: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The (T, 2, 2, 4**n) Pauli-transfer coefficients Gamma(t)_cc' =
    p_plus lambda_plus(t) omega_cc' + p_minus lambda_minus(t) (Z omega Z)_cc'
    of T closed forms, from their (T, 2, 4**n) branch-weighted string
    weights p w_s by code and their (T, 2, 2) controls. Conjugating by Z
    flips the sign of the off-diagonal entries of omega."""
    n = weighted.shape[-1].bit_length() // 2
    plus, minus = np.moveaxis(_per_qubit(weighted, [_COMMUTATION] * n), 1, 0)
    same, flipped = plus + minus, plus - minus
    return omegas[..., None] * np.moveaxis(np.array([[same, flipped], [flipped, same]]), 2, 0)


def _transfer_deviations(
    maps: np.ndarray, omegas: np.ndarray, probs: np.ndarray, strings: np.ndarray
) -> np.ndarray:
    """The deviation of T closed forms, given by their (T, 2) probabilities
    and (T, 2, 4**n) string weights, from the generic switch given by its
    ``_product_maps``, under (T, 2, 2) controls: max |Delta Gamma| / d plus
    a bound on the generic off-diagonal coefficients, |omega_cc'| times one
    qubit's largest off-diagonal transfer entry times the other qubits'
    largest entries."""
    count, n = maps.shape[:2]
    rows = _PAULIS.reshape(4, 4)  # row s is sigma_s flattened
    transfer = rows.conj() @ maps @ rows.T / 2  # (T, n, c, c', s, t)
    diagonal = np.diagonal(transfer, axis1=-2, axis2=-1)  # (T, n, c, c', t)
    largest = np.abs(transfer).max(axis=(-2, -1))
    residues = np.abs(transfer - diagonal[..., None] * np.eye(4)).max(axis=(-2, -1))
    bound = np.zeros((count, 2, 2))
    for q in range(n):
        bound = np.maximum(bound, residues[:, q] * np.delete(largest, q, axis=1).prod(axis=1))
    generic = diagonal[:, 0]
    for q in range(1, n):
        generic = (generic[..., :, None] * diagonal[:, q, ..., None, :]).reshape(count, 2, 2, -1)
    closed = _closed_transfer(probs[..., None] * strings, omegas)
    gaps = np.abs(omegas[..., None] * generic - closed).max(axis=(1, 2, 3))
    return gaps / 2**n + (np.abs(omegas) * bound).max(axis=(1, 2))


def _map_outputs(maps: np.ndarray, omega: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The outputs, Hermitian-symmetrized and not validated, on a (T, d, d)
    stack of messages of the switch with (n, 2, 2, 4, 4) ``_product_maps``
    and the 2 x 2 control ``omega``: with each qubit's (row, column) pair as
    one base-4 digit, each qubit is one matrix product (``_per_qubit``)."""
    count, n = len(rhos), len(maps)
    digits = [0] + [axis for q in range(n) for axis in (1 + q, 1 + n + q)]
    values = rhos.reshape((count,) + (2,) * 2 * n).transpose(digits).reshape(1, count, -1)
    maps = np.concatenate([maps[:1] * omega[..., None, None], maps[1:]]).reshape(n, 4, 1, 4, 4)
    blocks = _per_qubit(values, maps).reshape((2, 2, count) + (2,) * 2 * n)
    # (c, c', T, (m_q, m'_q) per qubit) -> (T, (m, c), (m', c'))
    order = [2, *range(3, 3 + 2 * n, 2), 0, *range(4, 4 + 2 * n, 2), 1]
    out = blocks.transpose(order).reshape(count, 2 ** (n + 1), 2 ** (n + 1))
    return (out + out.conj().transpose(0, 2, 1)) / 2


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
    qcore.receiver_count(n)
    weights = np.array([[ch.weights for ch in first], [ch.weights for ch in second]], dtype=float)
    (probs,), (strings,) = _closed_weights(weights[:1], weights[1:])
    omega = qcore.KET_PLUS.density() if omega is None else omega
    return SwitchedChannel(float(probs[0]), float(probs[1]), omega, strings)


def closed_form_two_party(
    e1: channels.PauliChannel,
    e2: channels.PauliChannel,
    omega: DensityMatrix | None = None,
) -> SwitchedChannel:
    """Switched-channel decomposition for the switch of e1 (x) e2 with itself."""
    return closed_form_product((e1, e2), (e1, e2), omega)


@functools.lru_cache(maxsize=MAX_RECEIVERS, typed=True)
def closed_form_nxy_n(n: int) -> SwitchedChannel:
    """Switched channel for n parallel equal-X/Y mixtures against themselves,
    with the default |+> control, built once per n and kept for the process:
    the switch protocol applies, and ``validate_closed_forms`` checks, this
    one read-only object.

    Every Z string on the n qubits appears with weight 2**-n; even-weight
    strings leave the control untouched (C_plus), odd-weight strings flip its
    coherence (C_minus). Both branch probabilities are 1/2.
    """
    return closed_form_product((channels.N_XY,) * n, (channels.N_XY,) * n)


def choi_deviation(sw: SwitchedChannel, a: np.ndarray, b: np.ndarray) -> float:
    """Pauli-transfer deviation of a closed form from the generic switch of
    two (m, d, d) Kraus stacks, an upper bound on their max-entry unit-trace
    Choi difference: max |Delta Gamma| / d plus the largest off-diagonal
    coefficient of the dense switch, run on all 4^n Pauli strings."""
    side = _register_side(a, b)
    n = sw.num_qubits
    if side != 2**n:
        raise DimensionMismatchError(f"closed form on {n} qubits, channels on dimension {side}")
    strings = np.stack([channels.pauli_string(s).entries for s in _labels(np.arange(4**n), n)])
    kernel = _input_kernel(_lift_control(_switch_of(a, b), sw.omega_plus))
    outputs = _switch_outputs(kernel, strings).reshape(-1, side, 2, side, 2)
    blocks = outputs.transpose(0, 2, 4, 1, 3).reshape(4**n, 2, 2, -1)  # (t, c, c', (m, m'))
    transfer = blocks @ strings.reshape(4**n, -1).conj().T / side  # (t, c, c', s)
    weighted = np.array([[sw.p_plus], [sw.p_minus]]) * sw.weights
    closed = _closed_transfer(weighted[None], sw.omega_plus.matrix[None])[0]
    codes = np.arange(4**n)
    diagonal = transfer[codes, :, :, codes].copy()  # (t, c, c')
    transfer[codes, :, :, codes] = 0.0
    gap = np.abs(diagonal - np.moveaxis(closed, -1, 0)).max()
    return float(gap / side + np.abs(transfer).max())


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

    For each receiver count n in ``ns``, each in 1..``MAX_RECEIVERS``, this
    compares the identity and the equal-X/Y switches with the |+> control
    (``identity``, ``nxy-choi``), runs ``trials`` random-input spot checks
    of the latter (``nxy-input``), and at n = 2 draws ``trials`` random
    two-party Pauli channel pairs with random pure controls (``two-party``).
    ``identity``, ``nxy-choi`` and ``two-party`` report the Pauli-transfer
    deviation (``_pauli_switches``), an upper bound on the max-entry
    unit-trace Choi difference; ``nxy-input`` reports the max-entry
    difference between ``SwitchedChannel.apply_stack`` and the generic
    per-qubit maps on the same drawn messages (``_map_outputs``). The run
    passes when every deviation is below ``tolerance``.

    An empty ``ns``, an n outside 1..``MAX_RECEIVERS``, a negative
    ``trials`` or a negative seed raises ValueError, and a seed, ``trials``
    or n that is not an integer (a bool included) raises TypeError, before
    any fixture (``_nxy_fixture``) is built or trial drawn. Trials run in
    blocks of ``_BLOCK``: a block's drawn messages, and each side's outputs,
    pass one ``qcore.check_states``; a two-party block checks its drawn
    weights and control amplitudes once as arrays, under the
    ``PauliChannel`` and ``Ket`` rules, and its controls as one stack.
    """
    seed = qcore.as_index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    trials = qcore.as_index(trials)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if len(ns) == 0:
        raise ValueError("ns names no receiver count to validate")
    ns = [qcore.receiver_count(n) for n in ns]
    rng = np.random.default_rng(seed)
    records: list[ValidationRecord] = []
    for n in ns:
        fixture = _nxy_fixture(n)
        records.extend(fixture.records)
        records.extend(
            ValidationRecord("nxy-input", n, f"trial {t}", dev)
            for t, dev in enumerate(_input_deviations(n, fixture.maps, trials, rng))
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
    ``identity`` and ``nxy-choi`` records and the read-only (n, 2, 2, 4, 4)
    ``_product_maps`` of the generic switch, which the ``nxy-input`` trials
    run through with the control of ``closed_form_nxy_n(n)``."""

    records: tuple[ValidationRecord, ValidationRecord]
    maps: np.ndarray


#: Every fixture built so far, by n: at most ``MAX_RECEIVERS`` keys.
_FIXTURES: dict[int, _NxyFixture] = {}


def _nxy_fixture(n: int) -> _NxyFixture:
    """The fixture at n, an int in 1..``MAX_RECEIVERS`` that
    ``validate_closed_forms`` has checked, built and checked on first use
    and kept for the process: the identity and equal-X/Y switches as one
    ``_pauli_switches`` pass, under the |+> control of ``closed_form_nxy_n(n)``,
    the object the switch protocol applies."""
    if n not in _FIXTURES:
        weights = np.array([[ch.weights] * n for ch in (channels.IDENTITY, channels.N_XY)])
        plus = closed_form_nxy_n(n).omega_plus.matrix
        maps, deviations = _pauli_switches(weights, np.stack([plus] * 2))
        kinds = ("identity", "nxy-choi")
        records = tuple(map(ValidationRecord, kinds, (n, n), ("", ""), deviations.tolist()))
        maps.setflags(write=False)  # and so its views
        _FIXTURES[n] = _NxyFixture(records, maps[1])
    return _FIXTURES[n]


def _blocks(trials: int):
    """The trial count of each block of at most ``_BLOCK`` trials."""
    for start in range(0, trials, _BLOCK):
        yield min(_BLOCK, trials - start)


def _input_deviations(n: int, maps: np.ndarray, trials: int, rng):
    """Max-entry output difference between ``closed_form_nxy_n(n)`` and the
    generic switch given by its ``_product_maps`` on each of ``trials``
    random messages, a block at a time."""
    sw = closed_form_nxy_n(n)
    for count in _blocks(trials):
        rhos = qcore.random_density_stack((2,) * n, rng, count)
        qcore.check_states(rhos)
        generic = _map_outputs(maps, sw.omega_plus.matrix, rhos)
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
    """Pauli-transfer deviation of the closed form for each of ``trials``
    random two-party Pauli channel pairs with random pure controls, one
    ``_pauli_switches`` pass per block (``_two_party_draws``)."""
    for count in _blocks(trials):
        weights, kets = _two_party_draws(count, rng)
        channels.check_pauli_weights(weights)
        qcore.check_kets(kets)
        controls = kets[:, :, None] * kets[:, None, :].conj()
        qcore.check_states(controls)
        yield from _pauli_switches(weights, controls)[1].tolist()


def _pauli_switches(weights: np.ndarray, omegas: np.ndarray):
    """Both sides of the switch of T n-qubit Pauli-channel products, given
    by their (T, n, 4) weights, with themselves under the (T, 2, 2)
    controls: the generic ``_product_maps`` of the factor sets
    sqrt(w_l) sigma_l (zero weights give zero operators, and every set is
    checked complete), and the ``_transfer_deviations`` between them and the
    closed forms (``_closed_weights``, checked by ``_check_branches``)."""
    factors = np.sqrt(weights)[..., None, None] * _PAULIS  # (T, n, 4, 2, 2)
    maps = _product_maps(factors, factors)
    probs, strings = _closed_weights(weights, weights)
    _check_branches(probs, strings)
    return maps, _transfer_deviations(maps, omegas, probs, strings)
