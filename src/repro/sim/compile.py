"""Compiled execution plans: gate fusion and kernel specialization.

Plan replay is the only way any state in the simulator evolves.  This
module lowers a circuit *structure* once into an :class:`ExecutionPlan`
— a short list of specialized steps — that every structurally identical
circuit (parameter-shift clones, re-encoded mini-batch rows, serving
flushes, worker-pool shards) then replays on a ``(B, 2, ..., 2)``
tensor, instead of one GEMM per gate:

* **Fusion** — adjacent gates whose combined wire support stays within
  ``FUSE_MAX`` qubits collapse into one stacked unitary: fewer, fatter
  GEMMs.  Gates on disjoint wires commute exactly, so a gate may join
  the deepest open block that shares its wires even when unrelated
  gates sit between them in program order.
* **Constant folding** — runs of parameterless gates precompose into a
  single matrix at compile time, shared batch-wide forever.
* **Kernel specialization** — blocks that are diagonal become one
  elementwise multiply; 0/1 permutation blocks (X/CNOT/SWAP runs)
  become an index take.  The batched reference kernels live in
  :mod:`repro.sim.apply` (:func:`~repro.sim.apply.apply_diag_batched`,
  :func:`~repro.sim.apply.apply_permutation_batched`); plan steps
  execute the *same* array operations with their axis recipes
  precomputed at plan-finalize time (see ``_Layout``), and the
  equivalence tests pin the two against each other.  Registry tags
  (:attr:`repro.sim.gates.GateSpec.diagonal` / ``permutation``) mark
  the gates; constant blocks are additionally classified from their
  folded matrix, so e.g. ``cx; cx`` cancels to nothing.
* **Batch-wide matrix preparation** — parameterized gate matrices for
  the *whole plan* are built up front, one vectorized closed-form call
  per gate type (:func:`repro.sim.gates.batched_rotation` over every
  occurrence x batch row at once), instead of one build per op per
  call.  Steps then compose the prebuilt ``(B, d, d)`` stacks with
  plain ``matmul`` and compile-time kron embeddings.
* **Noise segments** (density mode) — each gate's per-wire channel
  stack is precomposed into a single 4x4 superoperator at compile
  time, and — because a single-qubit unitary's conjugation is itself a
  4x4 superoperator on that wire — whole per-wire runs of
  ``gate, channel, gate, channel, ...`` collapse into **one**
  superoperator application per wire per segment
  (:class:`WireChainStep`).  A channel only fences fusion on its own
  wire; diagonal two-qubit gates in between still specialize to
  elementwise multiplies.  Noise models without the ``superop_for``
  fast path fall back to per-gate Kraus steps with no fusion, keeping
  the generic channel ordering exact.
* **Prefix-trie replay** — rows of a fresh sweep that agree on every
  angle consumed so far hold the same state (a parameter-shift row and
  its base row up to the shifted gate; duplicated rows throughout).
  One sort of the angle matrix, column groups in step order, lays the
  rows out as the leaves of a prefix trie; the replay starts from a
  single fresh row, keeps one tensor row per trie node, forks
  (``tensor[parent]``) only at steps where nodes split, and scatters
  leaves back to rows before readout.  Each step prepares and composes
  its matrices once per distinct value of its own angles, then gathers
  them to the nodes.  The plain replay is the degenerate trie: sweeps
  whose rows are distinct at the first parameterized step, whose work
  is below :data:`TRIE_MIN_WORK`, or whose rows do not start equal
  skip construction and run the same loop one tensor row per row.

Plans depend only on the circuit's :meth:`~repro.circuits.
QuantumCircuit.structure_signature` (plus the backend's noise model and
mode), never on angle values.  Backends keep plans in a
:class:`PlanCache` (an LRU keyed by structure signature; the owning
backend pins down the noise-model / layout identity), so a training
epoch or parameter-shift sweep compiles each structure exactly once.

Numerical contract: plan replay agrees with a dense reference (full
``2^n`` unitaries and ``4^n`` superoperators) within ``1e-10`` and is
deterministic (same plan, same inputs → same bits).  A circuit's row is
bit-identical whatever batch it rides in, including a batch of one, and
whatever rows share its angle prefix: a trie node runs exactly the
per-row operations on exactly the data its rows would run alone.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from collections.abc import Callable

import numpy as np

from repro.sim import apply as _apply
from repro.sim import gates as _gates

#: Default maximum combined wire support of one fused unitary block.
#: 2 keeps every fused matrix at most 4x4 — single-qubit runs and
#: two-qubit neighborhoods collapse while application cost per step
#: stays at the cost of one two-qubit gate.
FUSE_MAX = 2

_EYE2 = np.eye(2, dtype=np.complex128)

#: Basis permutation swapping the two wires of a 4x4 matrix.
_SWAP_PERM = np.array([0, 2, 1, 3], dtype=np.intp)


# ---------------------------------------------------------------------------
# Runtime matrix preparation
# ---------------------------------------------------------------------------
#
# Parameterized ops are *prepared* once per plan execution: one
# vectorized closed-form evaluation per (gate type, embedding) group
# builds the matrices for every occurrence x batch row at once, already
# lifted into the basis their step consumes them in (kron-embedded into
# a 2-wire block, conjugation superoperator, bare diagonal, ...).
# Steps then reduce to plain matmuls / gathers over prebuilt stacks.

def _embed0(mats: np.ndarray) -> np.ndarray:
    # kron(U, I): the op acts on the block's first (most significant)
    # wire — out[..., (i,k), (j,l)] = U[..., i, j] * eye[k, l], via one
    # broadcast multiply (cheaper than einsum on these tiny stacks).
    out = mats[..., :, None, :, None] * _EYE2[None, :, None, :]
    return out.reshape(mats.shape[:-2] + (4, 4))


def _embed1(mats: np.ndarray) -> np.ndarray:
    # kron(I, U): the op acts on the block's second wire.
    out = mats[..., None, :, None, :] * _EYE2[:, None, :, None]
    return out.reshape(mats.shape[:-2] + (4, 4))


def _embed_swap(mats: np.ndarray) -> np.ndarray:
    # Two-qubit op whose wire order is reversed within the block.
    return mats[..., _SWAP_PERM, :][..., :, _SWAP_PERM]


def _kron_conj(mats: np.ndarray) -> np.ndarray:
    """``U (x) conj(U)``: the superoperator of a unitary conjugation."""
    out = mats[..., :, None, :, None] * mats.conj()[..., None, :, None, :]
    return out.reshape(mats.shape[:-2] + (4, 4))


#: Embedding applied group-wide during preparation, keyed by tag.
_EMBEDDINGS = {
    "raw": lambda mats: mats,
    "embed0": _embed0,
    "embed1": _embed1,
    "swap": _embed_swap,
    "kron": _kron_conj,
}


@dataclasses.dataclass(frozen=True)
class _ParamUse:
    """How one step consumes one parameterized op's matrices."""

    name: str
    position: int
    embed: str  # key of _EMBEDDINGS, or "diag" for bare diagonals


@dataclasses.dataclass
class _ParamGroup:
    """All same-way-consumed occurrences of one gate type in a plan."""

    name: str
    embed: str
    positions: list[int]
    steps: list[int]  # index of the step consuming each position
    closed_form: bool
    generator: np.ndarray | None


def _build_param_groups(steps: list) -> list[_ParamGroup]:
    by_key: "OrderedDict[tuple[str, str], list[tuple[int, int]]]" = (
        OrderedDict()
    )
    for index, step in enumerate(steps):
        for use in step.param_ops():
            by_key.setdefault((use.name, use.embed), []).append(
                (use.position, index)
            )
    groups = []
    for (name, embed), uses in by_key.items():
        spec = _gates.get_gate(name)
        closed = spec.shift_rule and spec.generator is not None
        groups.append(
            _ParamGroup(
                name=name,
                embed=embed,
                positions=[position for position, _ in uses],
                steps=[index for _, index in uses],
                closed_form=closed,
                generator=(
                    _gates.pauli_word_matrix(spec.generator)
                    if closed
                    else None
                ),
            )
        )
    return groups


def _group_raw_matrices(group: _ParamGroup, values: np.ndarray) -> np.ndarray:
    """``(N, d, d)`` matrices for ``(N, num_params)`` stacked angles.

    Closed-form rotations evaluate every angle in a single
    :func:`~repro.sim.gates.batched_rotation` call; elementwise
    operation order matches the per-op build exactly, so each slice is
    bit-identical to what a batch of one would construct.
    """
    if group.closed_form:
        return _gates.batched_rotation(group.generator, values[:, 0])
    return _gates.stacked_matrices(group.name, values)


def _group_diagonals(group: _ParamGroup, values: np.ndarray) -> np.ndarray:
    """``(N, d)`` diagonals of a group of diagonal gates.

    For closed-form rotations with a diagonal generator the diagonal is
    evaluated directly (``cos - i sin * g_ii`` — the same elementwise
    operations :func:`~repro.sim.gates.batched_rotation` applies to the
    diagonal entries, so the values are bit-identical to extracting the
    diagonal of the full matrix).
    """
    if group.closed_form and _is_exact_diagonal(group.generator):
        thetas = values[:, 0]
        gdiag = np.diagonal(group.generator)
        cos = np.cos(thetas / 2.0)[:, None]
        sin = np.sin(thetas / 2.0)[:, None]
        return cos * np.ones_like(gdiag) - 1j * sin * gdiag
    return np.diagonal(
        _group_raw_matrices(group, values), axis1=-2, axis2=-1
    )


def _prepare_matrices(
    groups: list[_ParamGroup], n_ops: int, params, rows=None
) -> list[np.ndarray | None]:
    """Per-position prepared arrays, embedded for their consuming step.

    The one preparation path, ragged by design: every occurrence of a
    group is built in one vectorized call over the concatenation of
    the rows each occurrence needs.  ``rows`` is ``None`` (every row,
    as the plain replay and the adjoint sweep consume them) or a
    per-step list of row selections — a prefix trie asks each step for
    one representative row per distinct value of its own angles.
    """
    matrices: list[np.ndarray | None] = [None] * n_ops
    for group in groups:
        values = [params.op_params(p) for p in group.positions]
        if rows is not None:
            values = [
                value[rows[step]]
                for value, step in zip(values, group.steps)
            ]
        stacked = values[0] if len(values) == 1 else np.concatenate(values)
        if group.embed == "diag":
            prepared = _group_diagonals(group, stacked)
        else:
            prepared = _EMBEDDINGS[group.embed](
                _group_raw_matrices(group, stacked)
            )
        start = 0
        for position, value in zip(group.positions, values):
            matrices[position] = prepared[start : start + len(value)]
            start += len(value)
    return matrices


def _embed_tag(axes: tuple[int, ...], block_k: int) -> str:
    """Pick the embedding that lifts an op matrix into block basis."""
    if block_k == 1:
        return "raw"
    if block_k == 2:
        if axes == (0,):
            return "embed0"
        if axes == (1,):
            return "embed1"
        if axes == (0, 1):
            return "raw"
        if axes == (1, 0):
            return "swap"
    raise ValueError(
        f"no embedding for axes {axes} in a {block_k}-wire block "
        f"(fuse_max > 2 is not supported)"
    )


# ---------------------------------------------------------------------------
# Precomputed application layouts
# ---------------------------------------------------------------------------
#
# The generic kernels in repro.sim.apply normalize axes and validate
# shapes on every call; a plan applies the same step to the same layout
# thousands of times, so the transpose permutations and reshape targets
# are resolved once at plan-finalize time.  The array operations
# themselves (transpose order, reshape, matmul / gather / multiply) are
# exactly the generic kernels' — results stay bit-identical to them.

class _Layout:
    """The symbolic axis order of the evolving tensor.

    Plans never restore the canonical axis order between steps: each
    matmul-style step leaves its target axes at the front and records
    the resulting permutation, the next step transposes *from that
    layout* (a view — the data was made contiguous in it by the
    reshape), and a single restoring transpose runs once at the end of
    the plan.  Every intermediate is therefore contiguous in its own
    layout, which keeps reshapes to one copy per matmul step and lets
    diagonal factors broadcast against aligned, contiguous data.
    Element values are untouched — only their placement moves — so
    results stay bit-identical to the eager-restore kernels.
    """

    __slots__ = ("perm", "rank")

    def __init__(self, rank: int):
        self.perm = tuple(range(rank))
        self.rank = rank

    def positions_of(self, axes: list[int]) -> list[int]:
        """Current positions of the given canonical axes."""
        return [self.perm.index(a) for a in axes]

    def to_front(self, axes: list[int]) -> tuple[int, ...]:
        """Transpose bringing the canonical ``axes`` to positions 1..k.

        Updates the symbolic layout; returns the transpose to apply to
        the concrete tensor (relative to its current layout).
        """
        positions = self.positions_of(axes)
        batch_pos = self.perm.index(0)
        fwd = (
            (batch_pos,)
            + tuple(positions)
            + tuple(
                p
                for p in range(self.rank)
                if p != batch_pos and p not in positions
            )
        )
        self.perm = tuple(self.perm[p] for p in fwd)
        return fwd

    def restore(self) -> tuple[int, ...] | None:
        """Transpose returning to canonical order (None if already)."""
        if self.perm == tuple(range(self.rank)):
            return None
        return tuple(int(i) for i in np.argsort(self.perm))


class _MatmulLayout:
    """Per-step transpose/reshape recipe under deferred layout."""

    __slots__ = ("fwd", "dim")

    def __init__(self, axes: list[int], layout: _Layout):
        self.fwd = layout.to_front(axes)
        self.dim = 2 ** len(axes)

    def apply(self, tensor: np.ndarray, mats: np.ndarray) -> np.ndarray:
        moved = tensor.transpose(self.fwd)
        flat = moved.reshape(tensor.shape[0], self.dim, -1)
        out = np.matmul(mats, flat)
        return out.reshape(moved.shape)

    def take(self, tensor: np.ndarray, source: np.ndarray) -> np.ndarray:
        moved = tensor.transpose(self.fwd)
        flat = moved.reshape(tensor.shape[0], self.dim, -1)
        out = flat[:, source, :]
        return out.reshape(moved.shape)


class _DiagLayout:
    """Broadcast recipe lifting a ``(B, 2^k)`` diagonal onto a tensor.

    Built against the plan's live layout: the factor's axes land
    wherever the target axes currently sit, so the multiply runs
    against aligned (and, under deferred layout, contiguous) data and
    the tensor's layout is left unchanged.
    """

    __slots__ = ("k", "order", "shape")

    def __init__(self, axes: list[int], layout: _Layout):
        self.k = len(axes)
        positions = layout.positions_of(axes)
        self.order = tuple(
            [0] + [1 + int(j) for j in np.argsort(positions)]
        )
        shape = [1] * layout.rank
        for position in positions:
            shape[position] = 2
        self.shape = shape

    def factor(self, diags: np.ndarray) -> np.ndarray:
        batch = diags.shape[0] if diags.ndim == 2 else 1
        tensor = diags.reshape((batch,) + (2,) * self.k)
        tensor = tensor.transpose(self.order)
        shape = list(self.shape)
        shape[0] = batch
        return tensor.reshape(shape)


def _state_axes(wires: tuple[int, ...]) -> list[int]:
    return [w + 1 for w in wires]


def _bra_axes(wires: tuple[int, ...], n_qubits: int) -> list[int]:
    return [n_qubits + w + 1 for w in wires]


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------
#
# Every step splits into ``operand(matrices)`` — the per-call matrix
# (or diagonal) composed from the prepared stacks, one per distinct
# value of the step's own angles — and ``apply(tensor, operand)``,
# which runs that operand (gathered to one per tensor row by the
# replay loop) over the tensor.  Parameterless steps have no operand:
# their matrices are compile-time constants shared batch-wide.

@dataclasses.dataclass
class ConstantStep:
    """A precomposed parameterless unitary, shared batch-wide."""

    wires: tuple[int, ...]
    matrix: np.ndarray

    kind = "matmul"

    def finalize(self, n_qubits: int, mode: str, layout: _Layout) -> None:
        self._ket = _MatmulLayout(_state_axes(self.wires), layout)
        self._bra = None
        if mode == "density":
            self._bra = _MatmulLayout(
                _bra_axes(self.wires, n_qubits), layout
            )
            self._conj = self.matrix.conj()

    def param_ops(self):
        return []

    def operand(self, matrices):
        return None

    def apply(self, tensor, operand):
        out = self._ket.apply(tensor, self.matrix)
        if self._bra is None:
            return out
        return self._bra.apply(out, self._conj)


@dataclasses.dataclass
class _Factor:
    """One multiplicand of a composed step.

    Either a compile-time constant ``matrix`` (already lifted into the
    step's basis, adjacent constants folded together), or a reference
    to a parameterized op whose prepared — already embedded — stack is
    fetched per call.
    """

    matrix: np.ndarray | None = None
    name: str | None = None
    position: int | None = None
    embed: str | None = None


def _fold_factors(factors: list[_Factor]) -> list[_Factor]:
    """Precompose adjacent constant factors at compile time."""
    folded: list[_Factor] = []
    for factor in factors:
        if (
            factor.matrix is not None
            and folded
            and folded[-1].matrix is not None
        ):
            folded[-1] = _Factor(
                matrix=factor.matrix @ folded[-1].matrix
            )
        else:
            folded.append(factor)
    return folded


def _compose_factors(factors: list[_Factor], matrices: list) -> np.ndarray:
    """Left-multiply the factor sequence into one (stacked) matrix."""
    acc = None
    for factor in factors:
        mat = (
            factor.matrix
            if factor.matrix is not None
            else matrices[factor.position]
        )
        acc = mat if acc is None else np.matmul(mat, acc)
    return acc


def _factor_uses(factors: list[_Factor]) -> list[_ParamUse]:
    return [
        _ParamUse(f.name, f.position, f.embed)
        for f in factors
        if f.position is not None
    ]


@dataclasses.dataclass
class FusedStep:
    """A parameterized fused block, recomposed per call.

    The block unitary is the plain matmul product of the member
    factors — parameterless gates folded into constants and
    parameterized gates fetched from the prepared (pre-embedded)
    stacks — then applied once.
    """

    wires: tuple[int, ...]
    factors: list[_Factor]

    kind = "matmul"

    def finalize(self, n_qubits: int, mode: str, layout: _Layout) -> None:
        self._ket = _MatmulLayout(_state_axes(self.wires), layout)
        self._bra = None
        if mode == "density":
            self._bra = _MatmulLayout(
                _bra_axes(self.wires, n_qubits), layout
            )

    def param_ops(self):
        return _factor_uses(self.factors)

    def operand(self, matrices: list) -> np.ndarray:
        return _compose_factors(self.factors, matrices)

    def apply(self, tensor, block):
        out = self._ket.apply(tensor, block)
        if self._bra is None:
            return out
        return self._bra.apply(out, block.conj())


@dataclasses.dataclass
class _DiagOp:
    """One parameterized diagonal factor inside a diagonal block.

    ``jmap`` gathers the op's local (prepared, bare) diagonal out to
    the block's joint index: ``expanded[i] = diag[jmap[i]]``.
    """

    name: str
    jmap: np.ndarray
    position: int


@dataclasses.dataclass
class DiagStep:
    """A fused diagonal block: one elementwise multiply per application.

    Diagonal gates commute, so any mix of parameterless (folded into
    ``constant`` at compile time) and parameterized diagonal gates
    collapses into a single ``(B, 2^k)`` diagonal; adjacent diagonal
    steps additionally merge across arbitrary wire support (the
    diagonal grows, the application stays one elementwise pass).
    """

    wires: tuple[int, ...]
    constant: np.ndarray | None
    ops: list[_DiagOp]

    kind = "diag"

    def finalize(self, n_qubits: int, mode: str, layout: _Layout) -> None:
        self._ket = _DiagLayout(_state_axes(self.wires), layout)
        self._bra = None
        if mode == "density":
            self._bra = _DiagLayout(
                _bra_axes(self.wires, n_qubits), layout
            )

    def param_ops(self):
        return [_ParamUse(op.name, op.position, "diag") for op in self.ops]

    def operand(self, matrices: list) -> np.ndarray:
        total = self.constant
        for op in self.ops:
            d = matrices[op.position][..., op.jmap]
            total = d if total is None else total * d
        return total

    def apply(self, tensor, diags):
        out = tensor * self._ket.factor(diags)
        if self._bra is not None:
            out *= self._bra.factor(diags.conj())
        return out


@dataclasses.dataclass
class PermutationStep:
    """A fused 0/1 permutation block: one index take per application.

    Adjacent permutation steps merge across arbitrary wire support by
    composing their gather maps at compile time.
    """

    wires: tuple[int, ...]
    source: np.ndarray

    kind = "permutation"

    def finalize(self, n_qubits: int, mode: str, layout: _Layout) -> None:
        self._ket = _MatmulLayout(_state_axes(self.wires), layout)
        self._bra = None
        if mode == "density":
            self._bra = _MatmulLayout(
                _bra_axes(self.wires, n_qubits), layout
            )

    def param_ops(self):
        return []

    def operand(self, matrices):
        return None

    def apply(self, tensor, operand):
        out = self._ket.take(tensor, self.source)
        if self._bra is None:
            return out
        return self._bra.take(out, self.source)


def _require_density(mode: str) -> None:
    if mode != "density":
        raise TypeError("noise steps only run on density tensors")


@dataclasses.dataclass
class WireChainStep:
    """A per-wire run of single-qubit gates and channels (density only).

    A single-qubit unitary's conjugation ``rho -> U rho U^dagger`` is
    itself a 4x4 superoperator ``U (x) conj(U)`` on that wire's (ket,
    bra) index pair, so a whole segment ``gate, channel, gate,
    channel, ...`` on one wire composes into **one** 4x4 (or
    ``(B, 4, 4)``) matrix and applies with a single contraction —
    instead of two matmuls per gate plus one per channel.  Channel
    superoperators and parameterless gates are folded into constant
    factors at compile time; parameterized gates are fetched from the
    prepared stacks, pre-lifted by the ``kron`` embedding.
    """

    wire: int
    factors: list[_Factor]

    kind = "superop"

    def finalize(self, n_qubits: int, mode: str, layout: _Layout) -> None:
        _require_density(mode)
        self._layout = _MatmulLayout(
            [self.wire + 1, n_qubits + self.wire + 1], layout
        )

    def param_ops(self):
        return _factor_uses(self.factors)

    def operand(self, matrices: list) -> np.ndarray:
        return _compose_factors(self.factors, matrices)

    def apply(self, tensor, superops):
        return self._layout.apply(tensor, superops)


@dataclasses.dataclass
class KrausStep:
    """A generic Kraus channel step (density only, no fusion)."""

    wires: tuple[int, ...]
    kraus_ops: tuple[np.ndarray, ...]

    kind = "kraus"

    def finalize(self, n_qubits: int, mode: str, layout: _Layout) -> None:
        _require_density(mode)
        # The generic Kraus kernel expects the canonical axis order:
        # restore it first and reset the symbolic layout.
        self._restore = layout.restore()
        layout.perm = tuple(range(layout.rank))

    def param_ops(self):
        return []

    def operand(self, matrices):
        return None

    def apply(self, tensor, operand):
        if self._restore is not None:
            tensor = tensor.transpose(self._restore)
        return _apply.apply_kraus_to_density_batched(
            tensor, self.kraus_ops, self.wires
        )


# ---------------------------------------------------------------------------
# Prefix-trie replay schedules
# ---------------------------------------------------------------------------
#
# Rows of a sweep that agree on every angle a plan has consumed so far
# hold bit-identical states: a parameter-shift row equals its base row
# up to the shifted gate, a duplicated row everywhere.  Sorting the rows
# by their angles, column by column in the order the steps consume
# them, lays the rows out as the leaves of a prefix trie: neighbouring
# leaves fork at the first step whose angles tell them apart (the depth
# of their lowest common ancestor).  The replay then keeps one tensor
# row per trie node of the current depth, starting from one fresh row.

#: Replay work — rows x steps x state elements — below which a sweep
#: replays one tensor row per input row: building the trie costs more
#: than the shared prefixes save (small statevector shards, short
#: forward sweeps).
TRIE_MIN_WORK = 2**18

#: Largest mixed-radix key a step's combined column ranks may reach.
_KEY_LIMIT = 2**62


@dataclasses.dataclass
class _Schedule:
    """Which tensor rows one replay evolves, step by step.

    Every list holds one entry per plan step.  The plain replay — one
    tensor row per input row — is the schedule whose entries are all
    ``None``.

    Attributes:
        splits: Parent tensor row of each new tensor row, at steps
            where trie nodes fork (``tensor = tensor[split]``).
        gathers: The distinct operand each tensor row consumes, at
            parameterized steps (``operand = operand[gather]``).
        rows: One representative input row per distinct value of each
            step's angles — the rows matrix preparation builds; ``None``
            builds every row.
        leaves: Each input row's leaf tensor row, scattered back before
            readout; ``None`` for the plain replay, which also keeps
            every starting row instead of one fresh row.
    """

    splits: list
    gathers: list
    rows: list | None = None
    leaves: np.ndarray | None = None


def _dense_ranks(keys: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense per-row ranks of each row of ``keys``, from one sort call.

    Returns the ``keys``-shaped ranks (equal keys share a rank, ranks
    count up from 0 in key order) and, per row of ``keys``, the column
    of the first occurrence of each rank.
    """
    order = np.argsort(keys, axis=1, kind="stable")
    ordered = np.take_along_axis(keys, order, axis=1)
    first = np.ones(keys.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty(keys.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.cumsum(first, axis=1) - 1, axis=1)
    return ranks, [o[f] for o, f in zip(order, first)]


def _prefix_trie(
    bits: np.ndarray, step_columns: list
) -> _Schedule | None:
    """The prefix-trie schedule of a sweep's angle bits.

    Args:
        bits: ``(B, n_columns)`` angles viewed as int64 — bitwise
            equality is the sharing criterion, so rows share state only
            where their arithmetic is bit-identical.
        step_columns: Per plan step, the angle columns it consumes
            (``None`` for parameterless steps).

    Returns:
        ``None`` when the rows are already distinct at the first
        parameterized step (nothing to share), else the schedule.
        Construction makes a fixed number of sort calls per sweep —
        never one per step.
    """
    n_rows = bits.shape[0]
    param_steps = [i for i, c in enumerate(step_columns) if c is not None]
    if param_steps:
        first = bits[:, step_columns[param_steps[0]]]
        ordered = first[np.lexsort(first.T)]
        if (ordered[1:] != ordered[:-1]).any(axis=1).all():
            return None

    # Dense ranks of every varying consumed column (one sort call),
    # combined per step into one mixed-radix key, then densified into
    # each step's value ids (one more sort call).
    n_steps = len(param_steps)
    keys = np.zeros((n_steps, n_rows), dtype=np.int64)
    if param_steps:
        used = np.concatenate([step_columns[i] for i in param_steps])
        values = bits[:, used].T
        varying = np.flatnonzero((values != values[:, :1]).any(axis=1))
        column_ranks = np.zeros(values.shape, dtype=np.int64)
        if varying.size:
            column_ranks[varying] = _dense_ranks(values[varying])[0]
        radices = column_ranks.max(axis=1) + 1
        start = 0
        for t, i in enumerate(param_steps):
            stop = start + len(step_columns[i])
            key, radix = keys[t], 1
            for c in range(start, stop):
                if radices[c] == 1:
                    continue
                radix *= int(radices[c])
                if radix > _KEY_LIMIT:
                    # Too many combinations to key exactly: treat every
                    # row as its own value (over-splitting stays exact).
                    key[:] = np.arange(n_rows)
                    break
                key *= radices[c]
                key += column_ranks[c]
            start = stop
    value_ids, representatives = _dense_ranks(keys)

    # The trie: one sort of the rows by their value ids in step order.
    # Neighbouring leaves fork at the first step they differ in.
    leaf_order = (
        np.lexsort(value_ids[::-1]) if n_steps else np.arange(n_rows)
    )
    forks = np.full(n_rows - 1, n_steps)
    if n_steps:
        differ = value_ids[:, leaf_order[1:]] != value_ids[:, leaf_order[:-1]]
        forks = np.where(differ.any(axis=0), differ.argmax(axis=0), n_steps)
    fork_counts = np.bincount(forks, minlength=n_steps + 1)

    splits: list = [None] * len(step_columns)
    gathers: list = [None] * len(step_columns)
    rows: list = [None] * len(step_columns)
    starts = np.zeros(1, dtype=np.intp)  # sorted position of each node
    for t, i in enumerate(param_steps):
        if fork_counts[t]:
            parent = np.concatenate(([0], np.cumsum(forks < t)))
            starts = np.concatenate(([0], np.flatnonzero(forks <= t) + 1))
            splits[i] = parent[starts]
        gathers[i] = value_ids[t, leaf_order[starts]]
        rows[i] = representatives[t]
    leaves = np.empty(n_rows, dtype=np.intp)
    leaves[leaf_order] = np.concatenate(([0], np.cumsum(forks < n_steps)))
    return _Schedule(splits, gathers, rows, leaves)


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class ExecutionPlan:
    """A compiled, structure-keyed lowering of one circuit structure.

    Attributes:
        n_qubits: Width the plan evolves.
        mode: ``"statevector"`` or ``"density"`` — which engine family
            the steps were compiled for (noise steps exist only in
            density plans).
        steps: The ordered specialized steps.
        n_source_ops: Gate count of the source structure, used to guard
            against running a plan against a mismatched batch.
        param_indices: Per-source-position trainable parameter index
            (``None`` for fixed or bound ops) — the trainable-gate
            boundaries :meth:`adjoint` differentiates at.  ``None``
            when the plan was built without this metadata.
    """

    def __init__(
        self,
        n_qubits: int,
        mode: str,
        steps: list,
        n_source_ops: int,
        param_indices: tuple | None = None,
    ):
        self.n_qubits = n_qubits
        self.mode = mode
        self.steps = steps
        self.n_source_ops = n_source_ops
        self.param_indices = param_indices
        self._adjoint = None
        self._param_groups = _build_param_groups(steps)
        #: Per step, the source positions whose angles it consumes.
        self._step_positions = [
            [use.position for use in step.param_ops()] for step in steps
        ]
        self._plain = _Schedule([None] * len(steps), [None] * len(steps))
        layout = _Layout((2 * n_qubits if mode == "density" else n_qubits) + 1)
        for step in steps:
            step.finalize(n_qubits, mode, layout)
        #: Final transpose returning the tensor to canonical axis order
        #: (steps defer it — see _Layout).
        self._restore = layout.restore()

    def run(
        self, tensor: np.ndarray, params, fresh: bool = False
    ) -> np.ndarray:
        """Evolve a stacked ``(B,) + (2,)*n`` (or ``*2n``) tensor.

        Args:
            tensor: The stacked states, canonical axis order.
            params: The rows' angle source — a :class:`~repro.circuits.
                sweep.Sweep` (or ``CircuitBatch``).
            fresh: The caller's promise that every row of ``tensor`` is
                the same freshly prepared state.  Only then may a sweep
                replay as a prefix trie from a single starting row.

        Returns:
            The evolved ``(B, ...)`` tensor, one row per input row.
        """
        schedule = self._schedule(params, fresh)
        matrices = _prepare_matrices(
            self._param_groups, self.n_source_ops, params, schedule.rows
        )
        if schedule.leaves is not None:
            tensor = tensor[:1]
        for step, split, gather in zip(
            self.steps, schedule.splits, schedule.gathers
        ):
            if split is not None:
                tensor = tensor[split]
            operand = step.operand(matrices)
            if gather is not None:
                operand = operand[gather]
            tensor = step.apply(tensor, operand)
        if schedule.leaves is not None:
            tensor = tensor[schedule.leaves]
        if self._restore is not None:
            tensor = tensor.transpose(self._restore)
        return tensor

    def _schedule(self, params, fresh: bool) -> _Schedule:
        """The prefix trie of a fresh sweep, or the plain replay.

        The trie is skipped on what the input shows: rows that do not
        start equal, a source without an angle matrix, work below
        :data:`TRIE_MIN_WORK`, or rows already distinct at the first
        parameterized step (see :func:`_prefix_trie`).
        """
        angles = getattr(params, "angles", None)
        if not fresh or angles is None or angles.shape[0] < 2:
            return self._plain
        elements = 2 ** (
            self.n_qubits * (2 if self.mode == "density" else 1)
        )
        work = angles.shape[0] * len(self.steps) * elements
        if work < TRIE_MIN_WORK:
            return self._plain
        template = params.template
        step_columns = [
            np.array(
                [c for p in positions for c in template.column_list(p)],
                dtype=np.intp,
            )
            if positions
            else None
            for positions in self._step_positions
        ]
        trie = _prefix_trie(angles.view(np.int64), step_columns)
        return self._plain if trie is None else trie

    def adjoint(self) -> "AdjointPlan":
        """The plan's backward (reverse-replay) lowering, built lazily.

        The :class:`AdjointPlan` is a pure value derived from the plan's
        structure, so it is compiled once and cached on the plan —
        every adjoint sweep over a cached structure reuses it.
        """
        if self._adjoint is None:
            self._adjoint = AdjointPlan(self)
        return self._adjoint

    def step_counts(self) -> dict[str, int]:
        """Histogram of step kinds (``matmul`` / ``diag`` / ...)."""
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.kind] = counts.get(step.kind, 0) + 1
        return counts

    def gemm_count(self) -> int:
        """Number of matmul-kernel steps (the fused-plan GEMMs)."""
        return sum(1 for step in self.steps if step.kind == "matmul")

    def cost_ops(self) -> float:
        """Estimated flops to execute the plan once per circuit.

        Uses the per-step-kind formulas of
        :mod:`repro.scaling.cost_model`, so the :class:`~repro.parallel.
        ShardPlanner`'s chunk sizing stays consistent with the fused
        execution the workers actually perform.
        """
        from repro.scaling import cost_model

        total = 0.0
        for step in self.steps:
            if step.kind == "matmul":
                total += cost_model.kqubit_gate_ops(
                    self.n_qubits, len(step.wires)
                )
            elif step.kind == "diag":
                total += cost_model.diag_gate_ops(self.n_qubits)
            elif step.kind == "permutation":
                total += cost_model.permutation_gate_ops(self.n_qubits)
            elif step.kind == "superop":
                # One 4x4 on the wire's fused (ket, bra) index pair of
                # the density tensor: like a single-qubit GEMM.
                total += cost_model.kqubit_gate_ops(self.n_qubits, 1)
            else:  # kraus: one conjugation per operator
                total += 2.0 * len(step.kraus_ops) * (
                    cost_model.kqubit_gate_ops(
                        self.n_qubits, len(step.wires)
                    )
                )
        return total

    def describe(self) -> str:
        """Short human-readable summary for logs."""
        counts = self.step_counts()
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return (
            f"ExecutionPlan({self.mode}, {self.n_qubits}q, "
            f"{self.n_source_ops} ops -> {len(self.steps)} steps: {body})"
        )

    def __repr__(self) -> str:
        return self.describe()


def check_plan(
    plan: ExecutionPlan, mode: str, n_qubits: int, n_ops: int
) -> None:
    """Guard an engine against running a mismatched plan.

    Raises ``ValueError`` when the plan's mode, width, or source gate
    count disagrees with the circuit/batch about to be executed — the
    failure modes of keying a cache wrongly.
    """
    if plan.mode != mode:
        raise ValueError(
            f"plan was compiled for {plan.mode!r} execution, not {mode!r}"
        )
    if plan.n_qubits != n_qubits:
        raise ValueError(
            f"plan acts on {plan.n_qubits} qubits, state has {n_qubits}"
        )
    if plan.n_source_ops != n_ops:
        raise ValueError(
            f"plan was compiled from {plan.n_source_ops} ops, circuit "
            f"has {n_ops}"
        )


# ---------------------------------------------------------------------------
# Adjoint lowering
# ---------------------------------------------------------------------------
#
# The backward sweep of adjoint differentiation reverse-replays the
# plan: starting from the forward output, it walks the steps in reverse,
# un-applying each one from a combined (ket + observable bras) stack and
# pausing at every trainable-gate boundary to contract the gate's
# generator between ket and bras.  Each forward step kind lowers to a
# backward twin that folds the per-step inverse in at lowering time
# (constant inverses and permutation inverse gathers precomputed;
# parameterized inverses fetched as conjugate transposes of the same
# prepared stacks the forward pass uses).  The combined stack carries
# ``(1 + T) * B`` rows — rows ``[0:B]`` the kets of the ``B`` batched
# circuits, rows ``[(1 + t) * B : (2 + t) * B]`` the bras of observable
# ``t`` — so one kernel application advances every circuit and every
# observable at once.  Backward steps run in the canonical axis order
# (:meth:`ExecutionPlan.run` restores it before returning), so the deferred
# forward layout needs no mirroring here.

def _tile_rows(matrices: np.ndarray, replicas: int) -> np.ndarray:
    """Repeat per-circuit ``(B, ...)`` stacks across the combined rows.

    Row ``r`` of the combined stack belongs to circuit ``r % B``, so a
    plain ``np.tile`` along axis 0 lines the matrices up; shared 2-D
    matrices broadcast as-is.
    """
    if matrices.ndim == 2:
        return matrices
    return np.tile(matrices, (replicas,) + (1,) * (matrices.ndim - 1))


def _adjoint_shift_spec(name: str) -> _gates.GateSpec:
    spec = _gates.get_gate(name)
    if not (spec.shift_rule and spec.generator is not None):
        raise ValueError(
            f"adjoint differentiation requires Pauli-rotation "
            f"trainable gates, got {name!r}"
        )
    return spec


class _AdjointMatmul:
    """Backward twin of a matmul-kind step (fused or constant block).

    Walks the block's factors in reverse, lazily composing their
    inverses into one ``pending`` matrix; at each trainable factor the
    pending inverse is flushed (bringing ket and bras exactly to that
    gate's boundary) and the factor's pre-embedded generator is
    contracted between them.  Blocks with no trainable factor collapse
    to a single inverse matmul.
    """

    def __init__(self, wires: tuple[int, ...], items: list):
        self._axes = [w + 1 for w in wires]
        self._items = items

    def _flush(self, combined, pending, replicas):
        return _apply.matmul_on_axes(
            combined, _tile_rows(pending, replicas), self._axes
        )

    def run(self, combined, batch, matrices, jacobian):
        replicas = combined.shape[0] // batch
        pending = None
        for item in self._items:
            kind = item[0]
            if kind == "const":
                inverse = item[1]
            elif kind == "param":
                inverse = matrices[item[1]].conj().swapaxes(-1, -2)
            else:  # "train"
                _, position, param_index, generator = item
                if pending is not None:
                    combined = self._flush(combined, pending, replicas)
                    pending = None
                ket = combined[:batch]
                g_ket = _apply.matmul_on_axes(ket, generator, self._axes)
                bras = combined[batch:].reshape(
                    (replicas - 1, batch) + ket.shape[1:]
                )
                overlaps = (
                    (bras.conj() * g_ket[None])
                    .reshape(replicas - 1, batch, -1)
                    .sum(axis=-1)
                )
                jacobian[:, :, param_index] += overlaps.imag
                inverse = matrices[position].conj().swapaxes(-1, -2)
            pending = (
                inverse if pending is None else np.matmul(inverse, pending)
            )
        if pending is not None:
            combined = self._flush(combined, pending, replicas)
        return combined


class _AdjointPermutation:
    """Backward twin of a permutation step: the inverse gather."""

    def __init__(self, wires: tuple[int, ...], source: np.ndarray):
        self._wires = wires
        self._inverse = np.argsort(source)

    def run(self, combined, batch, matrices, jacobian):
        return _apply.apply_permutation_batched(
            combined, self._inverse, self._wires
        )


class _AdjointDiag:
    """Backward twin of a diagonal block.

    Un-applying a unit-modulus diagonal multiplies ket and bras by the
    same conjugate factor, so ``conj(bra) * ket`` is invariant across
    the whole block — every trainable diagonal factor's generator
    contraction (a signed elementwise sum) can therefore be evaluated
    once at the block boundary before the single conjugate multiply
    that un-applies the block.
    """

    def __init__(self, step: DiagStep, contractions: list):
        self._step = step
        self._contractions = contractions

    def run(self, combined, batch, matrices, jacobian):
        if self._contractions:
            ket = combined[:batch]
            n_bras = combined.shape[0] // batch - 1
            bras = combined[batch:].reshape(
                (n_bras, batch) + ket.shape[1:]
            )
            weights = bras.conj() * ket[None]
            axes = [w + 2 for w in self._step.wires]
            for param_index, signs in self._contractions:
                factor = _apply._diag_to_axes(signs, axes, weights.ndim)
                overlaps = (
                    (weights * factor)
                    .reshape(n_bras, batch, -1)
                    .sum(axis=-1)
                )
                jacobian[:, :, param_index] += overlaps.imag
        diags = np.asarray(self._step.operand(matrices)).conj()
        if diags.ndim == 2:
            diags = np.tile(diags, (combined.shape[0] // batch, 1))
        return _apply.apply_diag_batched(
            combined, diags, self._step.wires
        )


class AdjointPlan:
    """The backward lowering of a statevector :class:`ExecutionPlan`.

    Built once per plan (see :meth:`ExecutionPlan.adjoint`); lowering
    validates that every trainable gate is a Pauli rotation and that no
    specialization swallowed a trainable-gate boundary, then records
    one backward step per forward step, in reverse order.

    :meth:`run` advances a combined ``((1 + T) * B,) + (2,) * n`` stack
    (ket rows first, then ``T`` observable-bra groups) from the forward
    output back to ``|0>``, accumulating generator contractions into a
    ``(T, B, n_params)`` Jacobian along the way.
    """

    def __init__(self, plan: ExecutionPlan):
        if plan.mode != "statevector":
            raise ValueError(
                "adjoint differentiation requires a statevector plan, "
                f"got {plan.mode!r}"
            )
        if plan.param_indices is None:
            raise ValueError(
                "plan was compiled without parameter-index metadata; "
                "recompile via compile_circuit to differentiate it"
            )
        self.plan = plan
        indices = plan.param_indices
        trainable = {
            position
            for position, index in enumerate(indices)
            if index is not None
        }
        covered: set[int] = set()
        steps: list = []
        for step in reversed(plan.steps):
            if isinstance(step, ConstantStep):
                steps.append(
                    _AdjointMatmul(
                        step.wires, [("const", step.matrix.conj().T)]
                    )
                )
            elif isinstance(step, FusedStep):
                items: list = []
                for factor in reversed(step.factors):
                    if factor.position is None:
                        items.append(("const", factor.matrix.conj().T))
                    elif indices[factor.position] is None:
                        items.append(("param", factor.position))
                    else:
                        spec = _adjoint_shift_spec(factor.name)
                        generator = _EMBEDDINGS[factor.embed](
                            _gates.pauli_word_matrix(spec.generator)
                        )
                        covered.add(factor.position)
                        items.append(
                            (
                                "train",
                                factor.position,
                                indices[factor.position],
                                generator,
                            )
                        )
                steps.append(_AdjointMatmul(step.wires, items))
            elif isinstance(step, PermutationStep):
                steps.append(_AdjointPermutation(step.wires, step.source))
            elif isinstance(step, DiagStep):
                contractions = []
                for op in step.ops:
                    if indices[op.position] is None:
                        continue
                    spec = _adjoint_shift_spec(op.name)
                    signs = np.real(
                        np.diagonal(
                            _gates.pauli_word_matrix(spec.generator)
                        )
                    )[op.jmap].copy()
                    covered.add(op.position)
                    contractions.append((indices[op.position], signs))
                steps.append(_AdjointDiag(step, contractions))
            else:
                raise ValueError(
                    f"cannot differentiate through a {step.kind!r} step"
                )
        if covered != trainable:
            missing = sorted(trainable - covered)
            raise RuntimeError(
                f"trainable gates at positions {missing} were folded "
                f"into non-differentiable steps; fusion must not "
                f"swallow a trainable gate"
            )
        self._steps = steps

    def run(
        self,
        combined: np.ndarray,
        batch: int,
        params,
        jacobian: np.ndarray,
    ) -> np.ndarray:
        """Reverse-replay the plan over a combined ket/bra stack.

        Args:
            combined: ``((1 + T) * B,) + (2,) * n`` tensor in canonical
                axis order — the forward output kets in rows ``[0:B]``
                and each observable's bras in the following ``B``-row
                groups.
            batch: ``B``, the number of batched circuits.
            params: The batch parameter source (a ``Sweep`` or
                ``CircuitBatch``) the forward pass ran with.
            jacobian: ``(T, B, n_params)`` float64 accumulator; entry
                ``(t, b, i)`` receives ``d<O_t>/d theta_i`` of circuit
                ``b``, occurrences summed.

        Returns:
            The fully un-applied combined stack (ket rows back at
            ``|0>`` up to roundoff).
        """
        matrices = _prepare_matrices(
            self.plan._param_groups, self.plan.n_source_ops, params
        )
        for step in self._steps:
            combined = step.run(combined, batch, matrices, jacobian)
        return combined


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class _Op:
    """Compiler-internal view of one source operation."""

    position: int
    name: str
    wires: tuple[int, ...]
    parameterized: bool
    diagonal: bool


class _Block:
    """An open fusion block accumulating adjacent ops."""

    __slots__ = ("wires", "ops")

    def __init__(self, op: _Op):
        self.wires: list[int] = list(op.wires)
        self.ops: list[_Op] = [op]

    def add(self, op: _Op) -> None:
        self.ops.append(op)
        for wire in op.wires:
            if wire not in self.wires:
                self.wires.append(wire)


def _expand_map(axes: tuple[int, ...], k: int) -> np.ndarray:
    """Gather map expanding a local diagonal to the block's joint index.

    ``axes`` are the op's local wire axes within a ``k``-wire block (in
    gate wire order, most significant first); ``out[i]`` is the op-local
    index whose bits are ``i``'s bits at those axes.
    """
    m = len(axes)
    jmap = np.empty(2**k, dtype=np.intp)
    for i in range(2**k):
        j = 0
        for t, axis in enumerate(axes):
            j |= ((i >> (k - 1 - axis)) & 1) << (m - 1 - t)
        jmap[i] = j
    return jmap


def _is_exact_diagonal(matrix: np.ndarray) -> bool:
    off = matrix[~np.eye(matrix.shape[0], dtype=bool)]
    return bool(np.all(off == 0))


def _is_exact_permutation(matrix: np.ndarray) -> bool:
    if not np.all((matrix == 0) | (matrix == 1)):
        return False
    ones = matrix == 1
    return bool(
        np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)
    )


def _block_axes(block: _Block, op: _Op) -> tuple[int, ...]:
    return tuple(block.wires.index(w) for w in op.wires)


def _compose_constant(block: _Block) -> np.ndarray:
    """Fold a parameterless block into one matrix at compile time."""
    k = len(block.wires)
    dim = 2**k
    acc = np.eye(dim, dtype=np.complex128).reshape((1,) + (2,) * k + (dim,))
    for op in block.ops:
        matrix = _gates.fixed_gate_matrix(op.name)
        acc = _apply.matmul_on_axes(
            acc, matrix, [a + 1 for a in _block_axes(block, op)]
        )
    return acc.reshape(dim, dim)


def _finalize_block(block: _Block):
    """Lower one closed block to its most specialized step (or None).

    Parameterless blocks fold to a constant, then classify: an exact
    identity is dropped entirely, exact permutations become index
    takes, exact diagonals become elementwise multiplies, the rest one
    shared GEMM.  Parameterized blocks stay diagonal only when every
    member is registry-tagged diagonal.
    """
    wires = tuple(block.wires)
    k = len(wires)
    if all(not op.parameterized for op in block.ops):
        matrix = _compose_constant(block)
        if np.array_equal(matrix, np.eye(2**k)):
            return None
        if _is_exact_permutation(matrix):
            source = np.array(
                [int(np.nonzero(row)[0][0]) for row in matrix],
                dtype=np.intp,
            )
            return PermutationStep(wires, source)
        if _is_exact_diagonal(matrix):
            return DiagStep(wires, np.diagonal(matrix).copy(), [])
        return ConstantStep(wires, matrix)
    if all(op.diagonal for op in block.ops):
        constant = None
        diag_ops = []
        for op in block.ops:
            jmap = _expand_map(_block_axes(block, op), k)
            if op.parameterized:
                diag_ops.append(_DiagOp(op.name, jmap, op.position))
            else:
                d = np.diagonal(_gates.fixed_gate_matrix(op.name))[jmap]
                constant = d if constant is None else constant * d
        return DiagStep(wires, constant, diag_ops)
    factors = []
    for op in block.ops:
        embed = _embed_tag(_block_axes(block, op), k)
        if op.parameterized:
            factors.append(
                _Factor(name=op.name, position=op.position, embed=embed)
            )
        else:
            matrix = _EMBEDDINGS[embed](_gates.fixed_gate_matrix(op.name))
            factors.append(_Factor(matrix=matrix))
    return FusedStep(wires, _fold_factors(factors))


def _partition_unitary(ops: list[_Op], fuse_max: int) -> list[_Block]:
    """Greedy multi-open-block fusion of a noise-free op sequence.

    A gate joins the *deepest* open block that shares any of its wires
    (provided the union support stays within ``fuse_max``); every block
    opened later is then guaranteed disjoint from the gate's wires, so
    the emission reorder only ever commutes disjoint-support gates.
    When the union would exceed ``fuse_max``, that block and everything
    opened before it are emitted and a fresh block starts.
    """
    open_blocks: list[_Block] = []
    emitted: list[_Block] = []
    for op in ops:
        wires = set(op.wires)
        deepest = None
        for index in range(len(open_blocks) - 1, -1, -1):
            if wires & set(open_blocks[index].wires):
                deepest = index
                break
        if deepest is not None:
            union = set(open_blocks[deepest].wires) | wires
            if len(union) <= fuse_max:
                open_blocks[deepest].add(op)
                continue
            emitted.extend(open_blocks[: deepest + 1])
            del open_blocks[: deepest + 1]
        open_blocks.append(_Block(op))
    emitted.extend(open_blocks)
    return emitted


def _merge_adjacent_blocks(
    blocks: list[_Block], fuse_max: int
) -> list[_Block]:
    """Greedily merge neighbouring blocks whose union support fits.

    Emitted blocks execute back to back in order, so concatenating an
    adjacent pair preserves the op sequence exactly — this catches
    disjoint-wire neighbours (a layer of single-qubit gates) that the
    intersection-driven partition left apart.
    """
    merged: list[_Block] = []
    for block in blocks:
        if (
            merged
            and len(set(merged[-1].wires) | set(block.wires)) <= fuse_max
        ):
            for op in block.ops:
                merged[-1].add(op)
        else:
            merged.append(block)
    return merged


def _compile_unitary(ops: list[_Op], fuse_max: int) -> list:
    steps = []
    blocks = _merge_adjacent_blocks(
        _partition_unitary(ops, fuse_max), fuse_max
    )
    for block in blocks:
        step = _finalize_block(block)
        if step is not None:
            steps.append(step)
    return steps


#: Merged diagonal / permutation steps never outgrow this support —
#: bounds the fused lookup table at 2^8 entries while still collapsing
#: whole entangling rings into one elementwise pass.
_MERGE_MAX = 8


def _merge_diag(a: DiagStep, b: DiagStep) -> DiagStep:
    """Fuse two adjacent diagonal steps over their union support."""
    wires = list(a.wires)
    for wire in b.wires:
        if wire not in wires:
            wires.append(wire)
    k = len(wires)
    constant = None
    ops: list[_DiagOp] = []
    for step in (a, b):
        axes = tuple(wires.index(w) for w in step.wires)
        jmap = _expand_map(axes, k)
        if step.constant is not None:
            expanded = step.constant[jmap]
            constant = (
                expanded if constant is None else constant * expanded
            )
        for op in step.ops:
            ops.append(_DiagOp(op.name, op.jmap[jmap], op.position))
    return DiagStep(tuple(wires), constant, ops)


def _merge_permutation(
    a: PermutationStep, b: PermutationStep
) -> PermutationStep:
    """Fuse two adjacent permutation steps over their union support."""
    wires = list(a.wires)
    for wire in b.wires:
        if wire not in wires:
            wires.append(wire)
    k = len(wires)
    full = []
    for step in (a, b):
        axes = tuple(wires.index(w) for w in step.wires)
        jmap = _expand_map(axes, k)
        # Lift step.source to the union index space: replace the
        # step's local bits of each index with their permuted values.
        lifted = np.empty(2**k, dtype=np.intp)
        m = len(step.wires)
        for i in range(2**k):
            local = int(step.source[jmap[i]])
            out = i
            for t, axis in enumerate(axes):
                bit = (local >> (m - 1 - t)) & 1
                shift = k - 1 - axis
                out = (out & ~(1 << shift)) | (bit << shift)
            lifted[i] = out
        full.append(lifted)
    # a then b: out[i] = in[a_src[b_src[i]]].
    return PermutationStep(tuple(wires), full[0][full[1]])


def _merge_adjacent(steps: list) -> list:
    """Fuse runs of adjacent diagonal / permutation steps.

    Adjacent steps execute back to back, so merging them never reorders
    anything — the only cost is the merged step's wider lookup table,
    capped at ``_MERGE_MAX`` wires.
    """
    out: list = []
    for step in steps:
        previous = out[-1] if out else None
        if (
            isinstance(step, DiagStep)
            and isinstance(previous, DiagStep)
            and len(set(previous.wires) | set(step.wires)) <= _MERGE_MAX
        ):
            out[-1] = _merge_diag(previous, step)
        elif (
            isinstance(step, PermutationStep)
            and isinstance(previous, PermutationStep)
            and len(set(previous.wires) | set(step.wires)) <= _MERGE_MAX
        ):
            out[-1] = _merge_permutation(previous, step)
        else:
            out.append(step)
    return out


def _compile_noisy_superop(
    ops: list[_Op], superops: list[np.ndarray | None], fuse_max: int
) -> list:
    """Wire-chain lowering of a noisy op sequence (density mode).

    Single-qubit gates and their trailing channels accumulate into
    per-wire chains (one superoperator application per wire per
    segment); multi-qubit gates flush the chains on their wires, emit
    their own specialized step, and seed fresh chains with their
    channels.  Chains on untouched wires stay open across other wires'
    activity — a reorder that only ever commutes disjoint-support
    operations.
    """
    steps: list = []
    chains: "OrderedDict[int, list[_Factor]]" = OrderedDict()

    def flush(wire: int) -> None:
        factors = chains.pop(wire, None)
        if factors:
            steps.append(WireChainStep(wire, _fold_factors(factors)))

    for op, superop in zip(ops, superops):
        if len(op.wires) == 1:
            wire = op.wires[0]
            chain = chains.setdefault(wire, [])
            if op.parameterized:
                chain.append(
                    _Factor(
                        name=op.name, position=op.position, embed="kron"
                    )
                )
            else:
                matrix = _gates.fixed_gate_matrix(op.name)
                chain.append(_Factor(matrix=_kron_conj(matrix)))
            if superop is not None:
                chain.append(_Factor(matrix=superop))
        else:
            for wire in op.wires:
                flush(wire)
            step = _finalize_block(_Block(op))
            if step is not None:
                steps.append(step)
            if superop is not None:
                for wire in op.wires:
                    chains.setdefault(wire, []).append(
                        _Factor(matrix=superop)
                    )
    for wire in list(chains):
        flush(wire)
    return steps


def _compile_noisy_kraus(ops: list[_Op], noise_model) -> list:
    """Per-gate lowering for generic Kraus-only noise models.

    No fusion: the circuit's exact gate/channel interleaving is
    preserved, each gate becoming its own (still specialized) single-op
    step.
    """
    steps: list = []
    for op in ops:
        step = _finalize_block(_Block(op))
        if step is not None:
            steps.append(step)
        for kraus_ops, wires in noise_model.channels_for(
            _TemplateView(op.name, op.wires)
        ):
            steps.append(KrausStep(tuple(wires), tuple(kraus_ops)))
    return steps


@dataclasses.dataclass(frozen=True)
class _TemplateView:
    """The (name, wires) view noise-model lookups need."""

    name: str
    wires: tuple[int, ...]


def compile_circuit(
    circuit,
    mode: str = "statevector",
    noise_model=None,
    fuse_max: int = FUSE_MAX,
) -> ExecutionPlan:
    """Lower a circuit's structure into an :class:`ExecutionPlan`.

    Args:
        circuit: A representative :class:`~repro.circuits.
            QuantumCircuit`; only its structure (gate names, wires,
            which ops carry parameters) is read — angle values never
            enter the plan, so the plan serves every circuit sharing
            the representative's ``structure_signature``.
        mode: ``"statevector"`` or ``"density"``.
        noise_model: Optional noise model (density mode only); its
            per-gate channels are baked in as precomposed superoperator
            steps (or generic Kraus steps when the model offers no
            ``superop_for``).  The plan is only valid for this exact
            model — cache accordingly.
        fuse_max: Maximum combined wire support of a fused block
            (1..2; larger blocks would need generic embeddings).

    Returns:
        The compiled plan.
    """
    if mode not in ("statevector", "density"):
        raise ValueError("mode must be 'statevector' or 'density'")
    if noise_model is not None and mode != "density":
        raise ValueError("noise models require density mode")
    if not 1 <= fuse_max <= 2:
        raise ValueError("fuse_max must be 1 or 2")
    ops = []
    for position, template in enumerate(circuit.templates):
        spec = _gates.get_gate(template.name)
        ops.append(
            _Op(
                position=position,
                name=spec.name,
                wires=tuple(template.wires),
                parameterized=spec.num_params > 0,
                diagonal=spec.diagonal,
            )
        )

    if noise_model is None:
        steps = _compile_unitary(ops, fuse_max)
    else:
        fast = getattr(noise_model, "superop_for", None)
        if fast is None:
            steps = _compile_noisy_kraus(ops, noise_model)
        else:
            superops = [
                fast(_TemplateView(op.name, op.wires)) for op in ops
            ]
            if all(s is None for s in superops):
                # Noise-free model (scale 0): full unitary fusion.
                steps = _compile_unitary(ops, fuse_max)
            else:
                steps = _compile_noisy_superop(ops, superops, fuse_max)
    steps = _merge_adjacent(steps)
    return ExecutionPlan(
        n_qubits=circuit.n_qubits,
        mode=mode,
        steps=steps,
        n_source_ops=len(ops),
        param_indices=tuple(
            template.param_index for template in circuit.templates
        ),
    )


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class PlanCache:
    """Thread-safe LRU with hit/miss counters.

    Backends key it by :meth:`~repro.circuits.QuantumCircuit.
    structure_signature` (which embeds the qubit count); each backend
    owns its own cache, so the noise-model / layout identity of the
    full cache key is carried by the owner rather than hashed into
    every lookup.  Also reused as the :class:`~repro.hardware.
    NoisyBackend` transpile cache (fingerprint-keyed) — it is a plain
    value LRU.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key):
        """Look up a key; counts a hit or miss.  ``None`` when absent."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, evicting the least recent."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get_or_compile(self, key, builder: Callable[[], object]):
        """Return the cached value, building and caching on a miss.

        The builder runs outside the lock — two racing threads may both
        compile, but plans are pure values so the duplicate work is
        harmless and the lock never blocks on compilation.
        """
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, hit_rate, size, maxsize."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / total if total else 0.0,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
