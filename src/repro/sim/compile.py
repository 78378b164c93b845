"""Compiled execution plans: gate fusion and kernel specialization.

Plan replay is the only way any state in the simulator evolves.  This
module lowers a circuit *structure* once into an :class:`ExecutionPlan`
— a short list of specialized steps — that every structurally identical
circuit (parameter-shift clones, re-encoded mini-batch rows, serving
flushes, worker-pool shards) then replays on a ``(B, 2, ..., 2)``
tensor, instead of one GEMM per gate:

* **Fusion** — adjacent gates whose combined wire support stays within
  the register's block width (2 wires below 6 qubits, ``FUSE_MAX`` = 3
  from there on) collapse into one stacked unitary: fewer, fatter
  GEMMs.  Gates on disjoint wires commute exactly, so a gate may join
  the deepest open block that shares its wires even when unrelated
  gates sit between them in program order.  ``_embed`` lifts each op
  into its block.
* **Constant folding** — runs of parameterless gates precompose into a
  single matrix at compile time, shared batch-wide forever.
* **Kernel specialization** — blocks that are diagonal become one
  elementwise multiply; 0/1 permutation blocks (X/CNOT/SWAP runs)
  become an index take.  Plan steps run these with their axis recipes
  precomputed at plan-finalize time (see ``_Layout``), and the
  equivalence tests pin single-step plans against the independent
  dense reference in ``tests/dense_reference.py``.  Registry tags
  (:attr:`repro.sim.gates.GateSpec.diagonal` / ``permutation``) mark
  the gates; constant blocks are additionally classified from their
  folded matrix, so e.g. ``cx; cx`` cancels to nothing.
* **Batch-wide matrix preparation** — parameterized gate matrices for
  the *whole plan* are built up front, one vectorized closed-form call
  per gate type (:func:`repro.sim.gates.batched_rotation` over every
  occurrence x batch row at once), instead of one build per op per
  call; an op whose angles every row shares is built once, as a
  ``(1, d, d)`` stack that broadcasts.  Steps then compose the
  prebuilt stacks with plain ``matmul`` (each op already lifted into
  its block) last factor first, at batch 1 until the first per-row
  factor: operand cost scales with distinct angles, not rows.
* **Noise segments** (density mode) — each gate's per-wire channel
  stack is precomposed into a single 4x4 superoperator at compile
  time, and — because a single-qubit unitary's conjugation is itself a
  4x4 superoperator on that wire — whole per-wire runs of
  ``gate, channel, gate, channel, ...`` collapse into **one**
  superoperator application per wire per segment
  (:class:`WireChainStep`).  A channel only fences fusion on its own
  wire; diagonal two-qubit gates in between still specialize to
  elementwise multiplies.  Any model that yields single-wire
  ``(kraus_ops, wires)`` channels from ``channels_for`` lowers this
  way: each wire's channels after a gate compose into one 4x4 via
  :func:`~repro.sim.apply.kraus_to_superop`.
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
* **Heisenberg suffixes** (density shift sweeps) — a row's outcome
  probabilities are ``Tr(P_x S(rho_s)) = Tr(S^dagger(P_x) rho_s)``,
  with ``S`` the noisy steps after the row's shifted gate.  One
  backward pass carries the ``2^n`` projectors through the adjoint
  steps (:class:`SuffixPlan`) and keeps ``S^dagger(P_x)`` at each
  boundary, so a shifted row costs its own step on its base row's
  state plus one contraction, not a replay of the whole suffix.
  The suffix runs a data-first copy of the plan: a wire chain whose
  non-trainable (encoder) factors all precede its trainable ones
  splits in two, and encoder pieces move ahead of earlier pieces on
  disjoint wires, so the encoder ends as early as its wires allow.
  Only rows shifted at or before its last step (a trainable gate
  ahead of the encoder, as in data re-uploading, or fused into one
  step with an encoder gate) replay their prefix as a trie up to
  that step.  Matrices are prepared once for the base rows (shared
  by the operators, the prefix and the base advance) and once for one
  forked row per distinct value of each step's own angles, whose
  operand is gathered to the step's rows like a trie node's.
  Registers wider than :data:`SUFFIX_MAX_QUBITS` replay instead: the
  kept operators grow as ``8^n``.
* **Buffers** — a replay (forward or adjoint) takes every state-sized
  array — fork copies, transposed operands, step outputs, the leaves
  scatter it returns — from a per-thread pool of recycled buffers
  instead of fresh memory that glibc maps, trims and faults back in.
  A buffer is reused only once nothing but the pool references it, so
  a result stays the caller's until dropped.  Between runs a thread
  keeps at most two free buffers, each at most 32 MiB (glibc's largest
  dynamic mmap threshold) and at most twice its largest recent run; a
  larger run recycles within itself only.  Only where values are
  stored changes.

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
per-row operations on exactly the data its rows would run alone.  The
plan's structure alone fixes the order a step composes its factors in,
so a row's operand is the same matmuls on the same inputs in any batch.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
import threading
from collections import OrderedDict, deque
from collections.abc import Callable

import numpy as np

from repro.sim import apply as _apply
from repro.sim import gates as _gates

#: Widest fused block, in wires; see :func:`compile_circuit`.  From 6
#: qubits an 8x8 block costs about what a 4x4 one does per pass over
#: the state and saves passes; the ``4^k`` block matrix never outgrows
#: the ``2^n`` state.
FUSE_MAX = 3

_EYE4 = np.eye(4, dtype=np.complex128)


# ---------------------------------------------------------------------------
# Runtime matrix preparation
# ---------------------------------------------------------------------------
#
# Parameterized ops are *prepared* once per plan execution: one
# vectorized closed-form evaluation per (gate type, embedding) group
# builds the matrices for every occurrence x batch row at once, already
# lifted into the basis their step consumes them in (gathered into a
# fused block, conjugation superoperator, bare diagonal, ...).
# Steps then reduce to plain matmuls / gathers over prebuilt stacks.

def _kron_conj(mats: np.ndarray) -> np.ndarray:
    """``U (x) conj(U)``: the superoperator of a unitary conjugation."""
    out = mats[..., :, None, :, None] * mats.conj()[..., None, :, None, :]
    return out.reshape(mats.shape[:-2] + (4, 4))


@functools.lru_cache(maxsize=None)
def _gather_map(axes: tuple[int, ...], k: int) -> tuple[np.ndarray, ...]:
    """Flat gather index and 0/1 mask lifting an op on ``axes`` of a
    ``k``-wire block: entry ``(r, c)`` is the op's entry at the bits of
    ``r`` and ``c`` on ``axes``, times 1 where they agree off ``axes``
    (``kron(U, I)``'s products, any placement).  Shared, so read-only.
    """
    jmap = _expand_map(axes, k)
    index = (jmap[:, None] * 2 ** len(axes) + jmap[None, :]).ravel()
    rest = np.arange(2**k) & ~sum(1 << (k - 1 - a) for a in axes)
    mask = (rest[:, None] == rest[None, :]).ravel().astype(np.complex128)
    index.flags.writeable = mask.flags.writeable = False
    return index, mask


def _embed(tag, mats: np.ndarray) -> np.ndarray:
    """Lift op matrices into the basis their step consumes them in.

    ``tag`` is ``"kron"`` (a wire chain's conjugation superoperator) or
    ``(axes, k)``, the op's axes in a ``k``-wire block.  The mask
    multiplies complex by complex, as ``kron(U, I)`` does: the same
    entries, signed zeros included.
    """
    if tag == "kron":
        return _kron_conj(mats)
    axes, k = tag
    if axes == tuple(range(k)):
        return mats
    index, mask = _gather_map(axes, k)
    lead = mats.shape[:-2]
    out = mats.reshape(lead + (mats.shape[-2] * mats.shape[-1],))
    out = out[..., index]
    if len(axes) < k:
        out *= mask
    return out.reshape(lead + (2**k, 2**k))


@dataclasses.dataclass(frozen=True)
class _ParamUse:
    """How one step consumes one parameterized op's matrices."""

    name: str
    position: int
    embed: object  # an _embed tag, or "diag" for bare diagonals


@dataclasses.dataclass
class _ParamGroup:
    """All same-way-consumed occurrences of one gate type in a plan."""

    name: str
    embed: object
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
    one representative row per distinct value of its own angles.  An
    op whose columns are bitwise identical in every row is built from
    row 0 alone, a ``(1, d, d)`` stack (``(1, d)`` diagonal) that
    broadcasts.
    """
    bits = params.angles.view(np.int64)
    per_row = np.zeros(n_ops, dtype=bool)
    per_row[params.template.owners[(bits != bits[:1]).any(axis=0)]] = True
    matrices: list[np.ndarray | None] = [None] * n_ops
    for group in groups:
        values = []
        for position, step in zip(group.positions, group.steps):
            value = params.op_params(position)
            if not per_row[position]:
                value = value[:1]
            elif rows is not None:
                value = value[rows[step]]
            values.append(value)
        stacked = values[0] if len(values) == 1 else np.concatenate(values)
        if group.embed == "diag":
            prepared = _group_diagonals(group, stacked)
        else:
            prepared = _embed(
                group.embed, _group_raw_matrices(group, stacked)
            )
        start = 0
        for position, value in zip(group.positions, values):
            matrices[position] = prepared[start : start + len(value)]
            start += len(value)
    return matrices


# ---------------------------------------------------------------------------
# Precomputed application layouts
# ---------------------------------------------------------------------------
#
# A plan applies the same step to the same layout thousands of times,
# so the transpose permutations and reshape targets are resolved once
# at plan-finalize time instead of per call.  Only the recipes are
# cached; the array operations each step runs (transpose, reshape,
# matmul / gather / multiply) are the same on every call.

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
    deferring the restore changes no result.  The
    adjoint sweep walks the steps backwards under a layout of its own
    (see :class:`AdjointPlan`).
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


# ---------------------------------------------------------------------------
# Replay buffers
# ---------------------------------------------------------------------------
#
# A replay's state-sized arrays change size as trie nodes multiply, so
# fresh ones keep crossing glibc's dynamic mmap threshold: mapped,
# trimmed and faulted back in, page by page, every step.  Every run
# takes them from a pool of recycled buffers instead.

#: Largest run, in bytes, whose buffers its thread keeps for later
#: runs (glibc's largest dynamic mmap threshold).  It bounds what a
#: thread keeps between runs to ``_POOL_FREE`` buffers of at most this
#: size; a larger run recycles within itself only.
_POOL_MAX = 1 << 25

#: Free buffers a thread's pool keeps between runs.
_POOL_FREE = 2

#: Runs a thread's largest recent run is remembered for: free buffers
#: more than twice its size are set loose.  A training step alternates
#: a few runs of different sizes, so a limit of twice the current run
#: alone would drop the largest run's buffers every step.
_POOL_RUNS = 16


def _unheld() -> int:
    """What ``sys.getrefcount`` reads, in a loop over a list, for an
    element nothing else holds (the pool's scans use the same loop)."""
    for base in [np.empty(0)]:
        return sys.getrefcount(base)


_UNHELD = _unheld()


class _Buffers:
    """Recycled buffers for one thread's runs.

    Arrays handed out are views of a flat complex buffer the pool
    holds, and any live view (a caller's result included) pins it, so a
    buffer is reused only once nothing else references it.  A request
    takes the smallest free buffer that fits; a new buffer holds at
    least the run's largest array, so it serves the rest of the run.
    """

    def __init__(self):
        #: Buffers the current run may reuse or has handed out.
        self.bases: list[np.ndarray] = []
        #: Buffers still referenced when the current run began (results
        #: a caller holds); re-checked only when the next run begins.
        self.held: list[np.ndarray] = []
        #: Elements of the current run's largest array.
        self.reserve = 0
        #: ``reserve`` of the thread's last ``_POOL_RUNS`` runs.
        self.recent: deque[int] = deque(maxlen=_POOL_RUNS)

    def begin(self, nbytes: int) -> _Buffers:
        """Start a run whose largest array is ``nbytes``: keep the
        ``_POOL_FREE`` largest free buffers at most twice the largest
        recent run, and set the other free ones loose."""
        self.reserve = nbytes // 16
        self.recent.append(self.reserve)
        limit = 2 * max(self.recent)
        free, held = [], []
        for base in itertools.chain(self.bases, self.held):
            if sys.getrefcount(base) != _UNHELD:
                held.append(base)
            elif base.size <= limit:
                free.append(base)
        base = None  # the scan's reference would read as a holder
        free.sort(key=len, reverse=True)
        self.bases, self.held = free[:_POOL_FREE], held
        return self

    def empty(self, shape: tuple) -> np.ndarray:
        """An uninitialized complex array on a recycled buffer."""
        size = math.prod(shape)
        chosen = None
        for base in self.bases:
            if (
                base.size >= size
                and sys.getrefcount(base) == _UNHELD
                and (chosen is None or base.size < chosen.size)
            ):
                chosen = base
        base = None
        if chosen is None:
            chosen = np.empty(max(size, self.reserve), dtype=np.complex128)
            self.bases.append(chosen)
        return chosen[:size].reshape(shape)


_LOCAL = threading.local()


def _pool_for(nbytes: int) -> _Buffers:
    """The pool a run whose largest array is ``nbytes`` draws from:
    its thread's, or above ``_POOL_MAX`` one of its own, dropped with
    the run."""
    if nbytes > _POOL_MAX:
        return _Buffers().begin(nbytes)
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _LOCAL.pool = _Buffers()
    return pool.begin(nbytes)


def _take_rows(tensor, rows, pool: _Buffers) -> np.ndarray:
    """``tensor[rows]`` (``mode="raise"`` would buffer its output)."""
    out = pool.empty((len(rows),) + tensor.shape[1:])
    return np.take(tensor, rows, axis=0, mode="clip", out=out)


class _MatmulLayout:
    """Per-step transpose/reshape recipe under deferred layout.

    ``viewable`` records, once per layout, whether the transposed
    operand of a contiguous intermediate is a view (the batch axis
    stays first, so the batch size cannot change the answer).  A
    viewable step writes a fresh output; otherwise the operand is
    copied out and the step writes back into the intermediate's own
    buffer (when the replay owns it; the caller's input is never
    written).
    """

    __slots__ = ("fwd", "dim", "viewable")

    def __init__(self, axes: list[int], layout: _Layout):
        self.fwd = layout.to_front(axes)
        self.dim = 2 ** len(axes)
        probe = np.empty((2,) * layout.rank, dtype=np.int8)
        flat = probe.transpose(self.fwd).reshape(2, self.dim, -1)
        self.viewable = np.shares_memory(flat, probe)

    def _operand(self, tensor, moved, owned, pool):
        """``(flat operand, output)`` of one step over ``tensor``."""
        shape = (tensor.shape[0], self.dim, -1)
        if self.viewable:
            flat = moved.reshape(shape)
            return flat, pool.empty(flat.shape)
        flat = pool.empty(moved.shape)
        np.copyto(flat, moved)
        flat = flat.reshape(shape)
        if owned:
            return flat, tensor.reshape(flat.shape)
        return flat, pool.empty(flat.shape)

    def apply(self, tensor, mats, owned: bool, pool) -> np.ndarray:
        moved = tensor.transpose(self.fwd)
        flat, out = self._operand(tensor, moved, owned, pool)
        return np.matmul(mats, flat, out=out).reshape(moved.shape)

    def take(self, tensor, source, owned: bool, pool) -> np.ndarray:
        moved = tensor.transpose(self.fwd)
        flat, out = self._operand(tensor, moved, owned, pool)
        out = np.take(flat, source, axis=1, mode="clip", out=out)
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

    def apply(self, tensor, operand, owned, pool):
        out = self._ket.apply(tensor, self.matrix, owned, pool)
        if self._bra is None:
            return out
        return self._bra.apply(out, self._conj, True, pool)


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
    embed: object = None  # the _embed tag of a parameterized op


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
    """Compose the factor sequence into one (stacked) matrix, last
    factor first (``acc = acc @ F``): a shared tail stays at batch 1
    until the first per-row factor, in an order fixed by structure.
    """
    acc = None
    for factor in reversed(factors):
        mat = (
            factor.matrix
            if factor.matrix is not None
            else matrices[factor.position]
        )
        acc = mat if acc is None else np.matmul(acc, mat)
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

    def apply(self, tensor, block, owned, pool):
        out = self._ket.apply(tensor, block, owned, pool)
        if self._bra is None:
            return out
        return self._bra.apply(out, block.conj(), True, pool)


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

    def apply(self, tensor, diags, owned, pool):
        factor = self._ket.factor(diags)
        out = tensor if owned else pool.empty(tensor.shape)
        out = np.multiply(tensor, factor, out=out)
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

    def apply(self, tensor, operand, owned, pool):
        out = self._ket.take(tensor, self.source, owned, pool)
        if self._bra is None:
            return out
        return self._bra.take(out, self.source, True, pool)


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

    def apply(self, tensor, superops, owned, pool):
        return self._layout.apply(tensor, superops, owned, pool)


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

#: The row selection of a step whose matrices a replay never reads.
_NO_ROWS = np.empty(0, dtype=np.intp)


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


def _dedupe(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``(N, C)`` int64 ``keys``, from one lexsort.

    Returns each distinct row's first occurrence, in lexicographic order
    (column 0 most significant), and every row's index into them: what
    ``np.unique(keys, axis=0, return_index=True, return_inverse=True)``
    returns, without its structured-dtype sort.  Columns equal in every
    row order nothing, so the sort skips them.
    """
    n_rows = keys.shape[0]
    keys = keys[:, (keys != keys[:1]).any(axis=0)]
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(n_rows)
    ordered = keys[order]
    new = np.ones(n_rows, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(n_rows, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


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
        self._suffix = None
        self._param_groups = _build_param_groups(steps)
        #: Per step, the source positions whose angles it consumes.
        self._step_positions = [
            [use.position for use in step.param_ops()] for step in steps
        ]
        self._plain = _Schedule([None] * len(steps), [None] * len(steps))
        layout = _Layout((2 * n_qubits if mode == "density" else n_qubits) + 1)
        #: The tensor's axis order after each step (see _Layout).
        self._perms = []
        for step in steps:
            step.finalize(n_qubits, mode, layout)
            self._perms.append(layout.perm)
        #: Final transpose returning the tensor to canonical axis order
        #: (steps defer it — see _Layout).
        self._restore = layout.restore()

    def prepare(self, params) -> list:
        """Every row's prepared stacks for ``params``, per source
        position, for a caller that hands one preparation to
        :meth:`run` and :meth:`AdjointPlan.run`."""
        return _prepare_matrices(self._param_groups, self.n_source_ops, params)

    def run(
        self,
        tensor: np.ndarray,
        params,
        fresh: bool = False,
        matrices: list | None = None,
    ) -> np.ndarray:
        """Evolve a stacked ``(B,) + (2,)*n`` (or ``*2n``) tensor.

        Args:
            tensor: The stacked states, canonical axis order; never
                written (steps after the first overwrite intermediates).
            params: The rows' angle source — a :class:`~repro.circuits.
                sweep.Sweep` (or ``CircuitBatch``).
            fresh: The caller's promise that every row of ``tensor`` is
                the same freshly prepared state.  Only then may a sweep
                replay as a prefix trie from a single starting row.
            matrices: ``prepare(params)``, if the caller already holds
                it (every row's stacks, so the plain replay runs);
                ``None`` prepares here.

        Returns:
            The evolved ``(B, ...)`` tensor, one row per input row.
        """
        pool = _pool_for(tensor.nbytes)
        tensor = self._replay(
            tensor, params, fresh, len(self.steps), pool, matrices=matrices
        )
        if self._restore is not None:
            tensor = tensor.transpose(self._restore)
        return tensor

    def _replay(
        self,
        tensor,
        params,
        fresh: bool,
        stop: int,
        pool,
        min_work: int | None = None,
        matrices: list | None = None,
    ):
        """Steps ``[0, stop)`` over every row, left in the layout after
        step ``stop - 1``.  A fresh ``tensor`` may be a single row.
        Given ``matrices`` (``prepare(params)``), the plain replay runs
        on them."""
        if matrices is not None:
            schedule = self._plain
        else:
            schedule = self._schedule(params, fresh, stop, min_work)
            matrices = _prepare_matrices(
                self._param_groups, self.n_source_ops, params, schedule.rows
            )
        owned = False
        if schedule.leaves is not None:
            tensor = tensor[:1]
        elif tensor.shape[0] < params.size:
            tensor = _take_rows(
                tensor, np.zeros(params.size, dtype=np.intp), pool
            )
            owned = True
        for step, split, gather in zip(
            self.steps[:stop], schedule.splits, schedule.gathers
        ):
            if split is not None:
                tensor = _take_rows(tensor, split, pool)
                owned = True
            operand = step.operand(matrices)
            if gather is not None:
                operand = operand[gather]
            tensor = step.apply(tensor, operand, owned, pool)
            owned = True
        if schedule.leaves is not None:
            tensor = _take_rows(tensor, schedule.leaves, pool)
        return tensor

    def _schedule(
        self,
        params,
        fresh: bool,
        stop: int | None = None,
        min_work: int | None = None,
    ) -> _Schedule:
        """The prefix trie of a fresh sweep over steps ``[0, stop)``
        (every step by default), or the plain replay.

        The trie is skipped on what the input shows: rows that do not
        start equal, a source without an angle matrix, work below
        ``min_work`` (:data:`TRIE_MIN_WORK` by default), or rows
        already distinct at the first parameterized step (see
        :func:`_prefix_trie`).
        """
        angles = getattr(params, "angles", None)
        if not fresh or angles is None or angles.shape[0] < 2:
            return self._plain
        stop = len(self.steps) if stop is None else stop
        elements = 2 ** (
            self.n_qubits * (2 if self.mode == "density" else 1)
        )
        work = angles.shape[0] * stop * elements
        if work < (TRIE_MIN_WORK if min_work is None else min_work):
            return self._plain
        template = params.template
        step_columns = [
            np.array(
                [c for p in positions for c in template.column_list(p)],
                dtype=np.intp,
            )
            if positions
            else None
            for positions in self._step_positions[:stop]
        ]
        trie = _prefix_trie(angles.view(np.int64), step_columns)
        if trie is None:
            return self._plain
        # Steps past ``stop`` prepare nothing.
        trie.rows += [_NO_ROWS] * (len(self.steps) - stop)
        return trie

    def adjoint(self) -> "AdjointPlan":
        """The plan's backward (reverse-replay) lowering, built lazily.

        The :class:`AdjointPlan` is a pure value derived from the plan's
        structure, so it is compiled once and cached on the plan —
        every adjoint sweep over a cached structure reuses it.
        """
        if self._adjoint is None:
            self._adjoint = AdjointPlan(self)
        return self._adjoint

    def suffix(self) -> "SuffixPlan | None":
        """The plan's Heisenberg-picture suffix lowering, built lazily
        and cached on the plan like :meth:`adjoint`; ``None`` for a
        register wider than :data:`SUFFIX_MAX_QUBITS`, whose shift
        sweeps replay."""
        if self._suffix is None and self.n_qubits <= SUFFIX_MAX_QUBITS:
            self._suffix = SuffixPlan(self)
        return self._suffix

    def step_counts(self) -> dict[str, int]:
        """Histogram of step kinds (``matmul`` / ``diag`` / ...)."""
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.kind] = counts.get(step.kind, 0) + 1
        return counts

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
            else:  # superop
                # One 4x4 on the wire's fused (ket, bra) index pair of
                # the density tensor: like a single-qubit GEMM.
                total += cost_model.kqubit_gate_ops(self.n_qubits, 1)
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
# un-applying each one from a combined ket + observable-bra stack and
# contracting every trainable gate's generator between ket and bras at
# that gate's boundary.  Each forward step kind lowers to a backward
# twin that folds the per-step inverse in at lowering time (constant
# inverses and permutation inverse gathers precomputed; parameterized
# inverses fetched as conjugate transposes of the same prepared stacks
# the forward pass uses).
#
# The stack is circuit-major, ``(B, 1 + T) + (2,)*n``: circuit ``b``'s
# ket sits in row ``(b, 0)`` and its ``T`` observable bras in rows
# ``(b, 1:)``, so a per-circuit ``(B, d, d)`` inverse broadcasts over
# the observable axis as ``pending[:, None]`` (and a per-circuit
# diagonal as ``factor[:, None]``) — nothing is tiled.  The backward
# steps run under a deferred layout of their own (see ``_Layout``),
# built from the forward steps' ``_MatmulLayout`` / ``_DiagLayout``
# recipes: a matmul step pays one transpose copy into a contiguous
# ``(B, 1 + T, d, rest)`` array, and the block's generator
# applications, contractions and single inverse matmul all work on
# that array.  A contraction is a batched GEMV,
# ``Im<b_t|G|psi> = -Im(bras @ conj(G psi))`` with shapes
# ``(B, T, 2^n) @ (B, 2^n, 1)``, where ``G psi`` is built on the ``B``
# ket rows only (a diagonal generator's ``G psi`` is ``psi * signs``);
# the ``m`` contractions of one block share the bras as one
# ``(B, T, 2^n) @ (B, 2^n, m)`` GEMM against the stack at block entry.

def _adjoint_shift_spec(name: str) -> _gates.GateSpec:
    spec = _gates.get_gate(name)
    if not (spec.shift_rule and spec.generator is not None):
        raise ValueError(
            f"adjoint differentiation requires Pauli-rotation "
            f"trainable gates, got {name!r}"
        )
    return spec


def _contract(
    stack: np.ndarray, g_kets: np.ndarray, jacobian: np.ndarray, columns
) -> None:
    """Add every ``Im<b_t|G_j|psi>`` of a block to its Jacobian column.

    ``stack`` is the contiguous ``(B, 1 + T, ...)`` ket/bra stack and
    ``g_kets`` the ``(B, m, ...)`` kets under the block's ``m``
    trainable generators; one batched GEMM, ``(B, T, 2^n) @
    (B, 2^n, m)``, reads the bras once for all of them.  ``columns[j]``
    is generator ``j``'s parameter index.
    """
    batch, replicas = stack.shape[:2]
    bras = stack[:, 1:].reshape(batch, replicas - 1, -1)
    kets = g_kets.reshape(batch, len(columns), -1).conj().swapaxes(1, 2)
    overlaps = np.matmul(bras, kets).imag
    for j, column in enumerate(columns):
        jacobian[:, :, column] -= overlaps[..., j]


class _AdjointMatmul:
    """Backward twin of a matmul-kind step (fused or constant block).

    Walks the block's factors in reverse, lazily composing their
    inverses into one ``pending`` matrix ``Q``.  The stack is never
    brought to an inner gate boundary: since ``<Q b|G|Q psi> =
    <b|Q^dagger G Q|psi>``, each trainable factor contributes its
    pre-embedded generator conjugated by the inverse composed so far,
    all of the block's contractions run as one GEMM against the stack
    at block entry, and one matmul by the block's full inverse
    un-applies it.
    """

    def __init__(self, wires: tuple[int, ...], items: list, layout: _Layout):
        self._layout = _MatmulLayout(_state_axes(wires), layout)
        self._items = items

    def run(self, tensor, batch, matrices, jacobian, pool):
        moved = tensor.transpose(self._layout.fwd)
        flat, out = self._layout._operand(tensor, moved, True, pool)
        stack = flat.reshape((batch, -1) + flat.shape[1:])
        pending = None
        generators, columns = [], []
        for item in self._items:
            kind = item[0]
            if kind == "const":
                inverse = item[1]
            elif kind == "param":
                inverse = matrices[item[1]].conj().swapaxes(-1, -2)
            else:  # "train"
                _, position, param_index, generator = item
                if pending is not None:
                    generator = np.matmul(
                        pending.conj().swapaxes(-1, -2),
                        np.matmul(generator, pending),
                    )
                generators.append(generator)
                columns.append(param_index)
                inverse = matrices[position].conj().swapaxes(-1, -2)
            pending = (
                inverse if pending is None else np.matmul(inverse, pending)
            )
        if generators:
            stacked = np.stack(np.broadcast_arrays(*generators), axis=-3)
            g_kets = np.matmul(stacked, stack[:, :1])
            _contract(stack, g_kets, jacobian, columns)
        if pending.ndim == 3:
            pending = pending[:, None]
        out = out.reshape(stack.shape)
        return np.matmul(pending, stack, out=out).reshape(moved.shape)


class _AdjointPermutation:
    """Backward twin of a permutation step: the inverse gather."""

    def __init__(
        self, wires: tuple[int, ...], source: np.ndarray, layout: _Layout
    ):
        self._layout = _MatmulLayout(_state_axes(wires), layout)
        self._inverse = np.argsort(source)

    def run(self, tensor, batch, matrices, jacobian, pool):
        return self._layout.take(tensor, self._inverse, True, pool)


class _AdjointDiag:
    """Backward twin of a diagonal block.

    Un-applying a unit-modulus diagonal multiplies ket and bras by the
    same conjugate factor, so ``<b_t|G|psi>`` is invariant across the
    whole block for every diagonal ``G`` — the trainable diagonal
    factors' contractions (``G psi = psi * signs``) therefore run as
    one GEMM at the block boundary, before the single conjugate
    multiply (in place) that un-applies the block.
    """

    def __init__(self, step: DiagStep, contractions: list, layout: _Layout):
        self._step = step
        self._diag = _DiagLayout(_state_axes(step.wires), layout)
        self._columns = [param_index for param_index, _ in contractions]
        if contractions:
            self._signs = self._diag.factor(
                np.stack([signs for _, signs in contractions])
            )

    def run(self, tensor, batch, matrices, jacobian, pool):
        stack = tensor.reshape((batch, -1) + tensor.shape[1:])
        if self._columns:
            _contract(
                stack, stack[:, :1] * self._signs, jacobian, self._columns
            )
        factor = self._diag.factor(self._step.operand(matrices).conj())
        stack *= factor[:, None]
        return tensor


class AdjointPlan:
    """The backward lowering of a statevector :class:`ExecutionPlan`.

    Built once per plan (see :meth:`ExecutionPlan.adjoint`); lowering
    validates that every trainable gate is a Pauli rotation and that no
    specialization swallowed a trainable-gate boundary, then records
    one backward step per forward step, in reverse order, each with its
    axis recipe resolved against the backward sweep's own deferred
    layout.

    :meth:`run` advances a circuit-major ``(B, 1 + T) + (2,) * n``
    stack (each circuit's ket, then its ``T`` observable bras) from the
    forward output back to ``|0>``, accumulating generator contractions
    into a ``(B, T, n_params)`` Jacobian along the way.
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
        layout = _Layout(plan.n_qubits + 1)
        steps: list = []
        for step in reversed(plan.steps):
            if isinstance(step, ConstantStep):
                steps.append(
                    _AdjointMatmul(
                        step.wires,
                        [("const", step.matrix.conj().T)],
                        layout,
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
                        generator = _embed(
                            factor.embed,
                            _gates.pauli_word_matrix(spec.generator),
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
                steps.append(_AdjointMatmul(step.wires, items, layout))
            elif isinstance(step, PermutationStep):
                steps.append(
                    _AdjointPermutation(step.wires, step.source, layout)
                )
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
                    )[op.jmap]
                    covered.add(op.position)
                    contractions.append((indices[op.position], signs))
                steps.append(_AdjointDiag(step, contractions, layout))
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
        #: Final transpose back to canonical axis order.
        self._restore = layout.restore()

    def run(
        self,
        combined: np.ndarray,
        params,
        jacobian: np.ndarray,
        matrices: list | None = None,
    ) -> np.ndarray:
        """Reverse-replay the plan over a circuit-major ket/bra stack.

        Args:
            combined: ``(B, 1 + T) + (2,) * n`` tensor in canonical axis
                order — row ``(b, 0)`` circuit ``b``'s forward output
                ket, rows ``(b, 1:)`` its observable bras.  The sweep
                owns it: steps un-apply in place.
            params: The batch parameter source (a ``Sweep`` or
                ``CircuitBatch``) the forward pass ran with.
            jacobian: ``(B, T, n_params)`` float64 accumulator; entry
                ``(b, t, i)`` receives ``d<O_t>/d theta_i`` of circuit
                ``b``, occurrences summed.
            matrices: The forward pass's ``plan.prepare(params)``;
                ``None`` prepares here.

        Returns:
            The fully un-applied ``(B, 1 + T) + (2,) * n`` stack (ket
            rows back at ``|0>`` up to roundoff).
        """
        if matrices is None:
            matrices = self.plan.prepare(params)
        batch = combined.shape[0]
        pool = _pool_for(combined.nbytes)
        tensor = combined.reshape((-1,) + combined.shape[2:])
        for step in self._steps:
            tensor = step.run(tensor, batch, matrices, jacobian, pool)
        if self._restore is not None:
            tensor = tensor.transpose(self._restore)
        return tensor.reshape(combined.shape)


# ---------------------------------------------------------------------------
# Heisenberg-picture suffixes
# ---------------------------------------------------------------------------
#
# A shift-sweep row differs from its base row in one op, and the noisy
# steps after that op are the same for every row of a base.  Under the
# Hilbert-Schmidt inner product <A, B> = sum(conj(A) * B) over the
# density tensor, a row's outcome probabilities are
# p(x) = Re <P_x, S(rho_s)> = Re <S^dagger(P_x), rho_s>: the projectors,
# carried backwards through the adjoint steps once, meet each row just
# after its shifted step.  Each forward step kind has an adjoint twin of
# its own kind: a superoperator or block matrix applies its conjugate
# transpose (for a unitary block, U^dagger on the ket axes and U^T on the
# bra axes), a diagonal its conjugate factor, a permutation the inverse
# gather.

#: Widest register whose shift sweeps contract against a suffix; wider
#: ones replay.  Each kept operator set is ``16 * 8^n`` bytes and the
#: backward pass grows with it: shifting half the parameters of 8 base
#: rows through an encoder and a ``ry, rzz, rz`` x 2 ansatz, the suffix
#: took 0.81x the replay's time at 5 qubits and 1.37x at 6 (2-core
#: x86 host), and a 7-qubit sweep peaked at 1.29 GB RSS against the
#: replay's 166 MB.  A fixed width, so the choice never depends on the
#: batch.
SUFFIX_MAX_QUBITS = 5


def _dagger(matrices: np.ndarray) -> np.ndarray:
    return matrices.conj().swapaxes(-1, -2)


def _adjoint_twin(step, n_qubits: int, layout: _Layout):
    """A step's Hilbert-Schmidt adjoint, finalized under ``layout``,
    and the map from the forward step's operand to the twin's."""
    if isinstance(step, ConstantStep):
        twin = ConstantStep(step.wires, step.matrix.conj().T)
        adjoint = None
    elif isinstance(step, PermutationStep):
        twin = PermutationStep(step.wires, np.argsort(step.source))
        adjoint = None
    elif isinstance(step, DiagStep):
        twin, adjoint = dataclasses.replace(step), np.conj
    else:  # FusedStep, WireChainStep
        twin, adjoint = dataclasses.replace(step), _dagger
    twin.finalize(n_qubits, "density", layout)
    return twin, adjoint


def _step_wires(step) -> set[int]:
    return {step.wire} if isinstance(step, WireChainStep) else set(step.wires)


def _data_first(plan: ExecutionPlan) -> ExecutionPlan:
    """A copy of ``plan`` whose encoder pieces run as early as their
    wires allow.

    A wire chain whose encoder (non-trainable) factors all come before
    its first trainable factor splits there; constants between the two
    parts stay with the encoder part.  Then each piece reading an
    encoder angle moves ahead of the earlier pieces on disjoint wires,
    never past one sharing a wire or reading an encoder angle itself —
    a reorder that only commutes disjoint-support steps.  Every piece
    is a fresh copy, finalized by the new plan.
    """
    indices = plan.param_indices

    def encoder(position: int) -> bool:
        return indices[position] is None

    pieces = []
    for step in plan.steps:
        if isinstance(step, WireChainStep):
            # Per factor: None (constant), True (encoder), False.
            kinds = [
                None if f.position is None else encoder(f.position)
                for f in step.factors
            ]
            first = kinds.index(False) if False in kinds else 0
            if any(kinds[:first]) and not any(kinds[first:]):
                pieces += [
                    dataclasses.replace(step, factors=step.factors[:first]),
                    dataclasses.replace(step, factors=step.factors[first:]),
                ]
                continue
        pieces.append(dataclasses.replace(step))

    def reads_encoder(piece) -> bool:
        return any(encoder(use.position) for use in piece.param_ops())

    steps: list = []
    for piece in pieces:
        at = len(steps)
        if reads_encoder(piece):
            wires = _step_wires(piece)
            while (
                at
                and not reads_encoder(steps[at - 1])
                and not wires & _step_wires(steps[at - 1])
            ):
                at -= 1
        steps.insert(at, piece)
    return ExecutionPlan(
        plan.n_qubits, plan.mode, steps, plan.n_source_ops, indices
    )


def _overlaps(tensor, operators: list[dict], groups, index: int):
    """``Re <O_x, rho>`` of every row against its group's operators kept
    at boundary ``index``: ``(R, 2^n)``.

    One ``(2^n, 2*4^n) @ (2*4^n, 1)`` real product per row (the float64
    view of a complex inner product's real part), so a row's bits never
    depend on how many rows share the call.
    """
    flat = tensor.reshape(tensor.shape[0], -1).view(np.float64)[:, :, None]
    if len(operators) == 1:
        return np.matmul(operators[0][index], flat)[:, :, 0]
    out = np.empty((tensor.shape[0], operators[0][index].shape[0]))
    for group, kept in enumerate(operators):
        members = groups == group
        out[members] = np.matmul(kept[index], flat[members])[:, :, 0]
    return out


def _rows_of(*parts):
    """The ``(sweep, rows)`` parts' rows, concatenated, as one sweep of
    their shared template."""
    from repro.circuits.sweep import Sweep

    return Sweep.admitted(
        parts[0][0].template,
        *(
            np.concatenate(
                [getattr(sweep, name)[rows] for sweep, rows in parts]
            )
            for name in ("literals", "params", "angles")
        ),
    )


class SuffixPlan:
    """Shift sweeps on a density :class:`ExecutionPlan` at per-example cost.

    Built once per plan (see :meth:`ExecutionPlan.suffix`) on its own
    data-first copy of the plan (:attr:`plan`, see :func:`_data_first`):
    the encoder's wire chains split off the trainable gates they share
    a wire with and run as early as their wires allow.  The forward
    plan is untouched.  The *boundary* is the copy's last step that
    reads a non-trainable angle (the encoder): step 3 of 35 on mnist4,
    where the forward plan's encoder ends at step 7 of 31.  Every later
    step reads trainable angles only, which a sweep's base rows
    normally share.  Lowering records one adjoint twin per step after
    the boundary, last step first, under a layout of its own, and the
    transpose taking the backward stack to the forward layout at every
    boundary a row can meet it: the boundary itself and each later
    parameterized step.

    :meth:`diagonals` then splits a tagged shift sweep by each row's
    shifted step alone: a row shifted after the boundary forks off its
    base row's state just before its step, applies that step with its
    own angles, and meets the operators kept right after it; a row
    shifted at or before it (a trainable gate ahead of the encoder or
    fused into one step with an encoder gate) replays its prefix (one
    trie with its base rows) through the boundary and meets the
    operators kept there.  So a row's bits depend only on its base row
    and shifted position, never on the rest of the batch.

    Each value is computed once, where it first appears.  The base rows
    are prepared once, and that one preparation serves the operators
    (sliced at one base row per distinct value of the suffix angles),
    the prefix replay and the base rows' advance; with one such value,
    each step's operand is composed once for the operators and the
    advance.  The forked rows are prepared and composed once per
    distinct value of their step's own angles (two per shifted position
    when the base rows share theta), and the operand is gathered to the
    step's rows, as the prefix trie does for its nodes.  Each kept
    operator set is ``16 * 8^n`` bytes, so plans wider than
    :data:`SUFFIX_MAX_QUBITS` build none (see :meth:`ExecutionPlan.
    suffix`).
    """

    def __init__(self, plan: ExecutionPlan):
        if plan.mode != "density":
            raise ValueError(
                "suffix contraction requires a density plan, got "
                f"{plan.mode!r}"
            )
        if plan.param_indices is None:
            raise ValueError(
                "plan was compiled without parameter-index metadata"
            )
        self.plan = plan = _data_first(plan)
        n = plan.n_qubits
        indices = plan.param_indices
        #: Step consuming each source position (-1: none).
        self._step_of = np.full(plan.n_source_ops, -1, dtype=np.intp)
        for index, positions in enumerate(plan._step_positions):
            self._step_of[positions] = index
        self.boundary = max(
            (
                index
                for index, positions in enumerate(plan._step_positions)
                if any(indices[p] is None for p in positions)
            ),
            default=-1,
        )
        # The backward stack is one tensor whose last axis is the
        # operator index, a spectator every step leaves in place: each
        # twin is one matmul or multiply, however many operators.
        layout = _Layout(2 * n + 2)
        self._twins = []
        for index in range(len(plan.steps) - 1, self.boundary, -1):
            keep = None
            if plan._step_positions[index]:
                keep = self._to_forward(layout, index)
            twin, adjoint = _adjoint_twin(plan.steps[index], n, layout)
            self._twins.append((index, twin, adjoint, keep))
        self._keep_boundary = (
            self._to_forward(layout, self.boundary)
            if self.boundary >= 0
            else None
        )
        dim = 2**n
        projectors = np.zeros((dim * dim, dim), dtype=np.complex128)
        projectors[np.arange(dim) * (dim + 1), np.arange(dim)] = 1.0
        projectors.flags.writeable = False
        self._projectors = projectors.reshape((1,) + (2,) * (2 * n) + (dim,))
        self._fresh = projectors[:, 0].reshape((1,) + (2,) * (2 * n))

    def _to_forward(self, layout: _Layout, index: int) -> tuple[int, ...]:
        """Transpose taking the backward stack, in ``layout``, to the
        operator axis first, then the forward layout after step
        ``index`` (the singleton batch axis between them)."""
        inverse = np.argsort(layout.perm)
        order = (2 * self.plan.n_qubits + 1, 0) + self.plan._perms[index][1:]
        return tuple(int(inverse[axis]) for axis in order)

    def _operands(self, matrices) -> dict[int, np.ndarray]:
        """Each forward operand after the boundary, by step index."""
        return {
            index: self.plan.steps[index].operand(matrices)
            for index in range(self.boundary + 1, len(self.plan.steps))
        }

    def _operators(self, operands, pool) -> dict[int, np.ndarray]:
        """``S^dagger(P_x)`` at every kept boundary, from batch-1 forward
        ``operands`` (see :meth:`_operands`), each as the ``(2^n,
        2*4^n)`` float64 view of the forward layout there."""
        dim = self._projectors.shape[-1]

        def kept(tensor, keep):
            flat = np.ascontiguousarray(tensor.transpose(keep))
            return flat.reshape(dim, -1).view(np.float64)

        operators = {}
        tensor, owned = self._projectors, False
        for index, twin, adjoint, keep in self._twins:
            if keep is not None:
                operators[index] = kept(tensor, keep)
            operand = operands[index]
            if adjoint is not None:
                operand = adjoint(operand)
            tensor = twin.apply(tensor, operand, owned, pool)
            owned = True
        if self._keep_boundary is not None:
            operators[self.boundary] = kept(tensor, self._keep_boundary)
        return operators

    def diagonals(self, sweep) -> np.ndarray:
        """The real diagonal of every row's final density matrix, ``(R,
        2^n)``, for a sweep tagged by :func:`~repro.gradients.
        parameter_shift.shift_sweep` (``sweep.shifts``); equal to the
        forward replay's to roundoff."""
        base, rows, positions = sweep.shifts
        plan, boundary = self.plan, self.boundary
        steps_of = self._step_of[positions]
        late = np.flatnonzero(steps_of > boundary)
        early = np.flatnonzero(steps_of <= boundary)
        n_base = base.size if late.size else 0
        late_counts = np.bincount(steps_of[late], minlength=1)
        pool = _pool_for(
            max(n_base + early.size, late_counts.max())
            * self._fresh.nbytes
        )
        step_columns = [
            [c for p in used for c in base.template.column_list(p)]
            for used in plan._step_positions
        ]

        # One set of operators per distinct value of the suffix angles,
        # each from one base row's slices of the base rows' stacks (a
        # stack the rows share stays whole).  Preparation is elementwise,
        # so a slice holds the bits preparing that row alone gives.
        base_matrices = plan.prepare(base)
        columns = list(itertools.chain(*step_columns[boundary + 1:]))
        representatives, groups = _dedupe(
            base.angles[:, columns].view(np.int64)
        )
        operands = [
            self._operands(
                [
                    m if m is None or len(m) == 1 else m[r : r + 1]
                    for m in base_matrices
                ]
            )
            for r in representatives
        ]
        operators = [self._operators(o, pool) for o in operands]
        row_groups = groups[rows]

        out = np.empty((sweep.size, self._projectors.shape[-1]))
        if n_base + early.size:
            prefix, matrices = base, base_matrices
            if early.size:
                # Its rows share their base rows' prefixes by
                # construction: always a trie.
                prefix = _rows_of((base, np.arange(n_base)), (sweep, early))
                matrices = None
            state = plan._replay(
                self._fresh,
                prefix,
                True,
                boundary + 1,
                pool,
                min_work=0,
                matrices=matrices,
            )
            if early.size:
                out[early] = _overlaps(
                    state[n_base:], operators, row_groups[early], boundary
                )
            state = state[:n_base]
        if not late.size:
            return out

        # Fork each late row off its base row just before its step.  Its
        # operand is composed once per distinct value of the step's own
        # angles (keys padded by repeating a column) and gathered.
        late_steps = steps_of[late]
        width = max(map(len, step_columns))
        table = np.array([((c or [0]) * width)[:width] for c in step_columns])
        keys = np.empty((late.size, 1 + width), dtype=np.int64)
        keys[:, 0] = late_steps
        keys[:, 1:] = sweep.angles.view(np.int64)[
            late[:, None], table[late_steps]
        ]
        first, inverse = _dedupe(keys)
        firsts = np.searchsorted(
            late_steps[first], np.arange(len(plan.steps) + 1)
        )
        fork_matrices = _prepare_matrices(
            plan._param_groups,
            plan.n_source_ops,
            sweep,
            [late[first[a:b]] for a, b in zip(firsts, firsts[1:])],
        )
        order = np.argsort(late_steps, kind="stable")
        starts = np.concatenate(([0], np.cumsum(late_counts)))
        shared = operands[0] if len(operands) == 1 else None
        last = late_counts.size - 1
        owned = False  # no step may have run since the fresh row
        for index in range(boundary + 1, last + 1):
            step = plan.steps[index]
            if late_counts[index]:
                chosen = order[starts[index] : starts[index + 1]]
                members = late[chosen]
                operand = step.operand(fork_matrices)
                operand = operand[inverse[chosen] - firsts[index]]
                forked = _take_rows(state, rows[members], pool)
                forked = step.apply(forked, operand, True, pool)
                out[members] = _overlaps(
                    forked, operators, row_groups[members], index
                )
            if index < last:
                operand = (
                    shared[index]
                    if shared is not None
                    else step.operand(base_matrices)
                )
                state = step.apply(state, operand, owned, pool)
                owned = True
        return out


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
        embed = (_block_axes(block, op), k)
        if op.parameterized:
            factors.append(
                _Factor(name=op.name, position=op.position, embed=embed)
            )
        else:
            matrix = _embed(embed, _gates.fixed_gate_matrix(op.name))
            factors.append(_Factor(matrix=matrix))
    return FusedStep(wires, _fold_factors(factors))


def _partition_unitary(ops: list[_Op], width: int) -> list[_Block]:
    """Greedy multi-open-block fusion of a noise-free op sequence.

    A gate joins the *deepest* open block that shares any of its wires
    (provided the union support stays within ``width``); every block
    opened later is then guaranteed disjoint from the gate's wires, so
    the emission reorder only ever commutes disjoint-support gates.
    When the union would exceed ``width``, that block and everything
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
            if len(union) <= width:
                open_blocks[deepest].add(op)
                continue
            emitted.extend(open_blocks[: deepest + 1])
            del open_blocks[: deepest + 1]
        open_blocks.append(_Block(op))
    emitted.extend(open_blocks)
    return emitted


def _merge_adjacent_blocks(
    blocks: list[_Block], width: int
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
            and len(set(merged[-1].wires) | set(block.wires)) <= width
        ):
            for op in block.ops:
                merged[-1].add(op)
        else:
            merged.append(block)
    return merged


def _compile_unitary(ops: list[_Op], width: int) -> list:
    steps = []
    blocks = _merge_adjacent_blocks(_partition_unitary(ops, width), width)
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
        # Lift step.source to the union index space: keep each index's
        # bits off the step's axes, put its local source's bits on them.
        local = step.source[_expand_map(axes, k)]
        lifted = np.arange(2**k) & ~sum(1 << (k - 1 - x) for x in axes)
        for t, axis in enumerate(axes):
            lifted |= ((local >> (len(axes) - 1 - t)) & 1) << (k - 1 - axis)
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
    ops: list[_Op], channels: list[dict[int, np.ndarray]]
) -> list:
    """Wire-chain lowering of a noisy op sequence (density mode).

    Single-qubit gates and their trailing channels accumulate into
    per-wire chains (one superoperator application per wire per
    segment); multi-qubit gates flush the chains on their wires, emit
    their own specialized step, and seed fresh chains with their
    channels.  Chains on untouched wires stay open across other wires'
    activity — a reorder that only ever commutes disjoint-support
    operations.  ``channels[i]`` is op ``i``'s ``{wire: superoperator}``
    from :func:`_channel_superops`.
    """
    steps: list = []
    chains: "OrderedDict[int, list[_Factor]]" = OrderedDict()

    def flush(wire: int) -> None:
        factors = chains.pop(wire, None)
        if factors:
            steps.append(WireChainStep(wire, _fold_factors(factors)))

    for op, superops in zip(ops, channels):
        if len(op.wires) == 1:
            chain = chains.setdefault(op.wires[0], [])
            if op.parameterized:
                chain.append(
                    _Factor(
                        name=op.name, position=op.position, embed="kron"
                    )
                )
            else:
                matrix = _gates.fixed_gate_matrix(op.name)
                chain.append(_Factor(matrix=_kron_conj(matrix)))
        else:
            for wire in op.wires:
                flush(wire)
            step = _finalize_block(_Block(op))
            if step is not None:
                steps.append(step)
        for wire, superop in superops.items():
            chains.setdefault(wire, []).append(_Factor(matrix=superop))
    for wire in list(chains):
        flush(wire)
    return steps


def _channel_superops(ops: list[_Op], noise_model) -> list[dict]:
    """Per op, the ``{wire: 4x4 superoperator}`` of its trailing channels.

    Each wire's channels compose in the order ``channels_for`` yields
    them, left-multiplying from the identity exactly as
    :meth:`~repro.noise.NoiseModel.superop_for` does; channels on
    different wires commute, so yield order across wires is free.  A
    model that hands out the same Kraus lists per gate type composes
    each distinct wire stack once per compile.
    """
    composed: dict[tuple, tuple] = {}  # stack ids -> (stack, superop)
    out = []
    for op in ops:
        stacks: dict[int, list] = {}
        for kraus_ops, wires in noise_model.channels_for(
            _TemplateView(op.name, op.wires)
        ):
            if len(wires) != 1:
                raise ValueError(
                    f"channel after {op.name!r} acts on wires "
                    f"{tuple(wires)}; plans lower single-wire channels only"
                )
            stacks.setdefault(int(wires[0]), []).append(kraus_ops)
        superops = {}
        for wire, stack in stacks.items():
            key = tuple(map(id, stack))
            if key not in composed:
                superop = _EYE4
                for kraus_ops in stack:
                    superop = _apply.kraus_to_superop(kraus_ops) @ superop
                # Holding the stack keeps its ids from being reused.
                composed[key] = (stack, superop)
            superops[wire] = composed[key][1]
        out.append(superops)
    return out


@dataclasses.dataclass(frozen=True)
class _TemplateView:
    """The (name, wires) view noise-model lookups need."""

    name: str
    wires: tuple[int, ...]


def compile_circuit(
    circuit, mode: str = "statevector", noise_model=None
) -> ExecutionPlan:
    """Lower a circuit's structure into an :class:`ExecutionPlan`.

    Fused blocks span up to ``min(FUSE_MAX, max(2, n // 2))`` wires of
    an ``n``-qubit register: 2 below 6 qubits, 3 from there on.

    Args:
        circuit: A representative :class:`~repro.circuits.
            QuantumCircuit`; only its structure (gate names, wires,
            which ops carry parameters) is read — angle values never
            enter the plan, so the plan serves every circuit sharing
            the representative's ``structure_signature``.
        mode: ``"statevector"`` or ``"density"``.
        noise_model: Optional noise model (density mode only): any
            object whose ``channels_for(op)`` yields ``(kraus_ops,
            wires)`` pairs after each op.  Each wire's channels are
            baked in as one precomposed superoperator folded into that
            wire's chain; a channel on more than one wire raises
            ``ValueError``.  The plan is only valid for this exact model
            — cache accordingly.

    Returns:
        The compiled plan.
    """
    if mode not in ("statevector", "density"):
        raise ValueError("mode must be 'statevector' or 'density'")
    if noise_model is not None and mode != "density":
        raise ValueError("noise models require density mode")
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

    width = min(FUSE_MAX, max(2, circuit.n_qubits // 2))
    if noise_model is None:
        steps = _compile_unitary(ops, width)
    else:
        channels = _channel_superops(ops, noise_model)
        if any(channels):
            steps = _compile_noisy_superop(ops, channels)
        else:
            # Noise-free model (scale 0): full unitary fusion.
            steps = _compile_unitary(ops, width)
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
