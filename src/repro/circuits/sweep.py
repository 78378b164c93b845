"""Angle-matrix sweeps: one circuit structure, ``B`` rows of values.

Everything the training loop submits in one backend call — a
mini-batch's forward circuits, their ``theta ± pi/2`` parameter-shift
rows, a validation pass — shares one structure and differs only in
angle values.  A :class:`Sweep` states exactly that: a validated
:class:`SweepTemplate` (gate names, wires, parameter slots) plus a
``(B, n_columns)`` float64 matrix of per-row values, so the compiled
simulation plans can consume the angles directly without a
``QuantumCircuit`` object per row.

Column layout
-------------
Column ``p`` holds the value of the op at position ``p``: a fixed op's
literal angle, or a trainable op's *offset* (the parameter-shift
engine writes ``± pi/2`` there).  Parameterless ops keep an unused
0.0 column, and multi-parameter fixed ops (``u3``) put their first
angle in their own column and the rest in extra columns appended after
the last op.  Each row also carries its trainable parameter vector
``theta``; the resolved angles (:attr:`Sweep.angles`) are the values
plus ``theta[param_index]`` in the trainable columns — the same float64
``offset + theta`` arithmetic a circuit's own resolution performs, so a
sweep and the circuits it stands for execute bit-identically.

Keeping offsets and ``theta`` apart (instead of only the resolved
angles) is what lets :meth:`Sweep.circuits` rebuild exactly the
circuits the circuit API would have built, for the one kernel that
needs per-row circuits (transpiled execution: routing bakes the angles
into the decomposition).
"""

from __future__ import annotations

import functools
import hashlib
from itertools import compress
from operator import is_not
from typing import NamedTuple

import numpy as np

from repro.resilience.errors import InvalidCircuitError


class SweepTemplate:
    """The structure every row of a sweep shares.

    Built from a representative circuit; only its structure is read
    (plus its values, as the reference row :meth:`Sweep.circuits`
    shares templates against).  Validation runs once per template, not
    once per sweep.

    Attributes:
        reference: A private copy of the representative circuit (read
            only): rows materialize as value-edited copies of it.
        n_qubits: Register width.
        templates: The representative's operation templates.
        num_parameters: Length of each row's ``theta``.
        n_columns: Width of the value matrix.
        literals: The representative's ``(n_columns,)`` value row.
        trainable_columns: Column of every trainable op, in op order.
        trainable_params: Parameter index of every trainable op.
    """

    def __init__(self, circuit):
        # Warm the structure caches so circuits materialized from this
        # template inherit them (grouping compares them by identity).
        circuit.structure_signature()
        circuit.structure_key()
        circuit.occurrences_of(0)
        self.reference = circuit.copy()
        self.n_qubits = circuit.n_qubits
        self.templates = circuit.templates
        self.num_parameters = circuit.num_parameters
        n_ops = len(self.templates)
        values: list[float] = [0.0] * n_ops
        extra: list[float] = []
        extra_owners: list[int] = []
        columns: list = []
        trainable_columns: list[int] = []
        trainable_params: list[int] = []
        for pos, template in enumerate(self.templates):
            if template.param_index is not None:
                values[pos] = template.offset
                trainable_columns.append(pos)
                trainable_params.append(template.param_index)
                columns.append(slice(pos, pos + 1))
            elif not template.params:
                columns.append(None)
            elif len(template.params) == 1:
                values[pos] = template.params[0]
                columns.append(slice(pos, pos + 1))
            else:
                values[pos] = template.params[0]
                first = n_ops + len(extra)
                extra.extend(template.params[1:])
                extra_owners.extend([pos] * (len(template.params) - 1))
                columns.append(
                    np.array(
                        [pos, *range(first, n_ops + len(extra))],
                        dtype=np.intp,
                    )
                )
        #: Per-op column selector: a slice, an index array (multi-
        #: parameter ops), or ``None`` for parameterless ops.
        self.columns = columns
        #: The op position each column belongs to.
        self.owners = np.array(
            list(range(n_ops)) + extra_owners, dtype=np.intp
        )
        self.literals = np.array(values + extra, dtype=np.float64)
        self.n_columns = self.literals.size
        self.trainable_columns = np.array(trainable_columns, dtype=np.intp)
        self.trainable_params = np.array(trainable_params, dtype=np.intp)
        self._validated = False

    # -- structure (the circuit-side query surface plans and engines use)

    def structure_signature(self) -> tuple:
        return self.reference.structure_signature()

    def occurrences_of(self, param_index: int) -> list[int]:
        return self.reference.occurrences_of(param_index)

    def validate(self) -> None:
        """Structural checks of :meth:`QuantumCircuit.validate`, once."""
        if not self._validated:
            self.reference.validate()
            self._validated = True

    @functools.cached_property
    def digest(self) -> str:
        """Stable hex name of the structure, across processes.

        Templates of one structure and parameter count share it, and
        execute any value matrix identically — the worker pool ships a
        template to each worker once and names it by this afterwards.
        """
        identity = repr((self.structure_signature(), self.num_parameters))
        return hashlib.blake2b(
            identity.encode("utf-8"), digest_size=16
        ).hexdigest()

    def stack(self, circuits) -> tuple[np.ndarray, np.ndarray]:
        """The ``(literals, params)`` rows of circuits of this structure.

        Each row is read as a diff of the row before it (the first row
        as a diff of the reference).  Circuits share template objects
        wherever their values agree — parameter-shift clones of one base
        differ from each other in one or two positions,
        :meth:`~repro.circuits.QnnArchitecture.full_circuit` rows in the
        encoder's — so one identity scan per row finds the few templates
        to read, and a vectorized forward fill copies every other value
        down from the row that last wrote it.  A one-row group is
        written directly.  The caller guarantees every circuit has this
        structure and parameter count.
        """
        n_rows, n_columns = len(circuits), self.n_columns
        previous = self.reference._templates
        positions = range(len(previous))
        # Flat indices into the ``(n_rows, n_columns)`` matrix of every
        # value read, in row order.
        flat: list[int] = []
        values: list[float] = []
        offset = 0
        for circuit in circuits:
            row = circuit._templates
            for pos in compress(positions, map(is_not, row, previous)):
                t = row[pos]
                if t.param_index is not None:
                    flat.append(offset + pos)
                    values.append(t.offset)
                elif len(t.params) == 1:
                    flat.append(offset + pos)
                    values.append(t.params[0])
                elif t.params:
                    flat.extend(
                        offset + column for column in self.column_list(pos)
                    )
                    values.extend(t.params)
            previous = row
            offset += n_columns
        if n_rows == 1:
            literals = self.literals.copy()
            literals[flat] = values
        else:
            # Entry ``(row, column)`` takes the last value read for the
            # column at or above ``row``, else the reference's: the
            # running maximum of indices into ``reference + values``.
            source = np.zeros(n_rows * n_columns, dtype=np.intp)
            source[:n_columns] = np.arange(n_columns)
            source[flat] = np.arange(n_columns, n_columns + len(flat))
            source = np.maximum.accumulate(
                source.reshape(n_rows, n_columns), axis=0
            )
            literals = np.concatenate((self.literals, values))[source]
        params = np.array([circuit._parameters for circuit in circuits])
        return literals.reshape(n_rows, n_columns), params

    def column_list(self, position: int) -> list[int]:
        """The value columns of op ``position`` as a list."""
        selector = self.columns[position]
        if selector is None:
            return []
        if isinstance(selector, slice):
            return [selector.start]
        return selector.tolist()

    def materialize(self, literals: np.ndarray, params: np.ndarray) -> list:
        """One circuit per value row, exactly as the circuit API builds it.

        Ops whose values match the reference row bit for bit reuse the
        reference template; other positions get one template per
        distinct value, shared between the rows that carry it.
        """
        reference = self.reference
        base = reference._templates
        differs = (
            literals.view(np.int64) != self.literals.view(np.int64)
        ).any(axis=0)
        positions = np.unique(self.owners[differs]).tolist()
        per_position = []
        for pos in positions:
            columns = self.column_list(pos)
            bits = literals[:, columns].view(np.int64)
            values = literals[:, columns].tolist()
            shared: dict = {}
            row_templates = []
            for key, value in zip(map(tuple, bits.tolist()), values):
                template = shared.get(key)
                if template is None:
                    template = shared[key] = base[pos].revalued(value)
                row_templates.append(template)
            per_position.append((pos, row_templates))
        circuits = []
        for row in range(literals.shape[0]):
            templates = list(base)
            for pos, row_templates in per_position:
                templates[pos] = row_templates[row]
            circuits.append(reference._with(templates, params[row].copy()))
        return circuits

    def __repr__(self) -> str:
        return (
            f"SweepTemplate({self.n_qubits} qubits, {len(self.templates)} "
            f"ops, {self.n_columns} columns)"
        )


class Shifts(NamedTuple):
    """Where the rows of a parameter-shift sweep come from.

    Attributes:
        base: The unshifted sweep.
        rows: ``(R,)`` base row of each shifted row.
        positions: ``(R,)`` op position whose angle each row shifts.
    """

    base: "Sweep"
    rows: np.ndarray
    positions: np.ndarray


class Sweep:
    """``B`` rows of values over one :class:`SweepTemplate`.

    Args:
        template: The shared structure.
        literals: ``(B, n_columns)`` values — literal angles of fixed
            ops, offsets of trainable ops (see the module docstring).
        params: ``(B, num_parameters)`` per-row trainable vectors.

    Raises:
        InvalidCircuitError: A resolved angle is NaN or infinite.

    Attributes:
        angles: Resolved ``(B, n_columns)`` angles — what the plans
            execute (via :meth:`op_params`).
        shifts: ``None``, or on a sweep built by :func:`~repro.
            gradients.parameter_shift.shift_sweep` (and nowhere else)
            its :class:`Shifts`.  Noisy backends read it to contract
            rows against a shared suffix; every other consumer ignores
            it, and sweeps rebuilt from a sweep's rows drop it.
    """

    def __init__(self, template: SweepTemplate, literals, params):
        literals = np.asarray(literals, dtype=np.float64)
        params = np.asarray(params, dtype=np.float64)
        if literals.ndim != 2 or literals.shape[0] < 1:
            raise ValueError(
                "a sweep needs a non-empty (B, n_columns) value matrix"
            )
        if literals.shape[1] != template.n_columns:
            raise ValueError(
                f"value matrix has {literals.shape[1]} columns, the "
                f"template {template.n_columns}"
            )
        if params.shape != (literals.shape[0], template.num_parameters):
            raise ValueError(
                f"params must be ({literals.shape[0]}, "
                f"{template.num_parameters}), got {params.shape}"
            )
        angles = literals.copy()
        if template.trainable_columns.size:
            angles[:, template.trainable_columns] += params[
                :, template.trainable_params
            ]
        # The admission check every execution path shares: one
        # vectorized pass over the stacked angles.
        finite = np.isfinite(angles)
        if not finite.all():
            row, column = np.argwhere(~finite)[0]
            raise InvalidCircuitError(
                f"row {row} has a non-finite angle {angles[row, column]} "
                f"in column {column}"
            )
        self._bind(template, literals, params, angles)

    def _bind(self, template, literals, params, angles) -> None:
        self.template = template
        self.literals = literals
        self.params = params
        self.size = literals.shape[0]
        self.n_qubits = template.n_qubits
        self.templates = template.templates
        self.angles = angles
        self.shifts = None

    @classmethod
    def admitted(
        cls,
        template: SweepTemplate,
        literals: np.ndarray,
        params: np.ndarray,
        angles: np.ndarray,
    ) -> "Sweep":
        """A sweep of rows taken from admitted sweeps of ``template``.

        ``angles`` are those rows' resolved angles, already checked, so
        nothing is re-derived — the serving tier's flushes concatenate
        admitted rows this way.
        """
        sweep = cls.__new__(cls)
        sweep._bind(template, literals, params, angles)
        return sweep

    # -- what compiled plans and gradient engines read -------------------

    @property
    def num_parameters(self) -> int:
        return self.template.num_parameters

    def structure_signature(self) -> tuple:
        return self.template.structure_signature()

    def num_operations(self) -> int:
        """Gate count of the common structure."""
        return len(self.templates)

    def op_params(self, position: int) -> np.ndarray | None:
        """Resolved ``(B, num_params)`` angles of op ``position``.

        ``None`` for parameterless gates.
        """
        selector = self.template.columns[position]
        if selector is None:
            return None
        return self.angles[:, selector]

    def row_keys(self) -> list[bytes]:
        """One exact-result cache key per row, in row order.

        A 16-byte BLAKE2b digest of the row's resolved :attr:`angles`
        bits, salted with the template's :attr:`SweepTemplate.digest`
        (structure and parameter count): rows of one structure whose
        angles agree bit for bit share a key, however they were
        submitted, so a deterministic backend gives them identical
        results.  ``0.0`` and ``-0.0`` key apart.  The keys live only
        in memory; :func:`~repro.circuits.circuit_fingerprint` is the
        stable, persistable identity.
        """
        angles = np.ascontiguousarray(self.angles)
        width = angles.itemsize * angles.shape[1]
        rows = (
            angles.view(np.dtype((np.void, width))).ravel().tolist()
            if width else [b""] * self.size
        )
        salted = hashlib.blake2b(
            digest_size=16, salt=bytes.fromhex(self.template.digest)
        )
        keys = []
        for row in rows:
            hasher = salted.copy()
            hasher.update(row)
            keys.append(hasher.digest())
        return keys

    def circuits(self) -> list:
        """The ``QuantumCircuit`` of every row, in row order."""
        return self.template.materialize(self.literals, self.params)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.size} rows, {self.n_qubits} "
            f"qubits, {len(self.templates)} ops)"
        )
