"""Circuit operations: a gate instance placed on specific wires.

Two flavours exist:

* **fixed** operations carry literal parameter values (encoder rotations
  whose angles are the classical input data, or non-parameterized gates
  like CZ), and
* **trainable** operations reference an entry of the circuit's trainable
  parameter vector via ``param_index``; their resolved angle is
  ``theta[param_index] + offset``.  The ``offset`` field is how the
  parameter-shift engine builds the ``theta ± pi/2`` circuits without
  touching the shared parameter vector.
"""

from __future__ import annotations

import dataclasses

from repro.sim import gates as _gates


@dataclasses.dataclass(frozen=True)
class OpTemplate:
    """Structural description of one gate placement in a circuit.

    Attributes:
        name: Gate name (must exist in :data:`repro.sim.gates.GATES`).
        wires: Qubit indices, in gate wire order.
        params: Literal parameter values for fixed operations.  Must be
            empty for trainable operations (the value comes from the
            circuit's parameter vector).
        param_index: Index into the circuit's trainable parameter vector,
            or ``None`` for fixed operations.
        offset: Additive angle offset applied to the trainable parameter
            (used by parameter shifting).
    """

    name: str
    wires: tuple[int, ...]
    params: tuple[float, ...] = ()
    param_index: int | None = None
    offset: float = 0.0

    def __post_init__(self) -> None:
        spec = _gates.get_gate(self.name)
        object.__setattr__(self, "name", spec.name)
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        object.__setattr__(
            self, "params", tuple(float(p) for p in self.params)
        )
        if len(self.wires) != spec.num_wires:
            raise ValueError(
                f"gate {self.name!r} needs {spec.num_wires} wires, got "
                f"{self.wires}"
            )
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(
                f"gate {self.name!r} repeats a wire in {self.wires}"
            )
        if self.param_index is not None:
            if spec.num_params != 1:
                raise ValueError(
                    f"trainable gate {self.name!r} must take exactly one "
                    f"parameter"
                )
            if self.params:
                raise ValueError(
                    "trainable operations must not carry literal params"
                )
            if self.param_index < 0:
                raise ValueError("param_index must be non-negative")
        else:
            if len(self.params) != spec.num_params:
                raise ValueError(
                    f"gate {self.name!r} takes {spec.num_params} params, "
                    f"got {len(self.params)}"
                )

    @property
    def is_trainable(self) -> bool:
        """True when the operation references a trainable parameter."""
        return self.param_index is not None

    def shifted(self, delta: float) -> "OpTemplate":
        """Return a copy with ``offset`` increased by ``delta``.

        Built without re-running ``__post_init__`` — every field except
        the offset is taken, already normalized and validated, from
        ``self``.  The parameter-shift engine mints two clones per
        selected parameter per step, so this sits on the training hot
        path.
        """
        if self.param_index is None:
            raise ValueError("cannot shift a fixed operation")
        clone = object.__new__(OpTemplate)
        object.__setattr__(clone, "name", self.name)
        object.__setattr__(clone, "wires", self.wires)
        object.__setattr__(clone, "params", self.params)
        object.__setattr__(clone, "param_index", self.param_index)
        object.__setattr__(clone, "offset", self.offset + delta)
        return clone

    def revalued(self, values: tuple[float, ...]) -> "OpTemplate":
        """Copy carrying new values: a trainable op's ``(offset,)``, a
        fixed op's literal ``params``.

        Built like :meth:`shifted`, without re-validation — a
        :class:`~repro.circuits.sweep.Sweep` materializes its rows into
        circuits through this, one call per distinct value.
        """
        clone = object.__new__(OpTemplate)
        object.__setattr__(clone, "name", self.name)
        object.__setattr__(clone, "wires", self.wires)
        object.__setattr__(clone, "param_index", self.param_index)
        if self.param_index is None:
            object.__setattr__(clone, "params", tuple(values))
            object.__setattr__(clone, "offset", self.offset)
        else:
            object.__setattr__(clone, "params", self.params)
            object.__setattr__(clone, "offset", values[0])
        return clone


@dataclasses.dataclass(frozen=True)
class BoundOp:
    """An operation with fully resolved numeric parameters."""

    name: str
    wires: tuple[int, ...]
    params: tuple[float, ...]
    param_index: int | None = None

    def matrix(self):
        """The concrete unitary for this operation."""
        return _gates.get_gate(self.name).matrix(*self.params)
