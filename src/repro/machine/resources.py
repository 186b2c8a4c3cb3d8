"""Issue-resource bookkeeping shared by the scheduler's reservation table.

Resources come in two scopes: per-cluster functional-unit slots (INT,
MEM, FP — one op may issue per unit per cycle, units are fully
pipelined) and the four machine-wide register-to-register buses used by
communication operations.

Every resource also has a dense integer *slot id* (``BUS_SLOT`` for the
bus pool, :meth:`ResourceModel.fu_slot` for the FU classes), indexing
:attr:`ResourceModel.capacities`; the reservation table stores its
counts in a flat list on those ids, so hot scheduler loops never hash a
resource object.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.operations import FUClass
from .config import MachineConfig


@dataclass(frozen=True)
class ClusterResource:
    """A functional-unit slot class within one cluster."""

    fu_class: FUClass
    cluster: int

    def __repr__(self) -> str:
        return f"{self.fu_class.value}@c{self.cluster}"


@dataclass(frozen=True)
class BusResource:
    """The shared pool of inter-cluster buses (capacity = n_buses)."""

    def __repr__(self) -> str:
        return "bus"


BUS = BusResource()

#: Slot id of the shared bus pool.
BUS_SLOT = 0

#: Per-cluster FU classes, in slot-id order within a cluster.
_FU_CLASSES = (FUClass.INT, FUClass.MEM, FUClass.FP)


class ResourceModel:
    """Capacity lookup for every resource the reservation table tracks."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        per_cluster = {
            FUClass.INT: config.int_units_per_cluster,
            FUClass.MEM: config.mem_units_per_cluster,
            FUClass.FP: config.fp_units_per_cluster,
        }
        #: The resource and its capacity per slot id.
        self.slots: list[object] = [BUS]
        self.capacities: list[int] = [config.n_buses]
        for cluster in range(config.n_clusters):
            for fu_class in _FU_CLASSES:
                self.slots.append(ClusterResource(fu_class, cluster))
                self.capacities.append(per_cluster[fu_class])
        self._slot = {resource: slot for slot, resource in enumerate(self.slots)}

    @property
    def config(self) -> MachineConfig:
        return self._config

    @property
    def n_slots(self) -> int:
        return len(self.capacities)

    def slot_of(self, resource: object) -> int | None:
        """Slot id of ``resource``, or ``None`` if the machine lacks it."""
        return self._slot.get(resource)

    def capacity(self, resource: object) -> int:
        slot = self._slot.get(resource)
        return 0 if slot is None else self.capacities[slot]

    def fu_resource(self, fu_class: FUClass, cluster: int) -> ClusterResource:
        if fu_class not in _FU_CLASSES:
            raise ValueError(f"{fu_class} is not a per-cluster FU class")
        if not 0 <= cluster < self._config.n_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        return ClusterResource(fu_class, cluster)

    def fu_slot(self, fu_class: FUClass, cluster: int) -> int:
        """Slot id of ``fu_class`` in ``cluster`` (validated like
        :meth:`fu_resource`)."""
        return self._slot[self.fu_resource(fu_class, cluster)]

    def total_fu_slots(self, fu_class: FUClass) -> int:
        """Machine-wide issue slots per cycle for one FU class."""
        return self._config.fu_count(fu_class) * self._config.n_clusters
