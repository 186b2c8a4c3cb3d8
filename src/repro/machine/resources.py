"""Issue-resource bookkeeping shared by the scheduler's reservation table.

Resources come in two scopes: per-cluster functional-unit slots (INT,
MEM, FP — one op may issue per unit per cycle, units are fully
pipelined) and the four machine-wide register-to-register buses used by
communication operations.
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


class ResourceModel:
    """Capacity lookup for every resource the reservation table tracks."""

    def __init__(self, config: MachineConfig) -> None:
        self._config = config
        self._capacity: dict[object, int] = {BUS: config.n_buses}
        per_cluster = {
            FUClass.INT: config.int_units_per_cluster,
            FUClass.MEM: config.mem_units_per_cluster,
            FUClass.FP: config.fp_units_per_cluster,
        }
        for cluster in range(config.n_clusters):
            for fu_class, units in per_cluster.items():
                self._capacity[ClusterResource(fu_class, cluster)] = units

    @property
    def config(self) -> MachineConfig:
        return self._config

    def capacity(self, resource: object) -> int:
        return self._capacity.get(resource, 0)

    def fu_resource(self, fu_class: FUClass, cluster: int) -> ClusterResource:
        if fu_class not in (FUClass.INT, FUClass.MEM, FUClass.FP):
            raise ValueError(f"{fu_class} is not a per-cluster FU class")
        if not 0 <= cluster < self._config.n_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        return ClusterResource(fu_class, cluster)

    def total_fu_slots(self, fu_class: FUClass) -> int:
        """Machine-wide issue slots per cycle for one FU class."""
        return self._config.fu_count(fu_class) * self._config.n_clusters
