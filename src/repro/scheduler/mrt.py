"""The modulo reservation table.

Tracks, for each kernel row (cycle modulo II) and each resource, how
many issue slots are occupied.  All placements go through this table so
the final schedule can never oversubscribe a functional unit or bus.

The counts live in one flat list indexed by ``row * n_slots + slot``,
where ``slot`` is the resource's dense id from
:class:`~repro.machine.resources.ResourceModel`.  The ``slot_*`` and
``bus_free`` methods take those ids directly (the schedulers' hot
paths); the object-keyed methods resolve a resource to its id first and
treat resources the machine lacks as zero-capacity.
"""

from __future__ import annotations

from ..isa.operations import FUClass
from ..machine.resources import BUS_SLOT, ResourceModel


class ModuloReservationTable:
    def __init__(self, ii: int, resources: ResourceModel) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        self._resources = resources
        self._n_slots = resources.n_slots
        self._capacity = resources.capacities
        self._used = [0] * (ii * resources.n_slots)

    # Dense slot ids ------------------------------------------------------

    def slot_can_place(self, cycle: int, slot: int) -> bool:
        return self._used[cycle % self.ii * self._n_slots + slot] < self._capacity[slot]

    def slot_place(self, cycle: int, slot: int) -> None:
        index = cycle % self.ii * self._n_slots + slot
        if self._used[index] >= self._capacity[slot]:
            raise self._full(cycle, self._resources.slots[slot])
        self._used[index] += 1

    def slot_remove(self, cycle: int, slot: int) -> None:
        index = cycle % self.ii * self._n_slots + slot
        if self._used[index] <= 0:
            raise self._unplaced(cycle, self._resources.slots[slot])
        self._used[index] -= 1

    def bus_free(self, cycle: int) -> int:
        """Buses still free in ``cycle``'s row."""
        index = cycle % self.ii * self._n_slots + BUS_SLOT
        return self._capacity[BUS_SLOT] - self._used[index]

    # Resource objects ----------------------------------------------------

    def used(self, cycle: int, resource: object) -> int:
        slot = self._resources.slot_of(resource)
        if slot is None:
            return 0
        return self._used[cycle % self.ii * self._n_slots + slot]

    def free(self, cycle: int, resource: object) -> int:
        return self._resources.capacity(resource) - self.used(cycle, resource)

    def can_place(self, cycle: int, resource: object) -> bool:
        return self.free(cycle, resource) > 0

    def place(self, cycle: int, resource: object) -> None:
        slot = self._resources.slot_of(resource)
        if slot is None:
            raise self._full(cycle, resource)
        self.slot_place(cycle, slot)

    def remove(self, cycle: int, resource: object) -> None:
        slot = self._resources.slot_of(resource)
        if slot is None:
            raise self._unplaced(cycle, resource)
        self.slot_remove(cycle, slot)

    def _full(self, cycle: int, resource: object) -> ValueError:
        return ValueError(f"resource {resource!r} full at row {cycle % self.ii}")

    def _unplaced(self, cycle: int, resource: object) -> ValueError:
        return ValueError(f"resource {resource!r} not placed at row {cycle % self.ii}")

    # Convenience wrappers ------------------------------------------------

    def fu_can_place(self, cycle: int, fu_class: FUClass, cluster: int) -> bool:
        return self.slot_can_place(cycle, self._resources.fu_slot(fu_class, cluster))

    def fu_place(self, cycle: int, fu_class: FUClass, cluster: int) -> None:
        self.slot_place(cycle, self._resources.fu_slot(fu_class, cluster))

    def fu_remove(self, cycle: int, fu_class: FUClass, cluster: int) -> None:
        self.slot_remove(cycle, self._resources.fu_slot(fu_class, cluster))

    def bus_can_place(self, cycle: int) -> bool:
        return self.bus_free(cycle) > 0

    def bus_place(self, cycle: int) -> None:
        self.slot_place(cycle, BUS_SLOT)

    def bus_remove(self, cycle: int) -> None:
        self.slot_remove(cycle, BUS_SLOT)
