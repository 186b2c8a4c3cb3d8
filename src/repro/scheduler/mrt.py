"""The modulo reservation table.

Tracks, for each kernel row (cycle modulo II) and each resource, how
many issue slots are occupied.  All placements go through this table so
the final schedule can never oversubscribe a functional unit or bus.
"""

from __future__ import annotations

from ..isa.operations import FUClass
from ..machine.resources import BUS, ResourceModel


class ModuloReservationTable:
    def __init__(self, ii: int, resources: ResourceModel) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        self._resources = resources
        self._used: dict[tuple[int, object], int] = {}

    def _key(self, cycle: int, resource: object) -> tuple[int, object]:
        return (cycle % self.ii, resource)

    def used(self, cycle: int, resource: object) -> int:
        return self._used.get(self._key(cycle, resource), 0)

    def free(self, cycle: int, resource: object) -> int:
        return self._resources.capacity(resource) - self.used(cycle, resource)

    def can_place(self, cycle: int, resource: object) -> bool:
        return self.free(cycle, resource) > 0

    def place(self, cycle: int, resource: object) -> None:
        if not self.can_place(cycle, resource):
            raise ValueError(f"resource {resource!r} full at row {cycle % self.ii}")
        key = self._key(cycle, resource)
        self._used[key] = self._used.get(key, 0) + 1

    def remove(self, cycle: int, resource: object) -> None:
        key = self._key(cycle, resource)
        count = self._used.get(key, 0)
        if count <= 0:
            raise ValueError(
                f"resource {resource!r} not placed at row {cycle % self.ii}"
            )
        if count == 1:
            del self._used[key]
        else:
            self._used[key] = count - 1

    # Convenience wrappers ------------------------------------------------

    def fu_can_place(self, cycle: int, fu_class: FUClass, cluster: int) -> bool:
        return self.can_place(cycle, self._resources.fu_resource(fu_class, cluster))

    def fu_place(self, cycle: int, fu_class: FUClass, cluster: int) -> None:
        self.place(cycle, self._resources.fu_resource(fu_class, cluster))

    def fu_remove(self, cycle: int, fu_class: FUClass, cluster: int) -> None:
        self.remove(cycle, self._resources.fu_resource(fu_class, cluster))

    def bus_can_place(self, cycle: int) -> bool:
        return self.can_place(cycle, BUS)

    def bus_place(self, cycle: int) -> None:
        self.place(cycle, BUS)

    def bus_remove(self, cycle: int) -> None:
        self.remove(cycle, BUS)
