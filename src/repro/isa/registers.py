"""Virtual registers for the loop-level IR.

The IR is register-based but not SSA: a virtual register may be written
once per loop iteration and read by any number of consumers, including
consumers in later iterations (loop-carried uses, expressed as DDG edge
distances).  Physical register allocation is out of scope; the scheduler
estimates register pressure instead (paper section 4.2 notes pressure
mainly matters through spills, which our machine model folds into the
MaxLive cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count


@dataclass(frozen=True, order=True, slots=True)
class VReg:
    """A virtual register, identified by an integer id.

    The optional name is purely cosmetic (used in disassembly and
    debugging output) and does not participate in equality.
    """

    rid: int
    name: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"%{self.name or self.rid}"


class RegisterFactory:
    """Allocates fresh virtual registers with unique ids."""

    def __init__(self) -> None:
        self._ids = count()

    def new(self, name: str = "") -> VReg:
        return VReg(next(self._ids), name)

    def batch(self, n: int, prefix: str = "r") -> list[VReg]:
        return [self.new(f"{prefix}{i}") for i in range(n)]
