"""Machine configurations (paper Table 2) for all evaluated architectures.

Four memory architectures share the same clustered VLIW core:

* ``UNIFIED``   — unified L1, no L0 buffers (the normalisation baseline);
* ``L0``        — unified L1 plus per-cluster flexible compiler-managed
  L0 buffers (the paper's proposal);
* ``MULTIVLIW`` — snoop-coherent distributed L1 (Sánchez & González,
  MICRO-33), the complex comparison point in Figure 7;
* ``INTERLEAVED`` — word-interleaved distributed L1 with attraction
  buffers (Gibert et al., MICRO-35), the simple comparison point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..isa.operations import Opcode


class ArchKind(enum.Enum):
    UNIFIED = "unified"
    L0 = "l0"
    MULTIVLIW = "multivliw"
    INTERLEAVED = "interleaved"


def _default_latencies() -> dict[Opcode, int]:
    return {op: op.default_latency for op in Opcode}


@dataclass(frozen=True)
class MachineConfig:
    """All architectural parameters needed by the scheduler and simulator.

    Defaults reproduce the paper's Table 2.  ``l0_entries is None`` means
    an unbounded buffer (the rightmost bars of Figure 5).
    """

    arch: ArchKind = ArchKind.L0

    # Core
    n_clusters: int = 4
    int_units_per_cluster: int = 1
    mem_units_per_cluster: int = 1
    fp_units_per_cluster: int = 1
    max_live_per_cluster: int = 64  # register pressure cap per cluster

    # L0 buffers (only meaningful for ArchKind.L0)
    l0_entries: int | None = 8
    l0_latency: int = 1
    l0_ports: int = 2

    # Unified L1 (also the backing store of the distributed designs)
    l1_latency: int = 6  # 2 request + 2 access + 2 response
    l1_size: int = 8 * 1024
    l1_assoc: int = 2
    l1_block: int = 32
    interleave_penalty: int = 1  # extra cycle for shift/interleave logic

    # L2 — always hits
    l2_latency: int = 10

    # Inter-cluster register buses
    n_buses: int = 4
    bus_latency: int = 2

    # Distributed-L1 parameters (MULTIVLIW / INTERLEAVED).  Remote module
    # access is cheaper than a round trip to the far-away unified L1
    # (modules sit inside the cluster ring), which is what makes the
    # distributed designs competitive in Figure 7.
    distributed_local_latency: int = 2
    distributed_remote_latency: int = 4
    coherence_penalty: int = 1  # extra cycles for an MSI ownership change
    attraction_entries: int = 8
    attraction_latency: int = 1

    # Operation latencies (producer to consumer)
    op_latencies: dict[Opcode, int] = field(default_factory=_default_latencies)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if self.l1_block % self.n_clusters:
            raise ValueError("L1 block size must divide evenly into subblocks")
        if self.l0_entries is not None and self.l0_entries < 1:
            raise ValueError("l0_entries must be positive or None (unbounded)")

    @property
    def subblock_bytes(self) -> int:
        """L0 line size: an L1 block split across the clusters (section 3)."""
        return self.l1_block // self.n_clusters

    def latency_of(self, opcode: Opcode) -> int:
        return self.op_latencies[opcode]

    def fu_count(self, fu_class: "FUClass") -> int:  # noqa: F821 - doc only
        from ..isa.operations import FUClass

        per_cluster = {
            FUClass.INT: self.int_units_per_cluster,
            FUClass.MEM: self.mem_units_per_cluster,
            FUClass.FP: self.fp_units_per_cluster,
        }
        return per_cluster.get(fu_class, 0)

    def with_l0_entries(self, entries: int | None) -> "MachineConfig":
        return replace(self, l0_entries=entries)


def unified_config(**overrides: object) -> MachineConfig:
    """The baseline: unified L1, no L0 buffers."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.UNIFIED, l0_entries=None, **overrides
    )


def l0_config(entries: int | None = 8, **overrides: object) -> MachineConfig:
    """The proposed architecture with ``entries``-entry L0 buffers."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.L0, l0_entries=entries, **overrides
    )


def multivliw_config(**overrides: object) -> MachineConfig:
    """Distributed snoop-coherent L1 (MultiVLIW)."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.MULTIVLIW, l0_entries=None, **overrides
    )


def interleaved_config(**overrides: object) -> MachineConfig:
    """Word-interleaved distributed L1 with attraction buffers."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.INTERLEAVED, l0_entries=None, **overrides
    )
