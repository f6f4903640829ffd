"""Power report data structures and formatting.

A :class:`PowerReport` mirrors what the paper extracts from Cadence Joules
output (Fig. 3, step 11): per-component leakage / internal / switching
power in milliwatts, the analyzed-component share of the tile (Fig. 9),
and per-issue-slot detail (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.area import ANALYZED_COMPONENTS, REST_OF_TILE


@dataclass(frozen=True)
class ComponentPower:
    """Power of one component, split by dissipation source (§II-E)."""

    leakage_mw: float
    internal_mw: float
    switching_mw: float

    @property
    def total_mw(self) -> float:
        return self.leakage_mw + self.internal_mw + self.switching_mw

    def __add__(self, other: "ComponentPower") -> "ComponentPower":
        return ComponentPower(self.leakage_mw + other.leakage_mw,
                              self.internal_mw + other.internal_mw,
                              self.switching_mw + other.switching_mw)


@dataclass
class PowerReport:
    """Full tile power for one measured window."""

    config_name: str
    workload: str
    cycles: int
    components: dict[str, ComponentPower] = field(default_factory=dict)
    #: per-slot power of the integer issue queue (Fig. 8), milliwatts
    int_issue_slot_mw: list[float] = field(default_factory=list)

    @property
    def tile_mw(self) -> float:
        """Total BOOM tile power (core + L1 caches)."""
        return sum(c.total_mw for c in self.components.values())

    @property
    def analyzed_mw(self) -> float:
        """Power of the 13 analyzed components only."""
        return sum(self.components[name].total_mw
                   for name in ANALYZED_COMPONENTS)

    @property
    def analyzed_share(self) -> float:
        """Fraction of tile power in the analyzed components (Fig. 9)."""
        tile = self.tile_mw
        return self.analyzed_mw / tile if tile else 0.0

    def component_mw(self, name: str) -> float:
        return self.components[name].total_mw

    def format_table(self) -> str:
        """Human-readable per-component table."""
        lines = [f"{self.config_name} / {self.workload} "
                 f"({self.cycles} cycles)",
                 f"{'component':<18}{'leak':>8}{'int':>8}{'switch':>8}"
                 f"{'total':>8}  mW"]
        for name in (*ANALYZED_COMPONENTS, REST_OF_TILE):
            power = self.components[name]
            lines.append(f"{name:<18}{power.leakage_mw:>8.3f}"
                         f"{power.internal_mw:>8.3f}"
                         f"{power.switching_mw:>8.3f}"
                         f"{power.total_mw:>8.3f}")
        lines.append(f"{'tile total':<18}{'':>24}{self.tile_mw:>8.3f}")
        lines.append(f"analyzed share: {self.analyzed_share:.1%}")
        return "\n".join(lines)
