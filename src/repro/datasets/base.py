"""Common dataset container."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constraints.dc import DenialConstraint
from repro.schema.relation import Relation
from repro.schema.table import Table


@dataclass
class Dataset:
    """A generated workload: instance + schema + denial constraints."""

    name: str
    table: Table
    dcs: list[DenialConstraint]
    #: Free-form notes (e.g. which paper dataset this mirrors).
    notes: str = ""
    #: Attributes recommended as classification targets in Metric II
    #: (binary or binarizable); empty means "all attributes".
    label_attrs: list[str] = field(default_factory=list)

    @property
    def relation(self) -> Relation:
        return self.table.relation

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def k(self) -> int:
        return self.relation.arity

    def hard_dcs(self) -> list[DenialConstraint]:
        return [dc for dc in self.dcs if dc.hard]

    def summary(self) -> str:
        """One-line description in the style of Table 1."""
        log_dom = self.relation.log2_domain_size()
        hard = "Yes" if self.hard_dcs() else "No"
        return (f"{self.name}: n={self.n} k={self.k} "
                f"domain~2^{log_dom:.0f} hard DCs: {hard} "
                f"({len(self.dcs)} DCs)")
