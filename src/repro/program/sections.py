"""Parallel sections and their communication patterns.

A parallel section is "code in between either a nearest neighbor or
reduction communication pattern, at which point a node can send at most
one message to another node" (paper Section 3.1).  Pipelined sections
contain multiple tiles and interleave per-tile messages with per-tile
computation (paper Section 4.2.2, Equation 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.exceptions import ProgramStructureError
from repro.program.stages import Stage

__all__ = ["CommPattern", "CommSpec", "ParallelSection"]


class CommPattern(enum.Enum):
    """Communication closing a parallel section."""

    #: No communication (purely local section).
    NONE = "none"
    #: Boundary exchange with the adjacent nodes in distribution order
    #: (paper Equation 3/5).
    NEAREST_NEIGHBOR = "nearest-neighbor"
    #: Pipelined flow from node 0 towards node n-1, one message per tile
    #: (paper Equation 4).
    PIPELINE = "pipeline"
    #: Global reduction combining one value (or small vector) from every
    #: node; result available everywhere (modelled in the dissertation,
    #: reconstructed here as a binomial-tree allreduce).
    REDUCTION = "reduction"
    #: Every node contributes ``message_bytes`` and receives all other
    #: contributions (recursive doubling).  Used for the mat-vec gather
    #: in CG and Lanczos.
    ALLGATHER = "allgather"


@dataclass(frozen=True)
class CommSpec:
    """Communication description for one parallel section.

    ``message_bytes`` means, per pattern:

    * ``NEAREST_NEIGHBOR`` — bytes per boundary message, per direction;
    * ``PIPELINE`` — bytes per per-tile message;
    * ``REDUCTION`` — bytes of the reduced value;
    * ``ALLGATHER`` — bytes contributed by each node.

    ``source_variable`` names the array a message is materialised from;
    when that array is out of core on the sender, MHETA charges a disk
    read as part of the send overhead ``os(m)`` (paper Section 4.2.2).
    """

    pattern: CommPattern = CommPattern.NONE
    message_bytes: float = 0.0
    source_variable: Optional[str] = None

    def __post_init__(self) -> None:
        if self.message_bytes < 0:
            raise ProgramStructureError("message_bytes must be non-negative")
        if self.pattern is CommPattern.NONE and self.message_bytes:
            raise ProgramStructureError(
                "a NONE communication pattern cannot carry a message"
            )

    @classmethod
    def none(cls) -> "CommSpec":
        return cls(pattern=CommPattern.NONE)


@dataclass(frozen=True)
class ParallelSection:
    """One parallel section: tiles x stages, closed by communication.

    Per the paper, each of the section's ``tiles`` executes every stage
    over its share of the section's data; a non-pipelined section has a
    single tile.  Stage ground-truth work refers to the *whole* section
    (all tiles combined); the executor divides it evenly among tiles.
    """

    name: str
    stages: Tuple[Stage, ...]
    tiles: int = 1
    comm: CommSpec = field(default_factory=CommSpec.none)

    def __post_init__(self) -> None:
        if not self.name:
            raise ProgramStructureError("section name must be non-empty")
        if not self.stages:
            raise ProgramStructureError(
                f"section {self.name}: needs at least one stage"
            )
        if self.tiles < 1:
            raise ProgramStructureError(
                f"section {self.name}: tiles must be >= 1, got {self.tiles}"
            )
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ProgramStructureError(
                f"section {self.name}: duplicate stage names"
            )
        if (
            self.comm.pattern is CommPattern.PIPELINE
            and self.tiles < 2
        ):
            raise ProgramStructureError(
                f"section {self.name}: a pipelined section needs >= 2 tiles "
                "(one message per tile)"
            )
        if (
            self.comm.pattern is not CommPattern.PIPELINE
            and self.tiles > 1
        ):
            raise ProgramStructureError(
                f"section {self.name}: multiple tiles are only meaningful "
                "with pipelined communication"
            )
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def touched(self) -> Tuple[str, ...]:
        """All variable names referenced by any stage, in first-seen order."""
        seen: list = []
        for stage in self.stages:
            for name in stage.touched:
                if name not in seen:
                    seen.append(name)
        if self.comm.source_variable and self.comm.source_variable not in seen:
            seen.append(self.comm.source_variable)
        return tuple(seen)
