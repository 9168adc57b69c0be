"""Finite group presentations and the tower bookkeeping built on them.

A presentation is immutable: rank m plus a tuple of relators, each a
nonempty, freely and cyclically reduced word over generators 1..m.
Relators that arrive unreduced are reduced on construction and the fixup
is recorded as a warning rather than an error; an empty relator (or one
that reduces to empty) is rejected outright since it says nothing.

File format, one directive per line:

    # comment
    gens 2
    rel aa
    rel abab

``gens`` must appear once, before any ``rel``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .words import (
    Word,
    WordSyntaxError,
    cyclic_reduce,
    format_word,
    free_reduce,
    max_generator,
    parse_word,
    power,
)


@dataclass(frozen=True)
class Presentation:
    rank: int
    relators: tuple
    warnings: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("presentation needs at least one generator")
        fixed = []
        warnings = list(self.warnings)
        for k, r in enumerate(self.relators):
            r = tuple(r)
            if max_generator(r) > self.rank:
                raise ValueError(
                    f"relator {k + 1} uses generator {max_generator(r)} "
                    f"but rank is {self.rank}"
                )
            red = free_reduce(r)
            core, conj = cyclic_reduce(red)
            if not core:
                raise ValueError(f"relator {k + 1} reduces to the empty word")
            if core != r:
                warnings.append(
                    f"relator {k + 1} {format_word(r, self.rank)} reduced to "
                    f"{format_word(core, self.rank)}"
                )
            fixed.append(core)
        object.__setattr__(self, "relators", tuple(fixed))
        object.__setattr__(self, "warnings", tuple(warnings))

    @property
    def num_symbols(self) -> int:
        return 2 * self.rank

    def __str__(self) -> str:
        rels = ", ".join(format_word(r, self.rank) for r in self.relators)
        return f"<rank {self.rank} | {rels}>"


def power_relator(w: Word, n: int) -> Word:
    """The relator w^n. Requires n >= 1 and a nonempty w."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if not w:
        raise ValueError("cannot raise the empty word to a relator")
    return power(tuple(w), n)


class TowerStatus(enum.Enum):
    TERMINATED_EQUALS_BURNSIDE = "terminated-equals-burnside"
    STALLED_DIVERGENT = "stalled-divergent"
    ORACLE_INCONCLUSIVE = "oracle-inconclusive"


def tower_presentation(m: int, n: int, periods: Sequence[Word]) -> Presentation:
    """Stage presentation: generators a1..am, relators A_1^n .. A_k^n."""
    return Presentation(m, tuple(power_relator(p, n) for p in periods))


# --- file format ----------------------------------------------------------


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_presentation(text: str) -> Presentation:
    rank = None
    relators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "gens":
            if rank is not None:
                raise PresentationSyntaxError("duplicate gens directive", lineno)
            if len(fields) != 2 or not fields[1].isdigit() or int(fields[1]) < 1:
                raise PresentationSyntaxError("gens needs one positive integer", lineno)
            rank = int(fields[1])
        elif fields[0] == "rel":
            if rank is None:
                raise PresentationSyntaxError("rel before gens", lineno)
            if len(fields) != 2:
                raise PresentationSyntaxError("rel needs exactly one word", lineno)
            col = raw.index(fields[1])
            try:
                w = parse_word(fields[1], rank)
            except WordSyntaxError as e:
                raise PresentationSyntaxError(str(e), lineno, col) from e
            if not w:
                raise PresentationSyntaxError(
                    "relator reduces to the empty word", lineno, col
                )
            relators.append(w)
        else:
            raise PresentationSyntaxError(f"unknown directive {fields[0]!r}", lineno)
    if rank is None:
        raise PresentationSyntaxError("missing gens directive", 1)
    return Presentation(rank, tuple(relators))


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())
