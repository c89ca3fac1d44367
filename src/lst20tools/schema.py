"""Closed tagsets and boundary-label algebra.

Everything here is a small immutable value; parsing is case-sensitive and
whitespace-intolerant on purpose, so that round-trips through the text
formats are bit-exact. Normalisation (lowercasing, stripping) is the
caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class UnknownTag(ValueError):
    """A string that does not name a member of a closed tagset."""


class MalformedLabel(ValueError):
    """A boundary label that is not ``O`` or ``<B|I|E>_<CATEGORY>``."""


class UnknownCategory(MalformedLabel):
    """A well-shaped boundary label whose category is not in the tagset."""


class PosTag(Enum):
    """The sixteen part-of-speech tags."""

    AJ = "AJ"  # adjective
    AV = "AV"  # adverb
    AX = "AX"  # auxiliary
    CC = "CC"  # connector (conjunction, relative pronoun)
    CL = "CL"  # classifier
    FX = "FX"  # prefix
    IJ = "IJ"  # interjection
    NG = "NG"  # negator
    NN = "NN"  # noun
    NU = "NU"  # number
    PA = "PA"  # particle
    PR = "PR"  # pronoun
    PS = "PS"  # preposition
    PU = "PU"  # punctuation
    VV = "VV"  # verb
    XX = "XX"  # others / unknown

    def __str__(self) -> str:
        return self.value


class NeCategory(Enum):
    """The ten named-entity categories."""

    TTL = "TTL"  # title
    DES = "DES"  # designation
    PER = "PER"  # person
    ORG = "ORG"  # organization
    LOC = "LOC"  # location
    DTM = "DTM"  # date and time
    BRN = "BRN"  # brand
    MEA = "MEA"  # measurement
    NUM = "NUM"  # number
    TRM = "TRM"  # terminology

    def __str__(self) -> str:
        return self.value


class BoundaryPrefix(Enum):
    B = "B"
    I = "I"
    E = "E"
    O = "O"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class NeLabel:
    """A named-entity boundary label: ``O`` carries no category, B/I/E must."""

    prefix: BoundaryPrefix
    category: Optional[NeCategory] = None

    def __post_init__(self) -> None:
        if self.prefix is BoundaryPrefix.O:
            if self.category is not None:
                raise MalformedLabel("O label must not carry a category")
        elif self.category is None:
            raise MalformedLabel(f"{self.prefix} label requires a category")

    def __str__(self) -> str:
        if self.prefix is BoundaryPrefix.O:
            return "O"
        return f"{self.prefix.value}_{self.category.value}"


NE_OUTSIDE = NeLabel(BoundaryPrefix.O)


class ClauseLabel(Enum):
    B_CLS = "B_CLS"
    I_CLS = "I_CLS"
    E_CLS = "E_CLS"
    O = "O"

    def __str__(self) -> str:
        return self.value


_CLAUSE_PAIR = {
    ClauseLabel.B_CLS: (BoundaryPrefix.B, "CLS"),
    ClauseLabel.I_CLS: (BoundaryPrefix.I, "CLS"),
    ClauseLabel.E_CLS: (BoundaryPrefix.E, "CLS"),
    ClauseLabel.O: (BoundaryPrefix.O, None),
}


# Every label string the readers accept, mapped once to its parsed value:
# parsing is one dict lookup, and equal labels are the same object.
POS_TAGS: dict[str, PosTag] = {tag.value: tag for tag in PosTag}
NE_LABELS: dict[str, NeLabel] = {
    str(label): label
    for label in (
        NE_OUTSIDE,
        *(
            NeLabel(prefix, category)
            for prefix in (BoundaryPrefix.B, BoundaryPrefix.I, BoundaryPrefix.E)
            for category in NeCategory
        ),
    )
}
CLAUSE_LABELS: dict[str, ClauseLabel] = {label.value: label for label in ClauseLabel}


def parse_pos_tag(text: str) -> PosTag:
    """Exact, case-sensitive lookup in the sixteen-tag set."""
    try:
        return POS_TAGS[text]
    except KeyError:
        raise UnknownTag(f"unknown POS tag {text!r}") from None


def parse_ne_label(text: str) -> NeLabel:
    """Parse ``O`` or ``<B|I|E>_<CATEGORY>``; equal labels share one object."""
    try:
        return NE_LABELS[text]
    except KeyError:
        prefix_text, sep, _ = text.partition("_")
        if not sep or prefix_text not in ("B", "I", "E"):
            raise MalformedLabel(f"malformed NE label {text!r}") from None
        raise UnknownCategory(f"unknown NE category in {text!r}") from None


def parse_clause_label(text: str) -> ClauseLabel:
    """Parse one of the four clause boundary labels."""
    try:
        return CLAUSE_LABELS[text]
    except KeyError:
        raise MalformedLabel(f"malformed clause label {text!r}") from None


def _transition_valid(prev, nxt) -> bool:
    # States as (prefix, category) pairs; None marks the sentence edge.
    if prev is None or prev[0] in (BoundaryPrefix.O, BoundaryPrefix.E):
        # Nothing open: only O or a fresh B may follow; the edge is fine.
        return nxt is None or nxt[0] in (BoundaryPrefix.O, BoundaryPrefix.B)
    if prev[0] is BoundaryPrefix.B:
        # A lone B is a complete single-token span, so it may close silently.
        if nxt is None or nxt[0] in (BoundaryPrefix.O, BoundaryPrefix.B):
            return True
        return nxt[1] == prev[1]
    # prev is I: the span must continue or close explicitly, same category.
    return (
        nxt is not None
        and nxt[0] in (BoundaryPrefix.I, BoundaryPrefix.E)
        and nxt[1] == prev[1]
    )


def ne_transition_valid(prev: Optional[NeLabel], nxt: Optional[NeLabel]) -> bool:
    """Whether ``nxt`` may follow ``prev`` in a legal BIEO sequence.

    ``None`` stands for the sentence edge on either side. Single-token
    entities are a lone B; an I must always be closed by an E of the same
    category before the sentence ends.
    """
    prev_pair = None if prev is None else (prev.prefix, prev.category)
    nxt_pair = None if nxt is None else (nxt.prefix, nxt.category)
    return _transition_valid(prev_pair, nxt_pair)


def clause_transition_valid(
    prev: Optional[ClauseLabel], nxt: Optional[ClauseLabel]
) -> bool:
    """Same automaton as :func:`ne_transition_valid` over the single CLS category."""
    prev_pair = None if prev is None else _CLAUSE_PAIR[prev]
    nxt_pair = None if nxt is None else _CLAUSE_PAIR[nxt]
    return _transition_valid(prev_pair, nxt_pair)
