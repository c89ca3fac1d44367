"""Closed tagsets and boundary-label algebra.

Everything here is a small immutable value; parsing is case-sensitive and
whitespace-intolerant on purpose, so that round-trips through the text
formats are bit-exact. Normalisation (lowercasing, stripping) is the
caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional


class UnknownTag(ValueError):
    """A string that does not name a member of a closed tagset."""


class MalformedLabel(ValueError):
    """A boundary label that is not ``O`` or ``<B|I|E>_<CATEGORY>``."""


class UnknownCategory(MalformedLabel):
    """A well-shaped boundary label whose category is not in the tagset."""


class _TextEnum(Enum):
    """An enum whose members also carry their value as ``text``, a plain
    attribute: ``value`` is an enum property, far slower to read."""

    def __init__(self, value: str) -> None:
        self.text = value

    def __str__(self) -> str:
        return self.text


class PosTag(_TextEnum):
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


class NeCategory(_TextEnum):
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


class BoundaryPrefix(_TextEnum):
    B = "B"
    I = "I"
    E = "E"
    O = "O"


@dataclass(frozen=True, slots=True)
class NeLabel:
    """A named-entity boundary label: ``O`` carries no category, B/I/E must.
    ``text``, the label string, is built once here, not per token written."""

    prefix: BoundaryPrefix
    category: Optional[NeCategory] = None
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.prefix is BoundaryPrefix.O:
            if self.category is not None:
                raise MalformedLabel("O label must not carry a category")
        elif self.category is None:
            raise MalformedLabel(f"{self.prefix} label requires a category")
        text = "O" if self.category is None else f"{self.prefix.text}_{self.category.text}"
        object.__setattr__(self, "text", text)

    def __str__(self) -> str:
        return self.text


NE_OUTSIDE = NeLabel(BoundaryPrefix.O)


class ClauseLabel(_TextEnum):
    """A clause boundary label; like :class:`NeLabel` it has ``prefix``,
    ``category`` (always None: the one category is CLS) and ``text``."""

    B_CLS = "B_CLS"
    I_CLS = "I_CLS"
    E_CLS = "E_CLS"
    O = "O"

    def __init__(self, value: str) -> None:
        super().__init__(value)
        self.prefix = BoundaryPrefix(value[0])
        self.category = None


# Every label string the readers accept, mapped once to its parsed value:
# parsing is one dict lookup, and equal labels are the same object.
POS_TAGS: dict[str, PosTag] = {tag.text: tag for tag in PosTag}
NE_LABELS: dict[str, NeLabel] = {
    label.text: label
    for label in (
        NE_OUTSIDE,
        *(
            NeLabel(prefix, category)
            for prefix in (BoundaryPrefix.B, BoundaryPrefix.I, BoundaryPrefix.E)
            for category in NeCategory
        ),
    )
}
CLAUSE_LABELS: dict[str, ClauseLabel] = {label.text: label for label in ClauseLabel}


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


# Module-level names: the walker below tests them once per linted token.
_B, _I, _E, _O = BoundaryPrefix.B, BoundaryPrefix.I, BoundaryPrefix.E, BoundaryPrefix.O


def _boundary_step(open_prefix, open_category, label) -> Optional[str]:
    """The BIEO rule that ``label`` breaks after the open span, or None.

    The open span is ``open_prefix`` (B or I; any other value means no
    span is open) with ``open_category``. ``label`` is an NE or clause
    label, or None for the sentence edge. A lone B is a complete
    single-token span, so it may close silently; an I may not.
    """
    if label is None or label.prefix is _O or label.prefix is _B:
        return "UNTERMINATED" if open_prefix is _I else None
    if open_prefix is not _B and open_prefix is not _I:
        return "ORPHAN_I" if label.prefix is _I else "ORPHAN_E"
    if label.category is not open_category:
        return "CAT_MISMATCH"
    return None


def scan_boundaries(
    labels: Iterable,
) -> tuple[list[tuple[str, int, str]], list[tuple[int, int]]]:
    """Walk one sentence's NE or clause labels through the BIEO automaton.

    Returns ``(violations, spans)``. A violation is ``(rule, index,
    message)`` with ``rule`` one of ORPHAN_I, ORPHAN_E, CAT_MISMATCH and
    UNTERMINATED. The walker resynchronises on the offending label, so a
    single corruption yields a single violation: a span already reported
    is not reported again as unterminated. ``spans`` are the half-open
    ranges of the well-formed spans, ``B I* E`` and a lone ``B``.
    """
    violations: list[tuple[str, int, str]] = []
    spans: list[tuple[int, int]] = []
    open_prefix = open_category = None  # B or I and its category while a span is open
    start = None  # index of the open span's B while the span is well-formed
    quiet = None  # the label of the last step that changed nothing, while it holds
    i = -1
    for i, label in enumerate(labels):
        # This loop runs once per token of every sentence linted. An O outside
        # a span and an I inside its own cannot break a rule, and so skip the
        # step call; once taken, a repeat of the same label object is skipped
        # with one test.
        if label is quiet:
            continue
        prefix = label.prefix
        if open_prefix is None:
            if prefix is _O:
                quiet = label
                continue
        elif prefix is _I and label.category is open_category:
            open_prefix = _I
            quiet = label
            continue
        quiet = None
        rule = _boundary_step(open_prefix, open_category, label)
        if rule == "CAT_MISMATCH":
            message = f"category changes from {open_category} to {label.category} mid-span"
            violations.append((rule, i, message))
        elif rule == "UNTERMINATED":
            if start is not None:  # not when the span was already reported
                violations.append((rule, i, "open span not closed by an E-label"))
        elif rule is not None:
            violations.append((rule, i, f"{prefix}-label with no open span"))
        elif prefix is _E:
            if start is not None:
                spans.append((start, i + 1))
        elif open_prefix is _B:  # a B closed by O or B: a single-token span
            spans.append((start, start + 1))
        # Every legal I was taken above, so an I here leaves a broken span open.
        open_prefix = prefix if prefix is _B or prefix is _I else None
        open_category = label.category
        start = i if prefix is _B else None
    if open_prefix is _B:
        spans.append((start, start + 1))
    elif _boundary_step(open_prefix, open_category, None) and start is not None:
        violations.append(("UNTERMINATED", i, "span still open at sentence end"))
    return violations, spans


def ne_transition_valid(prev: Optional[NeLabel], nxt: Optional[NeLabel]) -> bool:
    """Whether ``nxt`` may follow ``prev`` in a legal BIEO sequence.

    ``None`` stands for the sentence edge on either side. Single-token
    entities are a lone B; an I must always be closed by an E of the same
    category before the sentence ends.
    """
    return _boundary_step(
        getattr(prev, "prefix", None), getattr(prev, "category", None), nxt
    ) is None


def clause_transition_valid(
    prev: Optional[ClauseLabel], nxt: Optional[ClauseLabel]
) -> bool:
    """Same automaton as :func:`ne_transition_valid` over the single CLS category."""
    return _boundary_step(
        getattr(prev, "prefix", None), getattr(prev, "category", None), nxt
    ) is None
