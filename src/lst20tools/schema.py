"""Closed tagsets and boundary-label algebra.

Everything here is a small immutable value; parsing is case-sensitive and
whitespace-intolerant on purpose, so that round-trips through the text
formats are bit-exact. Normalisation (lowercasing, stripping) is the
caller's job.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional


class UnknownTag(ValueError):
    """A string that does not name a member of a closed tagset."""


class MalformedLabel(ValueError):
    """A boundary label that is not ``O`` or ``<B|I|E>_<CATEGORY>``."""


class UnknownCategory(MalformedLabel):
    """A well-shaped boundary label whose category is not in the tagset."""


class _Frozen:
    """Base of the library's frozen value classes: a command that loads them
    loads no ``dataclasses``, which imports ``inspect`` and ``ast``.

    A subclass names its constructor's fields in ``_fields``, which equality,
    hash, repr and ``match`` by position read, and lists them, then any field
    it derives from them, in ``__slots__``. Its ``__init__`` fills the slots
    in that order with ``_set_slots``. Pickle and copy save and restore every
    slot, with no ``__init__`` call."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # Each slot's own descriptor writes it: object.__setattr__ looks it up by name.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls.__match_args__ = cls._fields

    def _set_slots(self, values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    __setstate__ = _set_slots

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _TextEnum(Enum):
    """An enum whose members also carry their value as ``text``, a plain
    attribute: ``value`` is an enum property, far slower to read."""

    def __init__(self, value: str) -> None:
        self.text = value

    def __str__(self) -> str:
        return self.text

    __hash__ = object.__hash__  # members are singletons; Enum's own hash is a Python call


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


class _BoundaryLabel(_TextEnum):
    """A boundary label, ``O`` or ``<B|I|E>_<CATEGORY>``, with its ``prefix``
    and ``category``: None for ``O`` and for every clause label."""

    def __init__(self, value: str) -> None:
        super().__init__(value)
        self.prefix = BoundaryPrefix(value[0])
        self.category = NeCategory.__members__.get(value[2:])


# The 31 named-entity labels: ``O``, which carries no category, and B/I/E
# with each category. NeLabel("B_PER") and NeLabel.B_PER are one member.
NeLabel = _BoundaryLabel(
    "NeLabel",
    [(t, t) for t in ("O", *(f"{p}_{c.text}" for p in "BIE" for c in NeCategory))],
    module=__name__,
)
NE_OUTSIDE = NeLabel.O


class ClauseLabel(_BoundaryLabel):
    """A clause boundary label; its one category, CLS, is no NeCategory."""

    B_CLS = "B_CLS"
    I_CLS = "I_CLS"
    E_CLS = "E_CLS"
    O = "O"


# Every label string the readers accept, mapped once to its parsed value:
# parsing is one dict lookup, and equal labels are the same object.
POS_TAGS: dict[str, PosTag] = {tag.text: tag for tag in PosTag}
NE_LABELS: dict[str, NeLabel] = {label.text: label for label in NeLabel}
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


def ne_transition_valid(
    prev: Optional[_BoundaryLabel], nxt: Optional[_BoundaryLabel]
) -> bool:
    """Whether ``nxt`` may follow ``prev`` in a legal BIEO sequence of NE or
    clause labels.

    ``None`` stands for the sentence edge on either side. Single-token
    spans are a lone B; an I must always be closed by an E of the same
    category before the sentence ends.
    """
    return _boundary_step(
        getattr(prev, "prefix", None), getattr(prev, "category", None), nxt
    ) is None


clause_transition_valid = ne_transition_valid
