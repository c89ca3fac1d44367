"""The Token layer, library API that no command uses: readers and writers
of frozen Tokens, as views over the records of ``format``, which hands these
names out on first use (PEP 562)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .format import _TAG_COLUMNS, COLUMNAR_SPACE, SPACE_GLYPH, LineError, TokenError
from .format import columnar_records, inline_records, write_columnar_records, write_inline_records
from .schema import NE_OUTSIDE, ClauseLabel, NeLabel, PosTag


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """One annotated word: surface text plus its POS, NE and clause labels."""

    surface: str
    pos: PosTag
    ne: NeLabel = NE_OUTSIDE
    clause: ClauseLabel = ClauseLabel.O
    is_space: bool = False

    # Writing the slots directly skips the generated frozen __init__'s
    # object.__setattr__ calls. _relabelled below writes them itself, without
    # the checks its input tokens passed; a test fails if it bypasses one
    # added here.
    def __init__(self, surface, pos, ne=NE_OUTSIDE, clause=ClauseLabel.O, is_space=False):
        if not surface:
            raise ValueError("token surface must be non-empty")
        if "\t" in surface or "\n" in surface:
            raise ValueError("token surface must not contain tab or newline")
        if is_space and surface != SPACE_GLYPH:
            raise ValueError(f"space tokens use the canonical surface {SPACE_GLYPH!r}")
        _set_surface(self, surface)
        _set_pos(self, pos)
        _set_ne(self, ne)
        _set_clause(self, clause)
        _set_is_space(self, is_space)


_set_surface, _set_pos, _set_ne, _set_clause, _set_is_space = (
    Token.__dict__[name].__set__ for name in Token.__slots__
)
_new_token = object.__new__  # a Token with no slot set, for the writes above


def _relabelled(token: Token, clause: ClauseLabel) -> Token:
    """``token`` with clause label ``clause``: itself when it already has it,
    else a copy whose slots are written directly. ``token`` passed Token's
    checks, and the clause label is none of them."""
    if token.clause is clause:
        return token
    new = _new_token(Token)
    _set_surface(new, token.surface)
    _set_pos(new, token.pos)
    _set_ne(new, token.ne)
    _set_clause(new, clause)
    _set_is_space(new, token.is_space)
    return new


def space_token(
    pos: PosTag = PosTag.PU, ne: NeLabel = NE_OUTSIDE, clause: ClauseLabel = ClauseLabel.O
) -> Token:
    return Token(SPACE_GLYPH, pos, ne, clause, is_space=True)


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if not self.doc_id:
            raise ValueError("document id must be non-empty")


def read_columnar(
    text: str, doc_id: str = "doc", *, errors: Optional[list[LineError]] = None
) -> Document:
    """Parse a columnar file into a Document: a Sentence of Tokens per record
    of :func:`columnar_records`, which reads the lines and reports bad ones.

    In strict mode (``errors=None``) the first bad line raises
    :class:`LineError`. Passing a list switches to permissive mode: bad
    lines are skipped and their errors appended to the list. Within one
    call, equal lines give one :class:`Token` object, which is safe as tokens
    are frozen; no identity is promised across calls.
    """
    return Document(doc_id, tuple(_sentences(columnar_records(text, errors), COLUMNAR_SPACE)))


def _sentences(records: Iterable[tuple], space_word: str) -> Iterator[Sentence]:
    """A Sentence per record, ``space_word`` a white-space word; one Token per word and entry."""
    parsed: dict[tuple[str, int], Token] = {}  # (word, id of its tag entry) -> its token

    def token(word: str, labels: tuple) -> Token:
        key = word, id(labels)  # each _TAG_COLUMNS entry lives as long as the table
        if key not in parsed:
            is_space = word == space_word
            parsed[key] = Token(SPACE_GLYPH if is_space else word, *labels[:3], is_space=is_space)
        return parsed[key]

    return (Sentence(tuple(map(token, words, labels))) for _, words, labels, _ in records)


def sentence_records(sentences: Iterable[Sentence]) -> Iterator[tuple]:
    """Records as :func:`columnar_records` gives them, read off ``sentences``
    and numbered from 0: each token's surface (the glyph for a white-space
    token), its ``_TAG_COLUMNS`` entry, found by its label objects, and space flag."""
    entries = _entries_by_labels()
    for number, sentence in enumerate(sentences):
        tokens = sentence.tokens
        labels = list(map(entries.__getitem__, map(attrgetter("pos", "ne", "clause"), tokens)))
        yield number, [t.surface for t in tokens], labels, [t.is_space for t in tokens]


@cache
def _entries_by_labels() -> dict[tuple, tuple]:
    """Each ``_TAG_COLUMNS`` entry by its labels, which hash by identity; built on first use."""
    return {entry[:3]: entry for entry in _TAG_COLUMNS.values()}


def write_columnar(doc: Document) -> str:
    """Serialize a Document's :func:`sentence_records` by
    :func:`write_columnar_records`: inverse of :func:`read_columnar`.

    An empty document yields the empty string; otherwise sentences are
    separated by exactly one empty line and the output ends with a newline.
    A first surface starting with U+FEFF is rejected: the reader strips it.
    """
    return write_columnar_records(sentence_records(doc.sentences))


def read_inline(text: str, *, errors: Optional[list[TokenError]] = None) -> list[Sentence]:
    """Parse inline notation into sentences: a Sentence of Tokens per record
    of :func:`inline_records`, which reads the chunks and reports bad ones.

    Each sentence must carry a uniform layer count of 2 (word/POS),
    3 (+NE) or 4 (+clause); missing trailing layers default to O. A bare
    ``SPACE_GLYPH`` chunk is accepted at any arity as a white-space token.
    Strict/permissive modes work as in :func:`read_columnar`; in permissive
    mode a malformed sentence is skipped whole, never silently truncated.
    Within one call, equal chunks give one Token object, safe as tokens are
    frozen; no identity is promised across calls.
    """
    return list(_sentences(inline_records(text, errors), SPACE_GLYPH))


def write_inline(sentences: Iterable[Sentence], layers: int = 4) -> str:
    """Serialize sentences in inline notation, one sentence per line.

    ``layers`` selects how many annotation layers are emitted (2, 3 or 4).
    Surfaces containing ``|`` or starting with white space, non-space
    surfaces equal to the space glyph, and a first surface starting with
    U+FEFF are rejected: they would not read back. The sentences are written
    as their :func:`sentence_records`, by :func:`write_inline_records`.
    """
    return write_inline_records(sentence_records(sentences), layers)
