"""Readers and writers for the two concrete serializations.

Columnar: UTF-8, LF line endings, one token per line with exactly four
tab-separated fields (word, POS, NE, clause), sentences separated by an
empty line. A white-space word is written as the single character ``_``.

Inline: tokens separated by ``|``, annotation layers separated by ``/``
(2, 3 or 4 layers), ``||`` terminates a sentence, and a white-space word
is the glyph ``SPACE_GLYPH`` (U+2423).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator, Optional, Sequence

from .schema import (
    CLAUSE_LABELS,
    NE_LABELS,
    NE_OUTSIDE,
    POS_TAGS,
    ClauseLabel,
    MalformedLabel,
    NeLabel,
    PosTag,
    UnknownTag,
    parse_clause_label,
    parse_ne_label,
    parse_pos_tag,
)

SPACE_GLYPH = "␣"
COLUMNAR_SPACE = "_"
# A byte-order mark some editors put at the start of a UTF-8 file.
_BOM = "\ufeff"

FORMAT_COLUMNAR = "columnar"
FORMAT_INLINE = "inline"


class FormatError(ValueError):
    """Base class for serialization problems."""


class LineError(FormatError):
    """A bad line in columnar input."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class TokenError(FormatError):
    """A bad token in inline input, located by (sentence, token) index."""

    def __init__(self, sentence: int, token: int, reason: str):
        super().__init__(f"sentence {sentence}, token {token}: {reason}")
        self.sentence = sentence
        self.token = token
        self.reason = reason


class WriteError(FormatError):
    """A token that cannot be represented in the requested serialization."""


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """One annotated word: surface text plus its POS, NE and clause labels."""

    surface: str
    pos: PosTag
    ne: NeLabel = NE_OUTSIDE
    clause: ClauseLabel = ClauseLabel.O
    is_space: bool = False

    # Every command builds a Token per line it reads; writing the slots
    # directly skips the generated frozen __init__'s object.__setattr__ calls.
    # read_columnar writes them itself, without the checks its line format
    # already guarantees, and so does _relabelled below, whose input tokens
    # passed them; a test of each fails if it bypasses one added here.
    def __init__(self, surface, pos, ne=NE_OUTSIDE, clause=ClauseLabel.O, is_space=False):
        if not surface:
            raise ValueError("token surface must be non-empty")
        if "\t" in surface or "\n" in surface:
            raise ValueError("token surface must not contain tab or newline")
        if is_space and surface != SPACE_GLYPH:
            raise ValueError(
                f"space tokens use the canonical surface {SPACE_GLYPH!r}"
            )
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
    else a copy whose slots are written directly, as ``read_columnar`` writes
    them. ``token`` passed Token's checks, and the clause label is none of
    them."""
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
    pos: PosTag = PosTag.PU,
    ne: NeLabel = NE_OUTSIDE,
    clause: ClauseLabel = ClauseLabel.O,
) -> Token:
    return Token(SPACE_GLYPH, pos, ne, clause, is_space=True)


_BARE_SPACE = space_token()

# Every valid "POS\tNE\tCLS" tail of a columnar line, mapped to its interned
# labels: a token line's tags are one lookup, or two with a CRLF ending.
_TAG_COLUMNS: dict[str, tuple[PosTag, NeLabel, ClauseLabel]] = dict(
    zip(
        map("\t".join, product(POS_TAGS, NE_LABELS, CLAUSE_LABELS)),
        product(POS_TAGS.values(), NE_LABELS.values(), CLAUSE_LABELS.values()),
    )
)


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


def _fail(exc: FormatError, errors: Optional[list]) -> None:
    # errors=None selects strict mode: abort on the first problem.
    if errors is None:
        raise exc
    errors.append(exc)


_CHUNK_CHARS = 2048


def _line_chunks(text: str) -> Iterator[list[str]]:
    """The lines of ``text``, split about ``_CHUNK_CHARS`` characters at a
    time, so that a reader holds no more of them than one chunk's."""
    start = 0
    while (end := text.find("\n", start + _CHUNK_CHARS)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")


def read_columnar(
    text: str, doc_id: str = "doc", *, errors: Optional[list[LineError]] = None
) -> Document:
    """Parse a columnar file into a Document.

    In strict mode (``errors=None``) the first bad line raises
    :class:`LineError`. Passing a list switches to permissive mode: bad
    lines are skipped and their errors appended to the list. Within one
    call, equal lines give one :class:`Token` object, which is safe as tokens
    are frozen; no identity is promised across calls.
    """
    text = text.removeprefix(_BOM)
    sentences: list[Sentence] = []
    current: list[Token] = []
    parsed: dict[str, Token] = {}  # raw line -> its token; bad lines never enter

    def flush() -> None:
        if current:
            sentences.append(Sentence(tuple(current)))
            current.clear()

    for line_no, raw in enumerate(chain.from_iterable(_line_chunks(text)), start=1):
        token = parsed.get(raw)
        if token is None:
            word, _, tags = raw.partition("\t")
            labels = _TAG_COLUMNS.get(tags) or _TAG_COLUMNS.get(tags.removesuffix("\r"))
            if labels is None or not word:
                if raw in ("", "\r"):
                    flush()
                else:
                    _fail(_line_error(line_no, raw), errors)
                continue
            # The line format already guarantees what Token() would check:
            # a non-empty word, no tab or newline in it, the glyph for "_".
            is_space = word == COLUMNAR_SPACE
            token = parsed[raw] = _new_token(Token)
            _set_surface(token, SPACE_GLYPH if is_space else word)
            _set_pos(token, labels[0])
            _set_ne(token, labels[1])
            _set_clause(token, labels[2])
            _set_is_space(token, is_space)
        current.append(token)
    flush()
    return Document(doc_id, tuple(sentences))


def tally_columnar(text: str) -> Optional[tuple[int, int, list]]:
    """What :func:`read_columnar` would read from a clean file, without a Token:
    its sentence count, its white-space token count and one
    ``((pos, ne, clause), tokens)`` pair per distinct tag triple.

    None unless every line is blank or a token line (a non-empty word and a
    ``_TAG_COLUMNS`` tail), each less one CR at its end as ``read_columnar``
    reads it: a bad line or an empty word leaves the file to ``read_columnar``.
    One Python step runs per distinct line and one per distinct tag triple,
    none per line.
    """
    text = text.removeprefix(_BOM)
    if "\r" in text:  # a scan several times faster than replace's
        text = text.replace("\r\n", "\n").removesuffix("\r")
    lines: Counter = Counter()
    sentences = last = 0  # a sentence ends at a non-empty line before an empty one
    for chunk in _line_chunks(text):
        lines.update(chunk)
        flags = bytes(map(bool, chunk))
        sentences += flags.count(b"\x01\x00") + (last > flags[0])
        last = flags[-1]
    del lines[""]
    spaces = 0
    tails: dict[str, int] = {}  # a plain dict: a Counter's += is slower
    count = tails.get
    for line, n in lines.items():
        word, _, tail = line.partition("\t")
        if not word:
            return None
        if word == COLUMNAR_SPACE:
            spaces += n
        tails[tail] = count(tail, 0) + n
    labels = []
    for tail, n in tails.items():
        triple = _TAG_COLUMNS.get(tail)
        if triple is None:
            return None
        labels.append((triple, n))
    return sentences + last, spaces, labels


def _line_error(line_no: int, raw: str) -> LineError:
    """The error of a line that is not blank and missed ``_TAG_COLUMNS`` or
    has an empty word: its field count, its word, or its first bad column."""
    fields = raw.removesuffix("\r").split("\t")
    if len(fields) != 4:
        return LineError(line_no, f"expected 4 tab-separated fields, got {len(fields)}")
    word, pos_text, ne_text, clause_text = fields
    if word == "":
        return LineError(line_no, "empty word field")
    try:  # the parsers raise for the first bad column, with its message
        parse_pos_tag(pos_text)
        parse_ne_label(ne_text)
        parse_clause_label(clause_text)
    except (UnknownTag, MalformedLabel) as exc:
        return LineError(line_no, str(exc))
    raise AssertionError(f"line {line_no} has valid tags but missed _TAG_COLUMNS")


def write_columnar(doc: Document) -> str:
    """Serialize a Document: inverse of :func:`read_columnar`.

    An empty document yields the empty string; otherwise sentences are
    separated by exactly one empty line and the output ends with a newline.
    A first surface starting with U+FEFF is rejected: the reader strips it.
    """
    blocks = []
    for sentence in doc.sentences:
        lines = []
        for token in sentence.tokens:
            if token.is_space:
                word = COLUMNAR_SPACE
            elif token.surface == COLUMNAR_SPACE:
                # A literal underscore word would read back as a space.
                raise WriteError(
                    "literal '_' surface is not representable in columnar form"
                )
            else:
                word = token.surface
            lines.append(
                "\t".join((word, token.pos.text, token.ne.text, token.clause.text))
            )
        blocks.append("\n".join(lines) + "\n")
    return _refuse_leading_bom("\n".join(blocks))


def _refuse_leading_bom(text: str) -> str:
    """``text``, unless both readers would strip its first character."""
    if text.startswith(_BOM):
        raise WriteError(
            "first surface starting with U+FEFF is not representable: readers strip it"
        )
    return text


_ARITIES = (2, 3, 4)
# Plausible layer counts as a bitmask with bit ``1 << arity``. Only the bare
# space glyph fits every arity: POS tags are disjoint from NE/clause labels.
_ANY_ARITY = sum(1 << arity for arity in _ARITIES)


def _arity_mask(chunk: str) -> int:
    """Layer counts under which the chunk parses, splitting from the right.

    Right-to-left splitting keeps slashes inside the surface (URLs and the
    like) intact once the layer count is known. Tag vocabularies are
    disjoint, so at most one arity survives per chunk in practice.
    """
    if chunk == SPACE_GLYPH:
        return _ANY_ARITY
    parts = chunk.rsplit("/", 3)
    n = len(parts)
    # Under arity k the surface is parts[: n - k + 1], empty only when it is
    # the single empty string parts[0].
    mask = 0
    if n >= 2 and (n > 2 or parts[0]) and parts[-1] in POS_TAGS:
        mask |= 1 << 2
    if (
        n >= 3
        and (n > 3 or parts[0])
        and parts[-2] in POS_TAGS
        and parts[-1] in NE_LABELS
    ):
        mask |= 1 << 3
    if (
        n == 4
        and parts[0]
        and parts[1] in POS_TAGS
        and parts[2] in NE_LABELS
        and parts[3] in CLAUSE_LABELS
    ):
        mask |= 1 << 4
    return mask


def _sentence_mask(chunks: Sequence[str]) -> int:
    """Layer counts every chunk of a sentence parses under."""
    mask = _ANY_ARITY
    for chunk in chunks:
        mask &= _arity_mask(chunk)
    return mask


def _split_sentences(text: str) -> Iterator[list[str]]:
    for part in text.split("||"):
        chunks = [c for c in map(str.strip, part.split("|")) if c]
        if chunks:
            yield chunks


def read_inline(
    text: str, *, errors: Optional[list[TokenError]] = None
) -> list[Sentence]:
    """Parse inline notation into sentences.

    Each sentence must carry a uniform layer count of 2 (word/POS),
    3 (+NE) or 4 (+clause); missing trailing layers default to O. A bare
    ``SPACE_GLYPH`` chunk is accepted at any arity as a white-space token.
    Strict/permissive modes work as in :func:`read_columnar`; in permissive
    mode a malformed sentence is skipped whole, never silently truncated.
    Within one call, equal chunks give one Token object, safe as tokens are
    frozen; no identity is promised across calls.
    """
    text = text.removeprefix(_BOM)
    sentences: list[Sentence] = []
    # One memo per layer count, as a chunk fits at most one: tagsets are
    # disjoint, and only the bare glyph, seeded here, fits every count.
    memos = {arity: {SPACE_GLYPH: _BARE_SPACE} for arity in _ARITIES}
    for sent_idx, chunks in enumerate(_split_sentences(text)):
        # So the first chunk other than the glyph fixes the sentence's count.
        first = next((chunk for chunk in chunks if chunk != SPACE_GLYPH), SPACE_GLYPH)
        arity = _arity_mask(first).bit_length() - 1
        if arity < 0:
            _fail(_inline_error(sent_idx, chunks, 0, None), errors)
            continue
        parsed = memos[arity]
        tokens: list[Token] = []
        for tok_idx, chunk in enumerate(chunks):
            token = parsed.get(chunk)
            if token is None:
                parts = chunk.rsplit("/", arity - 1)
                surface = parts[0]
                try:  # a lookup misses when the chunk does not fit this count
                    token = parsed[chunk] = Token(
                        surface,
                        POS_TAGS[parts[1]],
                        NE_LABELS[parts[2]] if arity >= 3 else NE_OUTSIDE,
                        CLAUSE_LABELS[parts[3]] if arity == 4 else ClauseLabel.O,
                        is_space=surface == SPACE_GLYPH,
                    )
                except (LookupError, ValueError) as exc:
                    _fail(_inline_error(sent_idx, chunks, tok_idx, exc), errors)
                    break
            tokens.append(token)
        else:
            sentences.append(Sentence(tuple(tokens)))
    return sentences


def _inline_error(
    sent_idx: int, chunks: Sequence[str], tok_idx: int, exc: Optional[Exception]
) -> TokenError:
    """The error of a sentence that failed at chunk ``tok_idx`` with ``exc``: a
    layer-count mismatch if any, else every chunk fits and ``exc`` is the first."""
    if not _sentence_mask(chunks):
        bad = next((i for i, c in enumerate(chunks) if not _arity_mask(c)), 0)
        return TokenError(sent_idx, bad, "inconsistent or missing annotation layers")
    return TokenError(sent_idx, tok_idx, str(exc))


def inline_layer_count(text: str) -> int:
    """Largest uniform layer count found in the inline text (default 4)."""
    best = 0
    for chunks in _split_sentences(text):
        mask = _sentence_mask(chunks)
        # Skip malformed sentences and bare-space ones, which carry no layers.
        if mask and mask != _ANY_ARITY:
            best = max(best, mask.bit_length() - 1)
    return best or 4


def write_inline(sentences: Iterable[Sentence], layers: int = 4) -> str:
    """Serialize sentences in inline notation, one sentence per line.

    ``layers`` selects how many annotation layers are emitted (2, 3 or 4).
    Surfaces containing ``|`` or starting with white space, non-space
    surfaces equal to the space glyph, and a first surface starting with
    U+FEFF are rejected: they would not read back.
    """
    if layers not in _ARITIES:
        raise ValueError("layers must be 2, 3 or 4")
    lines = []
    for sentence in sentences:
        chunks = []
        for token in sentence.tokens:
            surface = SPACE_GLYPH if token.is_space else token.surface
            if "|" in surface:
                raise WriteError("surface containing '|' is not representable inline")
            if surface.lstrip() != surface:  # the reader would strip it off the chunk
                raise WriteError(
                    f"surface {surface!r} starting with white space is not representable inline"
                )
            if not token.is_space and surface == SPACE_GLYPH:
                raise WriteError(
                    f"literal {SPACE_GLYPH!r} surface is not representable inline"
                )
            parts = [surface, token.pos.text]
            if layers >= 3:
                parts.append(token.ne.text)
            if layers == 4:
                parts.append(token.clause.text)
            chunks.append("/".join(parts))
        lines.append(" | ".join(chunks) + " ||")
    return _refuse_leading_bom("\n".join(lines) + ("\n" if lines else ""))

