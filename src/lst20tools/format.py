"""Readers and writers for the two concrete serializations.

Columnar: UTF-8, LF line endings, one token per line with exactly four
tab-separated fields (word, POS, NE, clause), sentences separated by an
empty line. A white-space word is written as the single character ``_``.

Inline: tokens separated by ``|``, annotation layers separated by ``/``
(2, 3 or 4 layers), ``||`` terminates a sentence, and a white-space word
is the glyph ``SPACE_GLYPH`` (U+2423).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True, slots=True)
class Token:
    """One annotated word: surface text plus its POS, NE and clause labels."""

    surface: str
    pos: PosTag
    ne: NeLabel = NE_OUTSIDE
    clause: ClauseLabel = ClauseLabel.O
    is_space: bool = False

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if "\t" in self.surface or "\n" in self.surface:
            raise ValueError("token surface must not contain tab or newline")
        if self.is_space and self.surface != SPACE_GLYPH:
            raise ValueError(
                f"space tokens use the canonical surface {SPACE_GLYPH!r}"
            )


def space_token(
    pos: PosTag = PosTag.PU,
    ne: NeLabel = NE_OUTSIDE,
    clause: ClauseLabel = ClauseLabel.O,
) -> Token:
    return Token(SPACE_GLYPH, pos, ne, clause, is_space=True)


_BARE_SPACE = space_token()


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...] = ()
    genre: Optional[str] = None
    # Sentence indices that open a paragraph; populated by the segmenter,
    # not representable in the columnar file itself.
    paragraph_starts: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if not self.doc_id:
            raise ValueError("document id must be non-empty")
        if self.paragraph_starts is not None:
            object.__setattr__(
                self, "paragraph_starts", tuple(self.paragraph_starts)
            )


@dataclass(frozen=True, slots=True)
class Corpus:
    documents: tuple[Document, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))


def _fail(exc: FormatError, errors: Optional[list]) -> None:
    # errors=None selects strict mode: abort on the first problem.
    if errors is None:
        raise exc
    errors.append(exc)


def read_columnar(
    text: str, doc_id: str = "doc", *, errors: Optional[list[LineError]] = None
) -> Document:
    """Parse a columnar file into a Document.

    In strict mode (``errors=None``) the first bad line raises
    :class:`LineError`. Passing a list switches to permissive mode: bad
    lines are skipped and their errors appended to the list.
    """
    text = text.removeprefix(_BOM)
    sentences: list[Sentence] = []
    current: list[Token] = []

    def flush() -> None:
        if current:
            sentences.append(Sentence(tuple(current)))
            current.clear()

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        if line == "":
            flush()
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            _fail(
                LineError(
                    line_no,
                    f"expected 4 tab-separated fields, got {len(fields)}",
                ),
                errors,
            )
            continue
        word, pos_text, ne_text, clause_text = fields
        if word == "":
            _fail(LineError(line_no, "empty word field"), errors)
            continue
        try:
            pos = parse_pos_tag(pos_text)
            ne = parse_ne_label(ne_text)
            clause = parse_clause_label(clause_text)
        except (UnknownTag, MalformedLabel) as exc:
            _fail(LineError(line_no, str(exc)), errors)
            continue
        if word == COLUMNAR_SPACE:
            current.append(Token(SPACE_GLYPH, pos, ne, clause, is_space=True))
        else:
            current.append(Token(word, pos, ne, clause))
    flush()
    return Document(doc_id, tuple(sentences))


def write_columnar(doc: Document) -> str:
    """Serialize a Document: inverse of :func:`read_columnar`.

    An empty document yields the empty string; otherwise sentences are
    separated by exactly one empty line and the output ends with a newline.
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
                "\t".join(
                    (word, token.pos.value, str(token.ne), token.clause.value)
                )
            )
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


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
    """
    text = text.removeprefix(_BOM)
    sentences: list[Sentence] = []
    for sent_idx, chunks in enumerate(_split_sentences(text)):
        mask = _sentence_mask(chunks)
        if not mask:
            bad = next((i for i, c in enumerate(chunks) if not _arity_mask(c)), 0)
            _fail(
                TokenError(sent_idx, bad, "inconsistent or missing annotation layers"),
                errors,
            )
            continue
        arity = mask.bit_length() - 1
        tokens: list[Token] = []
        for tok_idx, chunk in enumerate(chunks):
            if chunk == SPACE_GLYPH:
                tokens.append(_BARE_SPACE)
                continue
            # Every chunk fits this arity, so the lookups below cannot miss.
            parts = chunk.rsplit("/", arity - 1)
            surface = parts[0]
            try:
                tokens.append(
                    Token(
                        surface,
                        POS_TAGS[parts[1]],
                        NE_LABELS[parts[2]] if arity >= 3 else NE_OUTSIDE,
                        CLAUSE_LABELS[parts[3]] if arity == 4 else ClauseLabel.O,
                        is_space=surface == SPACE_GLYPH,
                    )
                )
            except ValueError as exc:
                _fail(TokenError(sent_idx, tok_idx, str(exc)), errors)
                break
        else:
            sentences.append(Sentence(tuple(tokens)))
    return sentences


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
    Surfaces containing ``|`` and non-space surfaces equal to the space
    glyph are rejected: both would be misread on the way back in.
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
            if not token.is_space and surface == SPACE_GLYPH:
                raise WriteError(
                    f"literal {SPACE_GLYPH!r} surface is not representable inline"
                )
            parts = [surface, token.pos.value]
            if layers >= 3:
                parts.append(str(token.ne))
            if layers == 4:
                parts.append(token.clause.value)
            chunks.append("/".join(parts))
        lines.append(" | ".join(chunks) + " ||")
    return "\n".join(lines) + ("\n" if lines else "")


def convert(
    src_format: str,
    dst_format: str,
    text: str,
    *,
    doc_id: str = "doc",
    errors: Optional[list] = None,
) -> str:
    """Re-serialize ``text`` from one format to the other.

    Converting between the two formats preserves all four layers
    (inline output uses 4 layers; inline input defaults missing trailing
    layers to O). Converting a format to itself canonicalizes the file,
    preserving the inline layer count.
    """
    for name in (src_format, dst_format):
        if name not in (FORMAT_COLUMNAR, FORMAT_INLINE):
            raise ValueError(f"unknown format {name!r}")
    if src_format == FORMAT_COLUMNAR:
        doc = read_columnar(text, doc_id, errors=errors)
        sentences = list(doc.sentences)
    else:
        sentences = read_inline(text, errors=errors)
        doc = Document(doc_id, tuple(sentences))
    if dst_format == FORMAT_COLUMNAR:
        return write_columnar(doc)
    layers = inline_layer_count(text) if src_format == FORMAT_INLINE else 4
    return write_inline(sentences, layers)


def relabel_clauses(
    tokens: Sequence[Token], labels: Sequence[ClauseLabel]
) -> tuple[Token, ...]:
    """Tokens with the clause layer replaced; other layers untouched."""
    if len(tokens) != len(labels):
        raise ValueError("one clause label per token required")
    return tuple(
        replace(token, clause=label) for token, label in zip(tokens, labels)
    )
