"""Readers and writers for the two concrete serializations.

Columnar: UTF-8, LF line endings, one token per line with exactly four
tab-separated fields (word, POS, NE, clause), sentences separated by an
empty line. A white-space word is written as the single character ``_``.

Inline: tokens separated by ``|``, annotation layers separated by ``/``
(2, 3 or 4 layers), ``||`` terminates a sentence, and a white-space word
is the glyph ``SPACE_GLYPH`` (U+2423).

Every command reads and writes records (see :func:`columnar_records`), the
library's API. The Token layer at the end of this module, which no command
runs, is a view over them: frozen :class:`Token`, :class:`Sentence` and
:class:`Document` values, and readers and writers that build and read them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import chain, compress, count, product, repeat
from operator import add, and_, attrgetter, eq, itemgetter, ne, not_
from typing import Iterable, Iterator, Optional, Sequence, Union

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
    _Frozen,
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


# Every valid "POS\tNE\tCLS" tail of a columnar line, mapped to its interned
# labels and the line's text between word and clause label, "\tPOS\tNE\t": a
# token line's tags are one lookup, or two with a CRLF ending.
_TAG_COLUMNS: dict[str, tuple[PosTag, NeLabel, ClauseLabel, str]] = {
    f"{pos}\t{ne}\t{clause}": (
        POS_TAGS[pos], NE_LABELS[ne], CLAUSE_LABELS[clause], f"\t{pos}\t{ne}\t"
    )
    for pos, ne, clause in product(POS_TAGS, NE_LABELS, CLAUSE_LABELS)
}
_FIRST, _SECOND, _THIRD, _FOURTH = map(itemgetter, range(4))
_TEXT = attrgetter("text")


def _fail(exc: FormatError, errors: Optional[list]) -> None:
    # errors=None selects strict mode: abort on the first problem.
    if errors is None:
        raise exc
    errors.append(exc)


_CHUNK_CHARS = 2048
_Text = Union[str, Iterable[str]]  # what the readers take: a whole text, or its pieces


def _parts(text: _Text, sep: str, skip_bom: bool) -> Iterator[str]:
    """A text, whole or as an iterable of its pieces (a file's decoded blocks),
    cut at the last ``sep`` of each piece: ``sep.join`` of the parts is the
    text. What follows that ``sep``, a partial line or sentence, or a CR that
    may pair with the next piece's LF, is carried over to the next cut; a
    ``sep`` split between two pieces stays inside a part. A whole text is
    taken ``_CHUNK_CHARS`` characters at a time, less a leading BOM under
    ``skip_bom`` by its offset; a piece loses it by a copy."""
    pieces = text
    if isinstance(text, str):
        step = max(_CHUNK_CHARS, 1)
        start, skip_bom = skip_bom and text.startswith(_BOM), False
        pieces = (text[i : i + step] for i in range(start, len(text), step))
    held: list[str] = []  # the text since the last cut, in pieces
    for piece in pieces:
        if skip_bom and piece:
            piece, skip_bom = piece.removeprefix(_BOM), False
        if sep in piece:
            joined = "".join(held) + piece
            cut = joined.rfind(sep)
            yield joined[:cut]
            held = [joined[cut + len(sep) :]]
        else:
            held.append(piece)
    yield "".join(held)


def _line_blocks(text: _Text) -> Iterator[str]:
    """The text of a columnar file, whole or in pieces, less its BOM and each
    line's final CR, a part (see :func:`_parts`) at a time, so that a reader
    holds no more of it than one part. A part ends before an LF, so a CRLF
    never straddles two."""
    for part in _parts(text, "\n", True):
        if "\r" in part:  # a scan several times faster than replace's
            part = part.replace("\r\n", "\n").removesuffix("\r")
        yield part


def tally_columnar(text: _Text) -> Optional[tuple[int, int, dict]]:
    """What :func:`columnar_records` would read from a clean file, whole or in
    pieces, tallied: its sentence count, its white-space token count and the
    count of each ``_TAG_COLUMNS`` entry, which ``stats.tally_counts`` counts.

    None unless every line, as :func:`_line_blocks` gives it, is blank or a
    token line (a non-empty word and a ``_TAG_COLUMNS`` tail): the first block
    with a bad line or an empty word ends the read and leaves the file to the
    records. Each block's tag tails are counted in one C-level pass, and its
    ``_`` and empty words on its text: one Python step runs per distinct tail.
    """
    tails: Counter = Counter()
    sentences = spaces = last = known = 0  # known: the tails checked so far
    for block in _line_blocks(text):
        if block.startswith("\t") or "\n\t" in block:  # an empty word
            return None
        lines = block.split("\n")
        flags = bytes(map(bool, lines))
        tails.update(map(_THIRD, map(str.partition, compress(lines, flags), repeat("\t"))))
        if len(tails) > known and not tails.keys() <= _TAG_COLUMNS.keys():
            return None  # a bad tail, or the "" of a line with no tab
        known = len(tails)
        spaces += block.count("\n_\t") + block.startswith("_\t")
        # A sentence ends at a non-empty line before an empty one.
        sentences += flags.count(b"\x01\x00") + (last > flags[0])
        last = flags[-1]
    return sentences + last, spaces, {_TAG_COLUMNS[tail]: n for tail, n in tails.items()}


def columnar_records(text: _Text, errors: Optional[list[LineError]] = None) -> Iterator[tuple]:
    """Each input sentence of a columnar file, a run of lines between blank
    lines, as its number from 0, words (``_`` for a white-space token), lines'
    ``_TAG_COLUMNS`` entries and space flags. The file is given whole or in
    pieces (see :func:`_parts`), and read a piece at a time. A bad line is
    left out: under ``errors=None`` it raises its :class:`LineError`, else
    the error is appended to ``errors``. A sentence of only bad lines keeps its number but
    is not yielded. Lines are parsed a chunk at a time in C-level passes, and
    one by one only in a chunk that holds a bad line. Every command reads
    columnar input here; :func:`read_columnar` builds Tokens from them."""
    number = line_no = 0
    words, labels, started = [], [], False  # started: the open sentence has a line
    chunks = map(str.split, _line_blocks(text), repeat("\n"))
    for lines in chain(chunks, [[""]]):  # a blank line closes the last sentence
        parts = list(map(str.partition, lines, repeat("\t")))
        chunk_words = list(map(_FIRST, parts))
        chunk_labels = list(map(_TAG_COLUMNS.get, map(_THIRD, parts)))
        blanks = list(compress(count(), map(not_, lines)))
        good = None  # which lines are token lines, in a chunk with a bad line
        # A blank line has no word and no tags; any other line without them is bad.
        if chunk_labels.count(None) > len(blanks) or chunk_words.count("") > len(blanks):
            good = list(map(all, zip(chunk_words, chunk_labels)))
            for i, line in enumerate(lines):
                if line and not good[i]:
                    _fail(_line_error(line_no + i + 1, line), errors)
        line_no += len(lines)
        start = 0
        for end in chain(blanks, [None]):  # None: the chunk's last lines, left open
            run = slice(start, end)  # the chunk's lines of the open sentence
            words += chunk_words[run] if good is None else compress(chunk_words[run], good[run])
            labels += chunk_labels[run] if good is None else compress(chunk_labels[run], good[run])
            if end is None:
                break
            if started or end > start:
                if words:
                    yield number, words, labels, list(map(eq, words, repeat(COLUMNAR_SPACE)))
                    words, labels = [], []
                number, started = number + 1, False
            start = end + 1
        started = lines[-1] != ""


def _relabel_blocks(records: Iterable[tuple], relabel) -> list[str]:
    """:func:`write_columnar_records` of :func:`_relabel_records` as blocks, with each line's
    "\tPOS\tNE\t" as read, not looked up: ``lst20 segment``'s columnar to columnar fork."""
    blocks = []
    for _, words, labels, spaces in records:
        pos, ne, tails = (list(map(get, labels)) for get in (_FIRST, _SECOND, _FOURTH))
        clauses, sentences = relabel(words, pos, ne, spaces)
        for lo, hi in sentences:
            pieces = zip(words[lo:hi], tails[lo:hi], map(_TEXT, clauses[lo:hi]), repeat("\n"))
            blocks += "\n", "".join(chain.from_iterable(pieces))
    return _refuse_leading_bom(blocks[1:])


def _relabel_records(records: Iterable[tuple], relabel) -> Iterator[tuple]:
    """A record per sentence that ``relabel(words, pos, ne, spaces)`` finds in
    each of ``records``, a paragraph's columns, as it gives each token's new
    clause label and each sentence's half-open token range; each token's
    ``_TAG_COLUMNS`` entry is swapped for the one with its new clause label."""
    for number, words, labels, spaces in records:
        pos, ne = (list(map(get, labels)) for get in (_FIRST, _SECOND))
        clauses, sentences = relabel(words, pos, ne, spaces)
        heads = [entry[3][1:] for entry in labels]  # each key's "POS\tNE\t"
        labels = list(map(_TAG_COLUMNS.__getitem__, map(add, heads, map(_TEXT, clauses))))
        for lo, hi in sentences:
            yield number, words[lo:hi], labels[lo:hi], spaces[lo:hi]


@cache
def _entry_texts(sep: str, labels: int, end: str = "") -> dict[int, str]:
    """What a writer puts after a word, by the id of its ``_TAG_COLUMNS`` entry:
    ``sep`` before each of the entry's first ``labels`` label texts, then ``end``.
    Built on first use, as at import it would cost about 1 ms."""
    return {
        id(entry): "".join(sep + label.text for label in entry[:labels]) + end
        for entry in _TAG_COLUMNS.values()
    }


def _line_error(line_no: int, line: str) -> LineError:
    """The error of a line, as :func:`_line_blocks` gives it, that is not blank
    and missed ``_TAG_COLUMNS`` or has an empty word: its field count, word or first bad column."""
    fields = line.split("\t")
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


def write_columnar_records(records: Iterable[tuple]) -> str:
    """:func:`write_columnar` of sentence records, as the record readers and
    :func:`sentence_records` give them: a white-space token's word is written
    ``_``; any other word ``_`` is refused, as it would read back as a space."""
    return "".join(_columnar_blocks(records))


def _columnar_blocks(records: Iterable[tuple]) -> list[str]:
    """The blocks :func:`write_columnar_records` joins: sentences, and empty lines between them."""
    texts = _entry_texts("\t", 3, "\n")
    blocks = []
    for _, words, labels, spaces in records:
        words = list(words)
        for i in compress(count(), spaces):
            words[i] = COLUMNAR_SPACE
        if words.count(COLUMNAR_SPACE) > spaces.count(True):
            raise WriteError("literal '_' surface is not representable in columnar form")
        tails = map(texts.__getitem__, map(id, labels))
        blocks += "\n", "".join(chain.from_iterable(zip(words, tails)))
    return _refuse_leading_bom(blocks[1:])


def _refuse_leading_bom(blocks: list[str]) -> list[str]:
    """``blocks``, unless both readers would strip the first character of their text."""
    if blocks and blocks[0].startswith(_BOM):
        raise WriteError(
            "first surface starting with U+FEFF is not representable: readers strip it"
        )
    return blocks


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
    if n >= 3 and (n > 3 or parts[0]) and parts[-2] in POS_TAGS and parts[-1] in NE_LABELS:
        mask |= 1 << 3
    if (n == 4 and parts[0] and parts[1] in POS_TAGS and parts[2] in NE_LABELS
            and parts[3] in CLAUSE_LABELS):
        mask |= 1 << 4
    return mask


def _sentence_mask(chunks: Sequence[str]) -> int:
    """Layer counts every chunk of a sentence parses under."""
    return reduce(and_, map(_arity_mask, chunks), _ANY_ARITY)


def _split_sentences(text: _Text, skip_bom: bool = False) -> Iterator[list[str]]:
    """Each sentence's chunks, as of ``text.split("||")``, of a text whole or
    in pieces, a part (see :func:`_parts`) at a time. A part ends before a
    ``||``, so a sentence never straddles two, and in a run of bars the bars
    that are not cut off are empty chunks, which are dropped."""
    for part in _parts(text, "||", skip_bom):
        for sentence in part.split("||"):
            if chunks := list(filter(None, map(str.strip, sentence.split("|")))):
                yield chunks


# By a tag tail's slash count, what its "/"-to-tab form lacks of a _TAG_COLUMNS
# key: its missing layers, which are O. A tail with a tab has too many to match.
_LACKING = {1: "\tO\tO", 2: "\tO", 3: ""}


def inline_records(text: _Text, errors: Optional[list[TokenError]] = None) -> Iterator[tuple]:
    """Each input sentence of inline text, whole or in pieces, read as
    :func:`columnar_records` reads a columnar file and given as it gives a
    columnar one: its number from 0, surfaces (the glyph for white space),
    ``_TAG_COLUMNS`` entries and space flags. A malformed sentence is left out
    whole: under ``errors=None`` its :class:`TokenError` raises, else it is
    appended to ``errors``. A sentence is read in C-level passes, at one layer
    more than its chunks' fewest slashes (the rest are in surfaces); a bare
    glyph, a tag tail that misses, or an empty surface or one with a tab or
    newline sends it to :func:`_inline_columns`, which checks it chunk by
    chunk. A leading BOM is skipped. Every command reads inline
    input here, and none builds a Token; :func:`read_inline` does."""
    for number, chunks in enumerate(_split_sentences(text, skip_bom=True)):
        slashes = list(map(str.count, chunks, repeat("/")))
        least = min(slashes)
        if least in _LACKING:
            parts = list(map(str.partition, chunks, repeat("/")))
            words, tails = list(map(_FIRST, parts)), list(map(_THIRD, parts))
            for i in compress(count(), map(ne, slashes, repeat(least))):  # a surface with a slash
                words[i] = chunks[i].rsplit("/", least)[0]
                tails[i] = chunks[i][len(words[i]) + 1 :]
            tabbed = map(str.replace, tails, repeat("/"), repeat("\t"))
            keys = map(add, tabbed, repeat(_LACKING[least]))
            labels = list(map(_TAG_COLUMNS.get, keys))
            joined = "".join(words)
            if None not in labels and "" not in words and "\t" not in joined and "\n" not in joined:
                yield number, words, labels, list(map(eq, words, repeat(SPACE_GLYPH)))
                continue
        if (columns := _inline_columns(number, chunks, errors)) is not None:
            yield number, *columns


def _inline_columns(number: int, chunks: Sequence[str], errors) -> Optional[tuple]:
    """A sentence's words, ``_TAG_COLUMNS`` entries and space flags, or None
    after its error. The layer counts come first: unless every chunk fits one,
    the first chunk that fits none, else the first, is reported. A fit finds
    each tag and a non-empty surface, so a tab or newline in a surface is the
    one error left. A bare glyph is a white-space token tagged ``PU``."""
    if not (mask := _sentence_mask(chunks)):
        bad = next((i for i, c in enumerate(chunks) if not _arity_mask(c)), 0)
        return _fail(TokenError(number, bad, "inconsistent or missing annotation layers"), errors)
    slashes = mask.bit_length() - 2  # a tag tail's, at the layer count every chunk fits
    parts = [[c, "PU", "O", "O"] if c == SPACE_GLYPH else c.rsplit("/", slashes) for c in chunks]
    words = list(map(_FIRST, parts))
    for i, word in enumerate(words):
        if "\t" in word or "\n" in word:
            reason = "token surface must not contain tab or newline"
            return _fail(TokenError(number, i, reason), errors)
    labels = [_TAG_COLUMNS["\t".join(tags) + _LACKING[len(tags)]] for _, *tags in parts]
    return words, labels, list(map(eq, words, repeat(SPACE_GLYPH)))


def inline_layer_count(text: _Text) -> int:
    """Largest uniform layer count found in the inline text, whole or in
    pieces (default 4)."""
    best = 0
    for chunks in _split_sentences(text):
        mask = _sentence_mask(chunks)
        # Skip malformed sentences and bare-space ones, which carry no layers.
        if mask and mask != _ANY_ARITY:
            best = max(best, mask.bit_length() - 1)
    return best or 4


def write_inline_records(records: Iterable[tuple], layers: int = 4) -> str:
    """:func:`write_inline` of sentence records, as :func:`columnar_records`,
    :func:`inline_records` and :func:`sentence_records` give them: a token's
    labels are its ``_TAG_COLUMNS`` entry. Refusals come in token order."""
    return "".join(_inline_blocks(records, layers))


def _inline_blocks(records: Iterable[tuple], layers: int) -> list[str]:
    """The blocks :func:`write_inline_records` joins: each sentence's line."""
    if layers not in _ARITIES:
        raise ValueError("layers must be 2, 3 or 4")
    texts = _entry_texts("/", layers - 1)
    blocks = []
    for _, words, labels, spaces in records:
        surfaces = list(words)
        for i in compress(count(), spaces):
            surfaces[i] = SPACE_GLYPH
        # C-level passes that clear most sentences of all three refusals.
        clean = "|" not in "".join(surfaces) and list(map(str.lstrip, surfaces)) == surfaces
        if not clean or surfaces.count(SPACE_GLYPH) > spaces.count(True):
            _refuse_inline(surfaces, spaces)
        tails = map(texts.__getitem__, map(id, labels))
        blocks.append(" | ".join(map(add, surfaces, tails)) + " ||\n")
    return _refuse_leading_bom(blocks)


def _refuse_inline(surfaces: Sequence[str], spaces: Sequence[bool]) -> None:
    """Raise the WriteError of a sentence's first surface that inline text
    cannot represent."""
    for surface, is_space in zip(surfaces, spaces):
        if "|" in surface:
            raise WriteError("surface containing '|' is not representable inline")
        if surface.lstrip() != surface:  # the reader would strip it off the chunk
            raise WriteError(
                f"surface {surface!r} starting with white space is not representable inline"
            )
        if not is_space and surface == SPACE_GLYPH:
            raise WriteError(f"literal {SPACE_GLYPH!r} surface is not representable inline")


class Token(_Frozen):
    """One annotated word: surface text plus its POS, NE and clause labels."""

    _fields = __slots__ = ("surface", "pos", "ne", "clause", "is_space")

    # _relabelled below fills a copy's slots itself, without the checks its
    # input token passed; a test fails if it bypasses one added here.
    def __init__(self, surface: str, pos: PosTag, ne: NeLabel = NE_OUTSIDE,
                 clause: ClauseLabel = ClauseLabel.O, is_space: bool = False) -> None:
        if not surface:
            raise ValueError("token surface must be non-empty")
        if "\t" in surface or "\n" in surface:
            raise ValueError("token surface must not contain tab or newline")
        if is_space and surface != SPACE_GLYPH:
            raise ValueError(f"space tokens use the canonical surface {SPACE_GLYPH!r}")
        self._set_slots((surface, pos, ne, clause, is_space))


def _token_columns(tokens: Sequence[Token], *names: str) -> list[list]:
    """The named fields of ``tokens``, each read off them in one C-level pass:
    the columns that the lint and segmentation rules take."""
    return [list(map(attrgetter(name), tokens)) for name in names]


def _relabelled(token: Token, clause: ClauseLabel) -> Token:
    """``token`` with clause label ``clause``: itself when it already has it,
    else a copy whose slots are written directly. ``token`` passed Token's
    checks, and the clause label is none of them."""
    if token.clause is clause:
        return token
    new = object.__new__(Token)
    new._set_slots((token.surface, token.pos, token.ne, clause, token.is_space))
    return new


class Sentence(_Frozen):
    _fields = __slots__ = ("tokens",)

    def __init__(self, tokens: Iterable[Token]) -> None:
        tokens = tuple(tokens)
        if not tokens:
            raise ValueError("sentence must contain at least one token")
        self._set_slots((tokens,))


class Document(_Frozen):
    _fields = __slots__ = ("doc_id", "sentences")

    def __init__(self, doc_id: str, sentences: Iterable[Sentence] = ()) -> None:
        sentences = tuple(sentences)
        if not doc_id:
            raise ValueError("document id must be non-empty")
        self._set_slots((doc_id, sentences))


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
