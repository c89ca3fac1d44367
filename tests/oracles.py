"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they verify: boundary-label
legality is decided by a regular expression, frame matching by exhaustive
enumeration of slot lengths, its witness alignment by recursive
backtracking, entity spans and counts by regex span extraction,
corpus counts straight off the tab-split rows of a columnar file,
clause spans by cutting at every connector and merging verbless chunks,
inline parsing by testing every chunk of a sentence at each layer count,
from the format's definition and the public label tables alone,
columnar parsing one line at a time over the whole file's lines, both
into plain tuples of words, label texts and space flags with no token
built, input sentences as runs of non-blank lines or as the chunks up to
``||``, and linting such tuples by the regular expression per layer plus
every token rule tested on each token and each adjacent pair on its own.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from itertools import product
from typing import Optional, Sequence

from lst20tools.format import SPACE_GLYPH, Token
from lst20tools.frames import FramePattern, FrameSlot, SlotKind
from lst20tools.schema import (
    CLAUSE_LABELS,
    NE_LABELS,
    POS_TAGS,
    PosTag,
    parse_clause_label,
    parse_ne_label,
    parse_pos_tag,
)


def _encode(labels: Sequence[str]) -> tuple[str, list[str]]:
    """Map label strings onto one letter+digit pair per label."""
    cats = sorted({lab.split("_", 1)[1] for lab in labels if lab != "O"})
    digit = {cat: str(i + 1) for i, cat in enumerate(cats)}
    encoded = []
    for lab in labels:
        if lab == "O":
            encoded.append("O0")
        else:
            prefix, cat = lab.split("_", 1)
            encoded.append(prefix + digit[cat])
    return "".join(encoded), cats


def bieo_accepts(labels: Sequence[str]) -> bool:
    """Regular-language check: (O | B_x | B_x I_x* E_x)* per category."""
    text, cats = _encode(labels)
    alternatives = ["O0"]
    for i in range(1, len(cats) + 1):
        alternatives.append(f"B{i}(?:I{i})*E{i}")
        alternatives.append(f"B{i}")
    pattern = "^(?:" + "|".join(alternatives) + ")*$"
    return re.match(pattern, text) is not None


def bieo_spans(labels: Sequence[str]) -> list[tuple[int, int]]:
    """Half-open spans (B...E or lone B) of a legal label sequence.

    Each label encodes to two characters, so a match at offset ``k`` starts
    at label ``k // 2``; this holds for fewer than ten categories.
    """
    text, _ = _encode(labels)
    return [
        (match.start() // 2, match.end() // 2)
        for match in re.finditer(r"B(\d)(?:(?:I\1)*E\1)?", text)
    ]


def count_entity_spans(labels: Sequence[str]) -> int:
    """Maximal spans (B...E or lone B) in a legal label sequence."""
    text, _ = _encode(labels)
    return len(re.findall(r"B(\d)(?:I\1)*(?:E\1)?", text))


def column_counts(text: str, include_spaces: bool = False) -> tuple[dict, Counter, Counter]:
    """The six counts, POS histogram and NE histogram of one clean columnar
    file, read off its rows: a ``B_`` NE prefix opens an entity, ``B_CLS`` a
    clause, and the word ``_`` is a space."""
    blocks = [b for b in text.split("\n\n") if b.strip("\n")]
    rows = [line.split("\t") for b in blocks for line in b.split("\n") if line]
    ne = Counter(r[2][2:] for r in rows if r[2].startswith("B_"))
    counts = {
        "documents": 1,
        "sentences": len(blocks),
        "clauses": sum(r[3] == "B_CLS" for r in rows),
        "named_entities": sum(ne.values()),
        "words": sum(include_spaces or r[0] != "_" for r in rows),
        "tokens": len(rows),
    }
    return counts, Counter(r[1] for r in rows), ne


def r2_space_splits(tokens: Sequence[Token], markers: frozenset[str]) -> list[int]:
    """R2 split points by the rule's direct, quadratic reading.

    A space outside every named entity splits when a verb lies between the
    last split and the space, a verb lies in the non-space run right after
    it, and a clause marker touches it on either side. The left flank is
    rescanned at every space.
    """

    def has_verb(start: int, end: int) -> bool:
        return any(t.pos is PosTag.VV for t in tokens[start:end])

    def is_marker(i: int) -> bool:
        inside = 0 <= i < len(tokens)
        return inside and not tokens[i].is_space and tokens[i].surface in markers

    splits = []
    region_start = 0
    for i, token in enumerate(tokens):
        if not token.is_space or str(token.ne) != "O":
            continue
        j = i + 1
        while j < len(tokens) and not tokens[j].is_space:
            j += 1
        if (
            has_verb(region_start, i)
            and has_verb(i + 1, j)
            and (is_marker(i - 1) or is_marker(i + 1))
        ):
            splits.append(i)
            region_start = i + 1
    return splits


def clause_spans(
    tokens: Sequence[Token], markers: frozenset[str], connectors: frozenset[str]
) -> list[tuple[int, int]]:
    """Clause spans of one paragraph by the rules' chunk-and-merge reading.

    R2 regions lie between the ``r2_space_splits`` points, each trimmed of
    the spaces outside names at its edges. R3 chunks a region at every
    CC-tagged connector after its first token, except one inside a name (NE
    prefix I or E). A chunk without a verb is folded into the next one, or
    into the previous one at the region end, and every span is trimmed.
    """

    def is_gap(token: Token) -> bool:
        return token.is_space and str(token.ne) == "O"

    def trim(start: int, end: int) -> Optional[tuple[int, int]]:
        while start < end and is_gap(tokens[start]):
            start += 1
        while end > start and is_gap(tokens[end - 1]):
            end -= 1
        return (start, end) if start < end else None

    def has_verb(start: int, end: int) -> bool:
        return any(t.pos is PosTag.VV for t in tokens[start:end])

    def opens_clause(token: Token) -> bool:
        return (
            not token.is_space
            and token.pos is PosTag.CC
            and token.surface in connectors
            and str(token.ne)[:2] not in ("I_", "E_")
        )

    splits = r2_space_splits(tokens, markers)
    spans = []
    for start, end in zip([0] + [i + 1 for i in splits], splits + [len(tokens)]):
        region = trim(start, end)
        if region is None:
            continue
        start, end = region
        bounds = [start] + [i for i in range(start + 1, end) if opens_clause(tokens[i])] + [end]
        merged: list[tuple[int, int]] = []
        pending = None  # start of the verbless chunks waiting for a verb
        for lo, hi in zip(bounds, bounds[1:]):
            lo = lo if pending is None else pending
            pending = None
            if has_verb(lo, hi):
                merged.append((lo, hi))
            else:
                pending = lo
        if pending is not None:
            merged = merged[:-1] + [(merged[-1][0] if merged else pending, end)]
        spans.extend(trim(lo, hi) for lo, hi in merged)
    return spans


def frame_match_exists(
    frame: FramePattern, tags: Sequence[PosTag], candidate: int
) -> bool:
    """Exhaustive alignment search: try every slot-length assignment."""
    n = len(tags)
    choices = []
    for slot in frame.slots:
        if slot.kind is SlotKind.HOLE:
            choices.append((1,))
        elif slot.kind is SlotKind.PHRASE:
            choices.append(tuple(range(0 if slot.optional else 1, n + 1)))
        else:
            choices.append((0, 1) if slot.optional else (1,))
    for lengths in product(*choices):
        if sum(lengths) != n:
            continue
        pos = 0
        ok = True
        for slot, take in zip(frame.slots, lengths):
            if slot.kind is SlotKind.HOLE and pos != candidate:
                ok = False
                break
            if slot.kind is SlotKind.EXACT and take == 1 and tags[pos] is not slot.tag:
                ok = False
                break
            pos += take
        if ok:
            return True
    return False


def frame_witness(
    frame: FramePattern, tags: Sequence[PosTag], candidate: int
) -> Optional[tuple[tuple[int, int], ...]]:
    """Leftmost-longest alignment by its direct, exponential reading.

    Slots are assigned left to right by recursive backtracking: a phrase
    tries its longest run first, an exact slot tries to take its tag before
    taking nothing, and the hole takes the candidate token only.
    """

    def cover(slots: Sequence[FrameSlot], lo: int) -> Optional[list[tuple[int, int]]]:
        if not slots:
            return [] if lo == len(tags) else None
        head, rest = slots[0], slots[1:]
        if head.kind is SlotKind.PHRASE:
            shortest = 0 if head.optional else 1
            nexts = range(len(tags), lo + shortest - 1, -1)
        elif head.kind is SlotKind.HOLE:
            nexts = [lo + 1] if lo == candidate else []
        else:
            nexts = [lo + 1] if lo < len(tags) and tags[lo] is head.tag else []
            if head.optional:
                nexts.append(lo)
        for nxt in nexts:
            sub = cover(rest, nxt)
            if sub is not None:
                return [(lo, nxt)] + sub
        return None

    alignment = cover(frame.slots, 0)
    return None if alignment is None else tuple(alignment)


#: The label table of each inline field after the surface, in order.
_INLINE_TABLES = (POS_TAGS, NE_LABELS, CLAUSE_LABELS)


def inline_sentence_chunks(text: str) -> list[list[str]]:
    """The chunks of each sentence of inline text: ``||`` ends a sentence,
    ``|`` separates its chunks, white space around a chunk is not part of
    it, and a sentence with no chunk is no sentence. The whole text is split
    on ``||`` up front, then each part on ``|``."""
    sentences = []
    for part in text.split("||"):
        chunks = [chunk.strip() for chunk in part.split("|")]
        if any(chunks):
            sentences.append([chunk for chunk in chunks if chunk])
    return sentences


def _fits(chunk: str, k: int) -> bool:
    """Whether ``chunk`` reads as ``k`` layers: split at its last ``k - 1``
    slashes it has ``k`` parts, a non-empty surface and a label of the right
    table in each later field. The bare glyph fits every count."""
    if chunk == SPACE_GLYPH:
        return True
    parts = chunk.rsplit("/", k - 1)
    return (
        len(parts) == k
        and parts[0] != ""
        and all(part in table for part, table in zip(parts[1:], _INLINE_TABLES))
    )


def read_inline_two_pass(text: str, errors: list) -> list[tuple]:
    """Inline parsing in two passes per sentence, with no memo, no label table
    and no token.

    The first pass tests every chunk at each layer count 2, 3 and 4; a
    sentence reads at the largest count all its chunks fit. When they share
    none, the sentence is a layer-count mismatch, located at the first chunk
    that fits no count, else at token 0. The second pass splits each chunk
    at the sentence's count and stops at the first surface with a tab or
    newline. Each sentence that reads is ``(number, words, labels, spaces)``:
    its input number from 0, its surfaces (the glyph for white space), each
    token's ``(pos, ne, clause)`` label texts, missing layers ``O``, and each
    token's white-space flag. Each other one is appended to ``errors`` as
    ``(sentence, token, reason)``.
    """
    records = []
    for number, chunks in enumerate(inline_sentence_chunks(text.removeprefix("\ufeff"))):
        shared = [k for k in (2, 3, 4) if all(_fits(chunk, k) for chunk in chunks)]
        if not shared:
            bad = next(
                (i for i, c in enumerate(chunks) if not any(_fits(c, k) for k in (2, 3, 4))), 0
            )
            errors.append((number, bad, "inconsistent or missing annotation layers"))
            continue
        # Every chunk fits this count, so each tag is a label text of its table.
        split = [[c, "PU"] if c == SPACE_GLYPH else c.rsplit("/", max(shared) - 1) for c in chunks]
        words = [word for word, *_ in split]
        bad = next((i for i, word in enumerate(words) if "\t" in word or "\n" in word), None)
        if bad is not None:
            errors.append((number, bad, "token surface must not contain tab or newline"))
            continue
        labels = [(*tags, *["O"] * (3 - len(tags))) for _, *tags in split]
        records.append((number, words, labels, [word == SPACE_GLYPH for word in words]))
    return records


def inline_input_sentences(text: str) -> list[str]:
    """The text of each input sentence of inline text, in order, as inline text
    of one sentence: a leading BOM, so that reading it strips no character of
    the first chunk, then its chunks and ``||``. Every sentence with a chunk
    counts, whether or not it parses."""
    sentences = inline_sentence_chunks(text.removeprefix("\ufeff"))
    return ["\ufeff" + " | ".join(chunks) + " ||" for chunks in sentences]


def read_columnar_lines(text: str, errors: list) -> list[tuple]:
    """Columnar parsing one line at a time, with no memo, no label table and
    no token.

    Splits the whole text into lines up front and parses every line on its
    own, its labels through the schema's parse functions. Each input
    sentence, a run of lines that are not blank once a final CR is dropped,
    that holds a line that parses is ``(number, words, labels, spaces)``: its
    input number from 0, its words as written (``_`` for white space), each
    token's ``(pos, ne, clause)`` label texts and each token's white-space
    flag. Each bad line is appended to ``errors`` as ``(line number, reason)``.
    """
    sentences: list[tuple[list, list]] = []  # each input sentence's words and labels
    current = None
    for line_no, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.removesuffix("\r")
        if not line:
            current = None
            continue
        if current is None:
            current = ([], [])
            sentences.append(current)
        fields = line.split("\t")
        try:
            if len(fields) != 4:
                raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
            word, pos, ne, clause = fields
            if not word:
                raise ValueError("empty word field")
            labels = (parse_pos_tag(pos), parse_ne_label(ne), parse_clause_label(clause))
        except ValueError as exc:  # the schema's UnknownTag and MalformedLabel too
            errors.append((line_no, str(exc)))
            continue
        current[0].append(word)
        current[1].append(tuple(map(str, labels)))
    return [
        (number, words, labels, [word == "_" for word in words])
        for number, (words, labels) in enumerate(sentences)
        if words
    ]


def columnar_input_sentences(text: str) -> list[str]:
    """The text of each input sentence of a columnar file, in order: a run of
    lines that are not blank once a final CR is dropped, between blank lines,
    counted whether or not any of its lines parses."""
    blocks, current = [], []
    for raw in text.removeprefix("\ufeff").split("\n"):
        if raw.removesuffix("\r"):
            current.append(raw)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return blocks

_URL_HEADS = ("http://", "https://", "www.")
_PRINTABLE_ASCII = frozenset(map(chr, range(0x21, 0x7F)))
_URL_TAIL = frozenset(string.ascii_letters + string.digits + "/._~%?#=&+-")
_PUNCTUATION = frozenset(string.punctuation)


def lint_oracle(records) -> set[tuple[int, Optional[int], str]]:
    """What the linter decides on ``(number, words, labels, spaces)`` records,
    as the readers above give them, as ``(sentence, token, code)`` triples.

    A BIEO layer that the regular language rejects gives one
    ``(sentence, None, "NE")`` or ``(sentence, None, "CLS")``: which rule
    and where is the automaton's choice, not the language's. The clause
    warnings come from the regex spans of a legal clause layer. The token
    rules are tested on every token and on every adjacent pair, each on
    its own, with no state carried between pairs.
    """
    found: set[tuple[int, Optional[int], str]] = set()
    for s, words, labels, spaces in records:
        pos, ne, clauses = (list(column) for column in zip(*labels))
        if not bieo_accepts(ne):
            found.add((s, None, "NE"))
        if not bieo_accepts(clauses):
            found.add((s, None, "CLS"))
        else:
            for start, end in bieo_spans(clauses):
                if end - start == 1:
                    found.add((s, start, "CLS_SINGLETON"))
                if "VV" not in pos[start:end]:
                    found.add((s, start, "CLS_NO_VERB"))
        for i, word in enumerate(words):
            if spaces[i] and pos[i] != "PU":
                found.add((s, i, "SPACE_NOT_PU"))
            if not spaces[i] and any(c.isspace() for c in word):
                found.add((s, i, "FORMAT_SPACE_IN_SURFACE"))
        for i in range(len(words) - 1):
            if spaces[i] or spaces[i + 1]:
                continue
            cur, nxt = words[i], words[i + 1]
            if (
                cur.startswith(_URL_HEADS)
                and set(cur) <= _PRINTABLE_ASCII
                and set(nxt) <= _URL_TAIL
            ):
                found.add((s, i, "URL_SPLIT"))
            if cur in _PUNCTUATION and nxt in _PUNCTUATION:
                found.add((s, i + 1, "PUNCT_RUN_SPLIT"))
    return found
