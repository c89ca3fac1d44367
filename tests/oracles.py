"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they verify: boundary-label
legality is decided by a regular expression, frame matching by exhaustive
enumeration of slot lengths, its witness alignment by recursive
backtracking, entity spans and counts by regex span extraction,
corpus counts straight off the tab-split rows of a columnar file,
clause spans by cutting at every connector and merging verbless chunks,
inline parsing by masking every chunk of a sentence before building
any token, columnar parsing one line at a time over the whole file's
lines, and linting by the regular expression per layer plus every token
rule tested on each token and each adjacent pair on its own.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from itertools import product
from typing import Optional, Sequence

from lst20tools.format import (
    SPACE_GLYPH,
    LineError,
    Sentence,
    Token,
    TokenError,
    _arity_mask,
    _sentence_mask,
    _split_sentences,
)
from lst20tools.frames import FramePattern, FrameSlot, SlotKind
from lst20tools.schema import (
    CLAUSE_LABELS,
    NE_LABELS,
    NE_OUTSIDE,
    POS_TAGS,
    ClauseLabel,
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


def read_inline_two_pass(
    text: str, errors: Optional[list[TokenError]] = None
) -> list[Sentence]:
    """Inline parsing in two passes per sentence, with no memo.

    The first pass masks every chunk with the layer counts it fits; a
    sentence whose chunks share none is a layer-count mismatch, located at
    the first chunk that fits no count. The second pass builds each token
    at the sentence's count and stops at the first that raises. Strict and
    permissive modes follow :func:`lst20tools.format.read_inline`.
    """
    sentences = []
    for sent_idx, chunks in enumerate(_split_sentences(text.removeprefix("\ufeff"))):
        failure = None
        mask = _sentence_mask(chunks)
        if not mask:
            bad = next((i for i, c in enumerate(chunks) if not _arity_mask(c)), 0)
            failure = TokenError(sent_idx, bad, "inconsistent or missing annotation layers")
        else:
            arity = mask.bit_length() - 1
            tokens = []
            for tok_idx, chunk in enumerate(chunks):
                if chunk == SPACE_GLYPH:  # the bare glyph: a space at any count
                    tokens.append(Token(SPACE_GLYPH, PosTag.PU, is_space=True))
                    continue
                # Every chunk fits this count, so the lookups below cannot miss.
                parts = chunk.rsplit("/", arity - 1)
                try:
                    tokens.append(
                        Token(
                            parts[0],
                            POS_TAGS[parts[1]],
                            NE_LABELS[parts[2]] if arity >= 3 else NE_OUTSIDE,
                            CLAUSE_LABELS[parts[3]] if arity == 4 else ClauseLabel.O,
                            is_space=parts[0] == SPACE_GLYPH,
                        )
                    )
                except ValueError as exc:
                    failure = TokenError(sent_idx, tok_idx, str(exc))
                    break
        if failure is None:
            sentences.append(Sentence(tuple(tokens)))
        elif errors is None:
            raise failure
        else:
            errors.append(failure)
    return sentences


def read_columnar_lines(
    text: str, errors: Optional[list[LineError]] = None
) -> list[Sentence]:
    """Columnar parsing one line at a time, with no memo.

    Splits the whole text into lines up front and parses every line on its
    own, its labels through the schema's parse functions. Strict and
    permissive modes follow :func:`lst20tools.format.read_columnar`.
    """
    sentences, current = [], []
    for line_no, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.removesuffix("\r")
        if not line:
            if current:
                sentences.append(Sentence(tuple(current)))
            current = []
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 4:
                raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
            word, pos, ne, clause = fields
            if not word:
                raise ValueError("empty word field")
            current.append(
                Token(
                    SPACE_GLYPH if word == "_" else word,
                    parse_pos_tag(pos),
                    parse_ne_label(ne),
                    parse_clause_label(clause),
                    is_space=word == "_",
                )
            )
        except ValueError as exc:  # the schema's UnknownTag and MalformedLabel too
            failure = LineError(line_no, str(exc))
            if errors is None:
                raise failure from None
            errors.append(failure)
    if current:
        sentences.append(Sentence(tuple(current)))
    return sentences


_URL_HEADS = ("http://", "https://", "www.")
_PRINTABLE_ASCII = frozenset(map(chr, range(0x21, 0x7F)))
_URL_TAIL = frozenset(string.ascii_letters + string.digits + "/._~%?#=&+-")
_PUNCTUATION = frozenset(string.punctuation)


def lint_oracle(sentences: Sequence[Sentence]) -> set[tuple[int, Optional[int], str]]:
    """What the linter decides, as ``(sentence, token, code)`` triples.

    A BIEO layer that the regular language rejects gives one
    ``(sentence, None, "NE")`` or ``(sentence, None, "CLS")``: which rule
    and where is the automaton's choice, not the language's. The clause
    warnings come from the regex spans of a legal clause layer. The token
    rules are tested on every token and on every adjacent pair, each on
    its own, with no state carried between pairs.
    """
    found: set[tuple[int, Optional[int], str]] = set()
    for s, sentence in enumerate(sentences):
        tokens = sentence.tokens
        if not bieo_accepts([str(t.ne) for t in tokens]):
            found.add((s, None, "NE"))
        clauses = [str(t.clause) for t in tokens]
        if not bieo_accepts(clauses):
            found.add((s, None, "CLS"))
        else:
            for start, end in bieo_spans(clauses):
                if end - start == 1:
                    found.add((s, start, "CLS_SINGLETON"))
                if all(t.pos is not PosTag.VV for t in tokens[start:end]):
                    found.add((s, start, "CLS_NO_VERB"))
        for i, token in enumerate(tokens):
            if token.is_space and token.pos is not PosTag.PU:
                found.add((s, i, "SPACE_NOT_PU"))
            if not token.is_space and any(c.isspace() for c in token.surface):
                found.add((s, i, "FORMAT_SPACE_IN_SURFACE"))
        for i in range(len(tokens) - 1):
            cur, nxt = tokens[i], tokens[i + 1]
            if cur.is_space or nxt.is_space:
                continue
            if (
                cur.surface.startswith(_URL_HEADS)
                and set(cur.surface) <= _PRINTABLE_ASCII
                and set(nxt.surface) <= _URL_TAIL
            ):
                found.add((s, i, "URL_SPLIT"))
            if cur.surface in _PUNCTUATION and nxt.surface in _PUNCTUATION:
                found.add((s, i + 1, "PUNCT_RUN_SPLIT"))
    return found
