"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the code paths they verify: boundary-label
legality is decided by a regular expression, frame matching by exhaustive
enumeration of slot lengths, and entity counting by regex span extraction.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Sequence

from lst20tools.format import Token
from lst20tools.frames import FramePattern, SlotKind
from lst20tools.schema import PosTag


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


def count_entity_spans(labels: Sequence[str]) -> int:
    """Maximal spans (B...E or lone B) in a legal label sequence."""
    text, _ = _encode(labels)
    return len(re.findall(r"B(\d)(?:I\1)*(?:E\1)?", text))


def r2_space_splits(tokens: Sequence[Token], markers: frozenset[str]) -> list[int]:
    """R2 split points by the rule's direct, quadratic reading.

    A space splits when a verb lies between the last split and the space,
    a verb lies in the non-space run right after it, and a clause marker
    touches it on either side. The left flank is rescanned at every space.
    """

    def has_verb(start: int, end: int) -> bool:
        return any(t.pos is PosTag.VV for t in tokens[start:end])

    def is_marker(i: int) -> bool:
        inside = 0 <= i < len(tokens)
        return inside and not tokens[i].is_space and tokens[i].surface in markers

    splits = []
    region_start = 0
    for i, token in enumerate(tokens):
        if not token.is_space:
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
