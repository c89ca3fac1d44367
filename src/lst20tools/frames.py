"""Distributional POS test frames: a pattern mini-language and matcher.

A frame is a whitespace-separated list of slots:

* ``_``      the hole: the word under test (exactly one per frame)
* ``TAG``    exactly one token with that POS tag
* ``(TAG)``  zero or one token with that POS tag
* ``*``      a run of one or more tokens of any POS
* ``*?``     a run of zero or more tokens of any POS

A frame matches a POS sequence when its slots cover the whole sequence
with the hole bound to the candidate index. Content-word classes are
derived from the union of matched frame ids over a lexeme's attested
usages: noun requires all four NN frames, verb requires one of VV.1-VV.5
plus VV.6, adjective and adverb require any one of their frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .schema import PosTag


class FrameSpecError(ValueError):
    """A malformed frame definition string."""


class SlotKind(Enum):
    EXACT = "exact"
    HOLE = "hole"
    PHRASE = "phrase"


@dataclass(frozen=True, slots=True)
class FrameSlot:
    kind: SlotKind
    tag: Optional[PosTag] = None
    optional: bool = False

    def spec(self) -> str:
        if self.kind is SlotKind.HOLE:
            return "_"
        if self.kind is SlotKind.PHRASE:
            return "*?" if self.optional else "*"
        return f"({self.tag.value})" if self.optional else self.tag.value


@dataclass(frozen=True, slots=True)
class FramePattern:
    frame_id: str
    slots: tuple[FrameSlot, ...]
    #: The fewest and the most tokens the slots before the hole can cover,
    #: then the same after it; "most" is inf when a phrase is on that side.
    window: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        holes = 0
        fewest, most = [0, 0], [0, 0]
        for slot in self.slots:
            if slot.kind is SlotKind.HOLE:
                holes += 1
            else:
                fewest[holes > 0] += not slot.optional
                most[holes > 0] += math.inf if slot.kind is SlotKind.PHRASE else 1
        if holes != 1:
            raise FrameSpecError(
                f"frame {self.frame_id or '<anonymous>'} needs exactly one hole, got {holes}"
            )
        object.__setattr__(self, "window", (fewest[0], most[0], fewest[1], most[1]))

    def spec(self) -> str:
        return " ".join(slot.spec() for slot in self.slots)


@dataclass(frozen=True, slots=True)
class FrameMatch:
    """Witness alignment: one half-open token range per slot, in order."""

    frame_id: str
    alignment: tuple[tuple[int, int], ...]


#: Every slot a spec item can name, shared by all frames.
_SLOTS: dict[str, FrameSlot] = {
    "_": FrameSlot(SlotKind.HOLE),
    "*": FrameSlot(SlotKind.PHRASE),
    "*?": FrameSlot(SlotKind.PHRASE, optional=True),
    **{tag.value: FrameSlot(SlotKind.EXACT, tag) for tag in PosTag},
    **{f"({tag.value})": FrameSlot(SlotKind.EXACT, tag, optional=True) for tag in PosTag},
}


def compile_frame(spec: str, frame_id: str = "") -> FramePattern:
    """Compile a mini-language string into a pattern."""
    slots = []
    for item in spec.split():
        try:
            slots.append(_SLOTS[item])
        except KeyError:
            text = item[1:-1] if item.startswith("(") and item.endswith(")") else item
            raise FrameSpecError(f"unknown tag {text!r} in frame spec {spec!r}") from None
    if not slots:
        raise FrameSpecError("empty frame spec")
    return FramePattern(frame_id, tuple(slots))


def frame_matches(
    pos_sequence: Sequence[PosTag], candidate: int, frame: FramePattern
) -> Optional[FrameMatch]:
    """Match a frame against the whole sequence with the hole at ``candidate``.

    Returns the leftmost-longest witness (each slot greedily takes the most
    it can, scanning left to right) or None. The caller strips space tokens
    beforehand; ``candidate`` indexes the stripped sequence.

    ``fits[k]`` holds the positions from which ``slots[k:]`` can cover the
    rest of the sequence, filled right to left; the witness is one walk
    that takes each slot's longest step staying inside the table. Both
    passes are O(slots x length), with no backtracking. A frame whose
    ``window`` cannot cover the tokens on either side of the candidate is
    rejected first, reading no tag.
    """
    n = len(pos_sequence)
    if not 0 <= candidate < n:
        raise ValueError("candidate index out of range")
    fewest, most, fewest_after, most_after = frame.window
    if not (fewest <= candidate <= most and fewest_after <= n - 1 - candidate <= most_after):
        return None
    fits: list = [{n}]
    for slot in reversed(frame.slots):
        after = fits[-1]
        if slot.kind is SlotKind.PHRASE:
            here = range(max(after) + slot.optional)
        elif slot.kind is SlotKind.HOLE:
            here = {candidate} if candidate + 1 in after else set()
        else:
            here = {p - 1 for p in after if p and pos_sequence[p - 1] is slot.tag}
            if slot.optional:
                here.update(after)
        if not here:
            return None
        fits.append(here)
    fits.reverse()
    if 0 not in fits[0]:
        return None
    alignment = []
    pos = 0
    for slot, after in zip(frame.slots, fits[1:]):
        if slot.kind is SlotKind.PHRASE:
            step = max(after)
        elif pos + 1 in after and (
            slot.kind is SlotKind.HOLE or pos_sequence[pos] is slot.tag
        ):
            step = pos + 1
        else:
            step = pos
        alignment.append((pos, step))
        pos = step
    return FrameMatch(frame.frame_id, tuple(alignment))


#: Built-in frame definitions. The optional slots reflect what the worked
#: usages actually require; override any of them with a frame file.
DEFAULT_FRAME_SPECS: dict[str, str] = {
    "NN.1": "_ VV (AV)",
    "NN.2": "NN VV _ (AV)",
    "NN.3": "NN VV PS _ (AV)",
    "NN.4": "_ CL AJ",
    "VV.1": "NN (AX) _ (AV)",
    "VV.2": "(AX) _ NN (AV)",
    "VV.3": "(AX) _ NN NN (AV)",
    "VV.4": "NN (AX) NN _ (NN) (AV)",
    "VV.5": "NN _ VV (NN) (AV)",
    "VV.6": "NN VV NN CC (AX) (NN) _ *?",
    "AJ.1": "NN (CL) _ VV",
    "AJ.2": "_ NN VV",
    "AJ.3": "NN _ NU CL VV",
    "AJ.4": "NN NU _ CL VV",
    "AV.1": "NN VV (NN) _",
    "AV.2": "_ NN VV NN",
    "AV.3": "_ NN VV NN",
    "AV.4": "NN VV NN _",
}

NOUN_FRAMES = frozenset({"NN.1", "NN.2", "NN.3", "NN.4"})
VERB_CORE_FRAMES = frozenset({"VV.1", "VV.2", "VV.3", "VV.4", "VV.5"})
VERB_GATE_FRAME = "VV.6"
ADJECTIVE_FRAMES = frozenset({"AJ.1", "AJ.2", "AJ.3", "AJ.4"})
ADVERB_FRAMES = frozenset({"AV.1", "AV.2", "AV.3", "AV.4"})


@dataclass(frozen=True, slots=True)
class FrameSet:
    frames: tuple[FramePattern, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        seen = set()
        for frame in self.frames:
            if frame.frame_id in seen:
                raise FrameSpecError(f"duplicate frame id {frame.frame_id!r}")
            seen.add(frame.frame_id)


def default_frameset() -> FrameSet:
    return FrameSet(
        tuple(compile_frame(spec, fid) for fid, spec in DEFAULT_FRAME_SPECS.items())
    )


def load_frameset(text: str) -> FrameSet:
    """Parse ``id: spec`` lines (``#`` comments, blank lines ignored). Each
    error names its line."""
    frames: dict[str, FramePattern] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        frame_id, sep, spec = line.partition(":")
        frame_id = frame_id.strip()
        try:
            if not sep or not frame_id:
                raise FrameSpecError("expected 'id: spec'")
            if frame_id in frames:
                raise FrameSpecError(f"duplicate frame id {frame_id!r}")
            frames[frame_id] = compile_frame(spec.strip(), frame_id)
        except FrameSpecError as exc:
            raise FrameSpecError(f"line {line_no}: {exc}") from None
    return FrameSet(tuple(frames.values()))


def dump_frameset(frameset: FrameSet) -> str:
    """``id: spec`` lines; an id that ``load_frameset`` would not read back
    (empty, padded, or holding ``#``, ``:`` or a line break) is refused."""
    for frame in frameset.frames:
        fid = frame.frame_id
        if not fid or fid != fid.strip() or any(c in fid for c in "#:\r\n"):
            raise FrameSpecError(f"frame id {fid!r} would not read back")
    return "".join(f"{f.frame_id}: {f.spec()}\n" for f in frameset.frames)


def classify_instance(
    pos_sequence: Sequence[PosTag], candidate: int, frameset: FrameSet
) -> set[str]:
    """Ids of every frame matching this usage."""
    return {
        frame.frame_id
        for frame in frameset.frames
        if frame_matches(pos_sequence, candidate, frame) is not None
    }


def classify_lexeme(matched: set[str]) -> set[str]:
    """Content-word classes licensed by the union of a lexeme's matched frame ids."""
    classes = set()
    if NOUN_FRAMES <= matched:
        classes.add("noun")
    if matched & VERB_CORE_FRAMES and VERB_GATE_FRAME in matched:
        classes.add("verb")
    if matched & ADJECTIVE_FRAMES:
        classes.add("adjective")
    if matched & ADVERB_FRAMES:
        classes.add("adverb")
    return classes
