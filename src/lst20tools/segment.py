"""Rule-based clause boundary detection and sentence aggregation.

Clause rules, applied per paragraph in priority order:

* R1 paragraph boundary: every paragraph edge closes a clause.
* R2 white space: a space token splits when both flanking stretches
  contain a verb and a clause marker sits immediately before or after
  the space.
* R3 clause marker: a CC-tagged subordinate connector or relative
  pronoun opens a new clause even without a space, when a verb lies
  between the last clause edge and the connector and another verb lies
  after it in the same R2 region. So every clause holds a verb unless its
  whole region is verbless. A connector inside a named entity opens none.

Sentence rules, applied to each adjacent clause pair, merge rules first:

* S6 item list: next clause opens with a list marker -> merge.
* S4 direct speech: reporting verb (optionally + connector) before an
  opening quote -> merge.
* S5 indirect speech: reporting verb + subordinate connector at the end
  of the first clause -> merge.
* S1 paragraph boundary: implicit, paragraphs never share a sentence.
* S2 topic shift: next clause opens with a cohesive marker -> split.
* S7 particle: sentence-final particle ends the sentence -> split.
* S3 subject shift: the ``subject_shift`` fallback strategy decides.

The default S3 strategy is a surface stand-in for the semantic judgment:
each clause's subject stretch is read off as the tokens before its first
verbal element (VV/AX/NG); a clause with an empty stretch continues the
previous subject (zero anaphora) and merges, identical stretches merge,
differing stretches split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import compress, count, filterfalse, repeat
from operator import attrgetter, is_
from typing import Optional, Sequence

from .format import (
    Sentence,
    Token,
    _new_token,
    _set_clause,
    _set_is_space,
    _set_ne,
    _set_pos,
    _set_surface,
)
from .schema import BoundaryPrefix, ClauseLabel, PosTag

_SUBORDINATE_CONNECTORS = ("ซึ่ง", "ที่", "ถ้า", "ว่า", "ผู้")
_COHESIVE_MARKERS = ("อย่างไรก็ตาม", "นอกจากนี้", "แต่ทว่า", "ในที่สุด")
_LIST_MARKERS = ("เช่น", "ได้แก่", "ตามลำดับ")
_PARTICLES = (
    "ครับ",
    "ค่ะ",
    "นะ",
    "เถิด",
    "สินะ",
    "ซิ",
    "มั้ง",
    "ใช่ไหม",
    "ยัง",
    "หรือเปล่า",
    "วะ",
    "เนี่ย",
)
_QUESTION_ADVERBS = ("อย่างไร", "ไหม", "ทำไม")
_REPORTING_VERBS = ("กล่าว", "บอก", "ยืนยัน")
_AUXILIARIES = (
    "กำลัง",
    "คง",
    "ควร",
    "ค่อย",
    "เคย",
    "จะ",
    "จง",
    "จวน",
    "ได้",
    "ต้อง",
    "น่า",
    "ถูก",
    "โดน",
    "เพิ่ง",
    "มัก",
    "ยัก",
    "ยัง",
    "ยอม",
    "แล้ว",
    "ไว้",
    "เสร็จ",
    "ให้",
    "ทำให้",
    "อยู่",
    "อยู่แล้ว",
)

_QUOTE_CHARS = {'"', "'", "“", "”", "‘", "’", "«", "»"}

SUBJECT_SHIFT_STRATEGIES = ("always", "never", "heuristic")


class ConfigError(ValueError):
    """A malformed lexicon configuration file."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True, slots=True)
class MarkerLexicon:
    """Surface-form lists that drive segmentation.

    Categories may overlap: the same surface can be, say, both a particle
    and an auxiliary; POS tags disambiguate at match time.
    """

    subordinate_connectors: frozenset[str]
    cohesive_markers: frozenset[str]
    list_markers: frozenset[str]
    particles: frozenset[str]
    question_adverbs: frozenset[str]
    reporting_verbs: frozenset[str]
    auxiliaries: frozenset[str]
    # The union of the five clause-marker categories (R2 adjacency test).
    clause_markers: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "clause_markers",
            self.subordinate_connectors
            | self.cohesive_markers
            | self.list_markers
            | self.particles
            | self.question_adverbs,
        )

    @classmethod
    def default(cls) -> "MarkerLexicon":
        return cls(
            subordinate_connectors=frozenset(_SUBORDINATE_CONNECTORS),
            cohesive_markers=frozenset(_COHESIVE_MARKERS),
            list_markers=frozenset(_LIST_MARKERS),
            particles=frozenset(_PARTICLES),
            question_adverbs=frozenset(_QUESTION_ADVERBS),
            reporting_verbs=frozenset(_REPORTING_VERBS),
            auxiliaries=frozenset(_AUXILIARIES),
        )


_LEXICON_SECTIONS = tuple(f.name for f in fields(MarkerLexicon) if f.init)
_DEFAULT_LEXICON = MarkerLexicon.default()


def load_marker_lexicon(config_text: str = "") -> MarkerLexicon:
    """Parse a lexicon config into the default lexicon extended by it.

    Format: ``[category]`` section headers over the seven category names,
    one surface form per line, ``#`` starts a comment. Entries are added
    to the built-in defaults (set union).
    """
    extra: dict[str, set[str]] = {name: set() for name in _LEXICON_SECTIONS}
    section: Optional[str] = None
    for line_no, raw in enumerate(config_text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _LEXICON_SECTIONS:
                raise ConfigError(line_no, f"unknown category {name!r}")
            section = name
            continue
        if section is None:
            raise ConfigError(line_no, "entry before any [category] header")
        extra[section].add(line)
    base = _DEFAULT_LEXICON
    return MarkerLexicon(
        **{
            name: getattr(base, name) | frozenset(extra[name])
            for name in _LEXICON_SECTIONS
        }
    )


def _is_gap(token: Token) -> bool:
    """A space outside every named entity. A space inside one is content:
    no clause edge trims it and R2 never splits at it, so no name loses a token."""
    return token.is_space and token.ne.prefix is BoundaryPrefix.O


def _trim(tokens: Sequence[Token], start: int, end: int) -> Optional[tuple[int, int]]:
    while start < end and _is_gap(tokens[start]):
        start += 1
    while end > start and _is_gap(tokens[end - 1]):
        end -= 1
    if start == end:
        return None
    return start, end


_POS = attrgetter("pos")
_IS_SPACE = attrgetter("is_space")
_VV = PosTag.VV


def _where(flags) -> list[int]:
    """Indices of the true items of ``flags``, in one C-level pass."""
    return list(compress(count(), flags))


def _split_spaces(tokens: Sequence[Token], markers: frozenset[str]) -> list[int]:
    """Indices of space tokens where R2 separates clauses.

    A space outside every name splits when a clause marker touches it, a
    verb lies between the last split and it, and a verb lies in the run of
    non-space tokens after it. That run's verb lies in the next region, so
    after the first split the left test always holds: it asks only whether
    the paragraph's first verb comes before the space. One Python step runs
    per space token, and the right test is a C-level ``in`` on a slice of the
    paragraph's POS list; the runs do not overlap, so each token is scanned
    at most once.
    """
    pos = list(map(_POS, tokens))
    first_verb = pos.index(_VV) if _VV in pos else len(pos)
    spaces = _where(map(_IS_SPACE, tokens))
    splits = []
    for i, j in zip(spaces, [*spaces[1:], len(tokens)]):  # j ends i's right run
        if i <= first_verb or not _is_gap(tokens[i]):
            continue
        before = tokens[i - 1]
        touches_marker = (not before.is_space and before.surface in markers) or (
            i + 1 < j and tokens[i + 1].surface in markers
        )
        if touches_marker and _VV in pos[i + 1 : j]:
            splits.append(i)
    return splits


def detect_clauses(
    tokens: Sequence[Token], lexicon: Optional[MarkerLexicon] = None
) -> list[tuple[int, int]]:
    """Clause spans of one paragraph as half-open ``(start, end)`` token ranges.

    R2 cuts the paragraph into regions, each trimmed of its edge white
    space. Inside a region, R3 cuts at a subordinate connector when a verb
    lies between the last cut and the connector and another verb lies
    after it, so a clause is verbless only when its whole region is. A
    connector inside a named entity (NE prefix I or E) never cuts.

    The connectors that may cut are found once per paragraph, and one index
    moves through them across all regions. A region's last verb is one
    ``list.index`` on its reversed POS slice, and the verb since the last
    cut is a C-level ``in`` behind a scan pointer, so the walk is linear in
    tokens plus connectors, with one Python step per connector.
    """
    if not tokens:
        raise ValueError("paragraph must contain at least one token")
    lexicon = lexicon or _DEFAULT_LEXICON
    connectors = lexicon.subordinate_connectors
    pos = list(map(_POS, tokens))
    candidates = [  # where R3 may cut
        i
        for i in _where(map(is_, pos, repeat(PosTag.CC)))
        if not tokens[i].is_space
        and tokens[i].surface in connectors
        and tokens[i].ne.prefix not in (BoundaryPrefix.I, BoundaryPrefix.E)
    ]
    k = 0  # candidates[k] is the first one not yet passed
    spans: list[tuple[int, int]] = []
    region_start = 0
    for region_end in [*_split_spaces(tokens, lexicon.clause_markers), len(tokens)]:
        region = _trim(tokens, region_start, region_end)
        region_start = region_end + 1
        if region is None:
            continue
        cut, end = region
        while k < len(candidates) and candidates[k] < cut:
            k += 1
        if k < len(candidates) and candidates[k] < end:
            # No cut at or after the region's last verb: no verb would follow.
            reverse = pos[cut:end][::-1]
            last_verb = end - 1 - reverse.index(_VV) if _VV in reverse else cut
            scanned, verb_since_cut = cut, False
            while k < len(candidates) and candidates[k] < last_verb:
                i = candidates[k]
                k += 1
                if not verb_since_cut:
                    verb_since_cut = _VV in pos[scanned:i]
                    scanned = i
                if verb_since_cut:
                    spans.append(_trim(tokens, cut, i))
                    cut = i
                    verb_since_cut = False
        spans.append((cut, end))
    return spans


def _subject_stretch(content: Sequence[Token]) -> tuple[str, ...]:
    stretch = []
    for token in content:
        if token.pos in (PosTag.VV, PosTag.AX, PosTag.NG):
            break
        stretch.append(token.surface)
    return tuple(stretch)


def _rule_s6(prev, nxt, lexicon) -> Optional[str]:
    if nxt and nxt[0].surface in lexicon.list_markers:
        return "merge"
    return None


def _ends_with_report(content, lexicon) -> bool:
    if content and content[-1].surface in lexicon.subordinate_connectors:
        content = content[:-1]
    return bool(content) and content[-1].surface in lexicon.reporting_verbs


def _rule_s4(prev, nxt, lexicon) -> Optional[str]:
    if (
        nxt
        and nxt[0].surface in _QUOTE_CHARS
        and _ends_with_report(prev, lexicon)
    ):
        return "merge"
    return None


def _rule_s5(prev, nxt, lexicon) -> Optional[str]:
    if (
        len(prev) >= 2
        and prev[-1].surface in lexicon.subordinate_connectors
        and prev[-2].surface in lexicon.reporting_verbs
    ):
        return "merge"
    return None


def _rule_s2(prev, nxt, lexicon) -> Optional[str]:
    if nxt and nxt[0].surface in lexicon.cohesive_markers:
        return "split"
    return None


def _rule_s7(prev, nxt, lexicon) -> Optional[str]:
    if (
        prev
        and prev[-1].pos is PosTag.PA
        and prev[-1].surface in lexicon.particles
    ):
        return "split"
    return None


# Merge rules first; S3 decides a pair that none of these decides. Each rule
# reads the two clauses' non-space tokens.
_SENTENCE_RULES = (_rule_s6, _rule_s4, _rule_s5, _rule_s2, _rule_s7)


def _decide_pair(prev, nxt, lexicon, subject_shift) -> str:
    for rule in _SENTENCE_RULES:
        verdict = rule(prev, nxt, lexicon)
        if verdict is not None:
            return verdict
    if subject_shift == "always":
        return "split"
    if subject_shift == "never":
        return "merge"
    left = _subject_stretch(prev)
    right = _subject_stretch(nxt)
    if not right:
        return "merge"  # zero anaphora: subject carried over
    return "merge" if left == right else "split"


def aggregate_sentences(
    clauses: Sequence[tuple[int, int]],
    tokens: Sequence[Token],
    lexicon: Optional[MarkerLexicon] = None,
    *,
    subject_shift: str = "heuristic",
) -> list[tuple[int, int]]:
    """Group one paragraph's clauses into sentences, returned as half-open
    ``(start, end)`` ranges of clause indices.

    Paragraph boundaries (S1) are enforced by construction: callers pass
    one paragraph's clauses at a time. ``subject_shift`` is the S3
    strategy, one of ``SUBJECT_SHIFT_STRATEGIES``.
    """
    if subject_shift not in SUBJECT_SHIFT_STRATEGIES:
        raise ValueError(f"subject_shift must be one of {SUBJECT_SHIFT_STRATEGIES}")
    lexicon = lexicon or _DEFAULT_LEXICON
    if len(clauses) < 2:  # no pair to decide
        return [(0, 1)] if clauses else []
    contents = [list(filterfalse(_IS_SPACE, tokens[lo:hi])) for lo, hi in clauses]
    spans = []
    start = 0
    for i in range(len(clauses) - 1):
        verdict = _decide_pair(contents[i], contents[i + 1], lexicon, subject_shift)
        if verdict == "split":
            spans.append((start, i + 1))
            start = i + 1
    spans.append((start, len(clauses)))
    return spans


def segment_paragraphs(
    paragraphs: Sequence[Sequence[Token]],
    lexicon: Optional[MarkerLexicon] = None,
    *,
    subject_shift: str = "heuristic",
) -> tuple[list[Sentence], list[int]]:
    """Full pipeline: clause detection, labeling, sentence aggregation.

    Returns the segmented sentences and the indices at which each input
    paragraph starts. White space between sentences is dropped; white
    space between clauses of one sentence is kept with clause label O.
    White space with an NE label is part of a name and always kept.
    """
    lexicon = lexicon or _DEFAULT_LEXICON
    sentences: list[Sentence] = []
    paragraph_starts: list[int] = []
    for tokens in paragraphs:
        paragraph_starts.append(len(sentences))
        clauses = detect_clauses(tokens, lexicon)
        labels = [ClauseLabel.O] * len(tokens)
        for lo, hi in clauses:
            labels[lo:hi] = [ClauseLabel.I_CLS] * (hi - lo)
            labels[hi - 1] = ClauseLabel.E_CLS
            labels[lo] = ClauseLabel.B_CLS  # a one-token clause is a lone B
        for first, last in aggregate_sentences(
            clauses, tokens, lexicon, subject_shift=subject_shift
        ):
            lo, hi = clauses[first][0], clauses[last - 1][1]
            relabelled = map(_relabelled, tokens[lo:hi], labels[lo:hi])
            sentences.append(Sentence(tuple(relabelled)))
    return sentences, paragraph_starts


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
