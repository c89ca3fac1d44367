"""Rule-based clause boundary detection and sentence aggregation.

Clause rules, applied per paragraph in priority order:

* R1 paragraph boundary: every paragraph edge closes a clause.
* R2 white space: a space token splits when both flanking stretches
  contain a verb and a clause marker sits immediately before or after
  the space.
* R3 clause marker: a CC-tagged subordinate connector or relative
  pronoun opens a new clause even without a space.

Stretches left without a verb are merged into the following clause
(or the preceding one at the paragraph edge) so that every emitted
clause contains at least one verb unless the whole paragraph is verbless.

Sentence rules, applied to each adjacent clause pair, merge rules first:

* S6 item list: next clause opens with a list marker -> merge.
* S4 direct speech: reporting verb (optionally + connector) before an
  opening quote -> merge.
* S5 indirect speech: reporting verb + subordinate connector at the end
  of the first clause -> merge.
* S1 paragraph boundary: implicit, paragraphs never share a sentence.
* S2 topic shift: next clause opens with a cohesive marker -> split.
* S7 particle: sentence-final particle ends the sentence -> split.
* S3 subject shift: the configured fallback strategy decides.

The default S3 strategy is a surface stand-in for the semantic judgment:
each clause's subject stretch is read off as the tokens before its first
verbal element (VV/AX/NG); a clause with an empty stretch continues the
previous subject (zero anaphora) and merges, identical stretches merge,
differing stretches split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .format import Document, Sentence, Token, relabel_clauses, write_columnar, write_inline
from .schema import ClauseLabel, PosTag

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

    @property
    def clause_markers(self) -> frozenset[str]:
        """Union of the five clause-marker categories (R2 adjacency test)."""
        return (
            self.subordinate_connectors
            | self.cohesive_markers
            | self.list_markers
            | self.particles
            | self.question_adverbs
        )


_LEXICON_SECTIONS = (
    "subordinate_connectors",
    "cohesive_markers",
    "list_markers",
    "particles",
    "question_adverbs",
    "reporting_verbs",
    "auxiliaries",
)


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
    base = MarkerLexicon.default()
    return MarkerLexicon(
        **{
            name: getattr(base, name) | frozenset(extra[name])
            for name in _LEXICON_SECTIONS
        }
    )


@dataclass(frozen=True, slots=True)
class ClauseSpan:
    """Half-open token index range of one clause within its paragraph."""

    start: int
    end: int
    has_verb: bool = True

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("clause span must be non-empty")


@dataclass(frozen=True, slots=True)
class SentenceSpan:
    """Half-open range of clause indices forming one sentence."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("sentence span must be non-empty")


@dataclass(frozen=True, slots=True)
class SegmenterConfig:
    """Rule toggles and the subject-shift fallback strategy.

    The paragraph rules (R1/S1) are load-bearing and must stay enabled.
    ``sentence_rule_order`` may be rearranged for experimentation; S3 is
    always the fallback when no listed rule decides a pair.
    """

    r1_paragraph: bool = True
    r2_space: bool = True
    r3_marker: bool = True
    s1_paragraph: bool = True
    s2_topic_shift: bool = True
    s4_direct_speech: bool = True
    s5_indirect_speech: bool = True
    s6_item_list: bool = True
    s7_particle: bool = True
    subject_shift: str = "heuristic"
    sentence_rule_order: tuple[str, ...] = ("S6", "S4", "S5", "S2", "S7")

    def __post_init__(self) -> None:
        if not self.r1_paragraph or not self.s1_paragraph:
            raise ValueError("paragraph rules R1 and S1 cannot be disabled")
        if self.subject_shift not in SUBJECT_SHIFT_STRATEGIES:
            raise ValueError(
                f"subject_shift must be one of {SUBJECT_SHIFT_STRATEGIES}"
            )
        unknown = set(self.sentence_rule_order) - {"S2", "S4", "S5", "S6", "S7"}
        if unknown:
            raise ValueError(f"unknown sentence rules {sorted(unknown)}")


def _has_verb(tokens: Sequence[Token], start: int, end: int) -> bool:
    return any(t.pos is PosTag.VV for t in tokens[start:end])


def _trim(tokens: Sequence[Token], start: int, end: int) -> Optional[tuple[int, int]]:
    while start < end and tokens[start].is_space:
        start += 1
    while end > start and tokens[end - 1].is_space:
        end -= 1
    if start == end:
        return None
    return start, end


def _split_spaces(
    tokens: Sequence[Token], lexicon: MarkerLexicon, cfg: SegmenterConfig
) -> list[int]:
    """Indices of space tokens where R2 separates clauses."""
    if not cfg.r2_space:
        return []
    markers = lexicon.clause_markers
    splits = []
    region_start = 0
    last_verb = -1  # index of the latest verb before token i
    n = len(tokens)
    for i, token in enumerate(tokens):
        if i and tokens[i - 1].pos is PosTag.VV:
            last_verb = i - 1
        if not token.is_space:
            continue
        # Right flank: the run of non-space tokens after this space.
        j = i + 1
        while j < n and not tokens[j].is_space:
            j += 1
        left_ok = last_verb >= region_start
        right_ok = _has_verb(tokens, i + 1, j)
        marker_adjacent = (
            i > 0 and not tokens[i - 1].is_space and tokens[i - 1].surface in markers
        ) or (i + 1 < n and not tokens[i + 1].is_space and tokens[i + 1].surface in markers)
        if left_ok and right_ok and marker_adjacent:
            splits.append(i)
            region_start = i + 1
    return splits


def _marker_splits(
    tokens: Sequence[Token],
    start: int,
    end: int,
    lexicon: MarkerLexicon,
    cfg: SegmenterConfig,
) -> list[int]:
    """R3 split points inside one region: a new clause opens at each one."""
    if not cfg.r3_marker:
        return []
    points = []
    for i in range(start + 1, end):
        token = tokens[i]
        if (
            not token.is_space
            and token.pos is PosTag.CC
            and token.surface in lexicon.subordinate_connectors
        ):
            points.append(i)
    return points


def _merge_verbless(chunks: list[tuple[int, int, bool]]) -> list[tuple[int, int, bool]]:
    """Fold verbless chunks forward into the next one, backward at the edge."""
    merged: list[tuple[int, int, bool]] = []
    pending: Optional[tuple[int, int]] = None
    for start, end, has_verb in chunks:
        if pending is not None:
            start = pending[0]
            pending = None
        if has_verb:
            merged.append((start, end, True))
        else:
            pending = (start, end)
    if pending is not None:
        if merged:
            last = merged.pop()
            merged.append((last[0], pending[1], last[2]))
        else:
            merged.append((pending[0], pending[1], False))
    return merged


def _segment_paragraph(
    tokens: Sequence[Token], lexicon: MarkerLexicon, cfg: SegmenterConfig
) -> list[ClauseSpan]:
    if not tokens:
        raise ValueError("paragraph must contain at least one token")
    splits = _split_spaces(tokens, lexicon, cfg)
    regions = []
    start = 0
    for space_idx in splits:
        regions.append((start, space_idx))
        start = space_idx + 1
    regions.append((start, len(tokens)))

    spans: list[ClauseSpan] = []
    for reg_start, reg_end in regions:
        trimmed = _trim(tokens, reg_start, reg_end)
        if trimmed is None:
            continue
        reg_start, reg_end = trimmed
        points = _marker_splits(tokens, reg_start, reg_end, lexicon, cfg)
        bounds = [reg_start, *points, reg_end]
        chunks = []
        for lo, hi in zip(bounds, bounds[1:]):
            edge = _trim(tokens, lo, hi)
            if edge is None:
                continue
            chunks.append((lo, hi, _has_verb(tokens, lo, hi)))
        for lo, hi, has_verb in _merge_verbless(chunks):
            lo, hi = _trim(tokens, lo, hi)
            spans.append(ClauseSpan(lo, hi, has_verb))
    return spans


def detect_clauses(
    paragraphs: Iterable[Sequence[Token]],
    lexicon: Optional[MarkerLexicon] = None,
    cfg: Optional[SegmenterConfig] = None,
) -> list[list[ClauseSpan]]:
    """Clause spans per paragraph over POS-tagged token streams."""
    lexicon = lexicon or MarkerLexicon.default()
    cfg = cfg or SegmenterConfig()
    return [_segment_paragraph(tokens, lexicon, cfg) for tokens in paragraphs]


def clause_spans_from_tokens(tokens: Sequence[Token]) -> list[ClauseSpan]:
    """Recover clause spans from an already-labeled token sequence.

    Lets the sentence aggregator run over gold clause boundaries instead
    of detected ones. The clause column must be legal BIEO.
    """
    spans = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].clause is not ClauseLabel.B_CLS:
            i += 1
            continue
        j = i + 1
        while j < n and tokens[j].clause is ClauseLabel.I_CLS:
            j += 1
        end = j + 1 if j < n and tokens[j].clause is ClauseLabel.E_CLS else i + 1
        spans.append(ClauseSpan(i, end, _has_verb(tokens, i, end)))
        i = end
    return spans


def emit_clause_labels(
    spans: Sequence[ClauseSpan], tokens: Sequence[Token]
) -> list[ClauseLabel]:
    """BIEO clause labels for one paragraph; tokens outside all spans get O."""
    labels = [ClauseLabel.O] * len(tokens)
    for span in spans:
        if span.end - span.start == 1:
            labels[span.start] = ClauseLabel.B_CLS
            continue
        labels[span.start] = ClauseLabel.B_CLS
        labels[span.end - 1] = ClauseLabel.E_CLS
        for i in range(span.start + 1, span.end - 1):
            labels[i] = ClauseLabel.I_CLS
    return labels


def _first_content(tokens: Sequence[Token], span: ClauseSpan) -> Optional[Token]:
    for token in tokens[span.start : span.end]:
        if not token.is_space:
            return token
    return None


def _content(tokens: Sequence[Token], span: ClauseSpan) -> list[Token]:
    return [t for t in tokens[span.start : span.end] if not t.is_space]


def _subject_stretch(tokens: Sequence[Token], span: ClauseSpan) -> tuple[str, ...]:
    stretch = []
    for token in _content(tokens, span):
        if token.pos in (PosTag.VV, PosTag.AX, PosTag.NG):
            break
        stretch.append(token.surface)
    return tuple(stretch)


def _rule_s6(prev, nxt, tokens, lexicon) -> Optional[str]:
    head = _first_content(tokens, nxt)
    if head is not None and head.surface in lexicon.list_markers:
        return "merge"
    return None


def _ends_with_report(tokens, span, lexicon) -> bool:
    content = _content(tokens, span)
    if content and content[-1].surface in lexicon.subordinate_connectors:
        content = content[:-1]
    return bool(content) and content[-1].surface in lexicon.reporting_verbs


def _rule_s4(prev, nxt, tokens, lexicon) -> Optional[str]:
    head = _first_content(tokens, nxt)
    if (
        head is not None
        and head.surface in _QUOTE_CHARS
        and _ends_with_report(tokens, prev, lexicon)
    ):
        return "merge"
    return None


def _rule_s5(prev, nxt, tokens, lexicon) -> Optional[str]:
    content = _content(tokens, prev)
    if (
        len(content) >= 2
        and content[-1].surface in lexicon.subordinate_connectors
        and content[-2].surface in lexicon.reporting_verbs
    ):
        return "merge"
    return None


def _rule_s2(prev, nxt, tokens, lexicon) -> Optional[str]:
    head = _first_content(tokens, nxt)
    if head is not None and head.surface in lexicon.cohesive_markers:
        return "split"
    return None


def _rule_s7(prev, nxt, tokens, lexicon) -> Optional[str]:
    content = _content(tokens, prev)
    if (
        content
        and content[-1].pos is PosTag.PA
        and content[-1].surface in lexicon.particles
    ):
        return "split"
    return None


_SENTENCE_RULES = {
    "S2": _rule_s2,
    "S4": _rule_s4,
    "S5": _rule_s5,
    "S6": _rule_s6,
    "S7": _rule_s7,
}

_RULE_TOGGLE = {
    "S2": "s2_topic_shift",
    "S4": "s4_direct_speech",
    "S5": "s5_indirect_speech",
    "S6": "s6_item_list",
    "S7": "s7_particle",
}


def _decide_pair(prev, nxt, tokens, lexicon, cfg) -> str:
    for rule_id in cfg.sentence_rule_order:
        if not getattr(cfg, _RULE_TOGGLE[rule_id]):
            continue
        verdict = _SENTENCE_RULES[rule_id](prev, nxt, tokens, lexicon)
        if verdict is not None:
            return verdict
    if cfg.subject_shift == "always":
        return "split"
    if cfg.subject_shift == "never":
        return "merge"
    left = _subject_stretch(tokens, prev)
    right = _subject_stretch(tokens, nxt)
    if not right:
        return "merge"  # zero anaphora: subject carried over
    return "merge" if left == right else "split"


def aggregate_sentences(
    clauses: Sequence[ClauseSpan],
    tokens: Sequence[Token],
    lexicon: Optional[MarkerLexicon] = None,
    cfg: Optional[SegmenterConfig] = None,
) -> list[SentenceSpan]:
    """Group one paragraph's clauses into sentences.

    Paragraph boundaries (S1) are enforced by construction: callers pass
    one paragraph's clauses at a time.
    """
    lexicon = lexicon or MarkerLexicon.default()
    cfg = cfg or SegmenterConfig()
    if not clauses:
        return []
    spans = []
    start = 0
    for i in range(len(clauses) - 1):
        if _decide_pair(clauses[i], clauses[i + 1], tokens, lexicon, cfg) == "split":
            spans.append(SentenceSpan(start, i + 1))
            start = i + 1
    spans.append(SentenceSpan(start, len(clauses)))
    return spans


def segment_paragraphs(
    paragraphs: Sequence[Sequence[Token]],
    lexicon: Optional[MarkerLexicon] = None,
    cfg: Optional[SegmenterConfig] = None,
) -> tuple[list[Sentence], list[int]]:
    """Full pipeline: clause detection, labeling, sentence aggregation.

    Returns the segmented sentences and the indices at which each input
    paragraph starts. White space between sentences is dropped; white
    space between clauses of one sentence is kept with clause label O.
    """
    lexicon = lexicon or MarkerLexicon.default()
    cfg = cfg or SegmenterConfig()
    sentences: list[Sentence] = []
    paragraph_starts: list[int] = []
    for tokens in paragraphs:
        paragraph_starts.append(len(sentences))
        clause_spans = _segment_paragraph(tokens, lexicon, cfg)
        if not clause_spans:
            continue
        labels = emit_clause_labels(clause_spans, tokens)
        relabeled = relabel_clauses(tokens, labels)
        for span in aggregate_sentences(clause_spans, tokens, lexicon, cfg):
            lo = clause_spans[span.start].start
            hi = clause_spans[span.end - 1].end
            sentences.append(Sentence(relabeled[lo:hi]))
    return sentences, paragraph_starts


def emit_sentence_markers(sentences: Sequence[Sentence], output_format: str) -> str:
    """Render sentence boundaries: ``||`` inline, empty lines columnar."""
    if output_format == "inline":
        return write_inline(sentences, layers=4)
    if output_format == "columnar":
        if not sentences:
            return ""
        return write_columnar(Document("segmented", tuple(sentences)))
    raise ValueError(f"unknown format {output_format!r}")
