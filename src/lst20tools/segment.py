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
* S3 subject shift: decides every pair no other rule decides. It reads
  the semantic judgment off the surface: each clause's subject stretch is
  the tokens before its first verbal element (VV/AX/NG). A clause with an
  empty stretch continues the previous subject (zero anaphora) and merges,
  identical stretches merge, differing stretches split.

Every rule reads a paragraph's columns, its surfaces, POS tags, NE labels
and space flags, and no Token. :func:`segment_records` takes them from
records, a paragraph each, and gives a record per sentence; the ``segment``
command writes these, except from columnar to columnar, where it writes the
labels into the input's lines (``format._relabel_blocks``). Library API that
no command calls, ``segment_paragraphs`` reads them off each paragraph's
tokens once. All run the same rules.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count, repeat
from operator import is_, not_
from typing import Iterator, Optional, Sequence

from .format import Sentence, Token, _relabel_records, _relabelled, _token_columns
from .schema import NE_OUTSIDE, BoundaryPrefix, ClauseLabel, PosTag, _Frozen

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

_QUOTE_CHARS = {'"', "'", "“", "”", "‘", "’", "«", "»"}


class ConfigError(ValueError):
    """A malformed lexicon configuration file."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MarkerLexicon(_Frozen):
    """Surface-form lists that drive segmentation.

    Categories may overlap: the same surface can be, say, both a particle
    and a question adverb; POS tags disambiguate at match time.
    ``clause_markers`` is the union of the five clause-marker categories
    (R2 adjacency test).
    """

    _fields = ("subordinate_connectors", "cohesive_markers", "list_markers", "particles",
               "question_adverbs", "reporting_verbs")
    __slots__ = (*_fields, "clause_markers")

    def __init__(self, subordinate_connectors: frozenset[str], cohesive_markers: frozenset[str],
                 list_markers: frozenset[str], particles: frozenset[str],
                 question_adverbs: frozenset[str], reporting_verbs: frozenset[str]) -> None:
        self._set_slots((subordinate_connectors, cohesive_markers, list_markers, particles,
                         question_adverbs, reporting_verbs))
        markers = (self.subordinate_connectors | self.cohesive_markers | self.list_markers
                   | self.particles | self.question_adverbs)
        object.__setattr__(self, "clause_markers", markers)

    @classmethod
    def default(cls) -> "MarkerLexicon":
        return cls(
            subordinate_connectors=frozenset(_SUBORDINATE_CONNECTORS),
            cohesive_markers=frozenset(_COHESIVE_MARKERS),
            list_markers=frozenset(_LIST_MARKERS),
            particles=frozenset(_PARTICLES),
            question_adverbs=frozenset(_QUESTION_ADVERBS),
            reporting_verbs=frozenset(_REPORTING_VERBS),
        )


_LEXICON_SECTIONS = MarkerLexicon._fields
_DEFAULT_LEXICON = MarkerLexicon.default()


def load_marker_lexicon(config_text: str = "") -> MarkerLexicon:
    """Parse a lexicon config into the default lexicon extended by it.

    Format: ``[category]`` section headers over the six category names,
    one surface form per line, ``#`` starts a comment. Entries are added
    to the built-in defaults (set union). An ``[auxiliaries]`` section, a
    retired category no rule read, is accepted and its entries are skipped.
    """
    extra: dict[str, set[str]] = {name: set() for name in (*_LEXICON_SECTIONS, "auxiliaries")}
    section: Optional[str] = None
    for line_no, raw in enumerate(config_text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in extra:
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


def _trim(spaces, ne, start: int, end: int) -> Optional[tuple[int, int]]:
    """``(start, end)`` less the gaps at its edges, or None if nothing is left.
    A gap is a space outside every named entity. A space inside one is content:
    no clause edge trims it and R2 never splits at it, so no name loses a token."""
    while start < end and spaces[start] and ne[start] is NE_OUTSIDE:
        start += 1
    while end > start and spaces[end - 1] and ne[end - 1] is NE_OUTSIDE:
        end -= 1
    if start == end:
        return None
    return start, end


_VV = PosTag.VV
_VERBAL = (PosTag.VV, PosTag.AX, PosTag.NG)
# The columns the rules below take: a paragraph's surfaces, POS tags, NE
# labels and space flags.
_RULE_COLUMNS = ("surface", "pos", "ne", "is_space")


def _where(flags) -> list[int]:
    """Indices of the true items of ``flags``, in one C-level pass."""
    return list(compress(count(), flags))


def _split_spaces(surfaces, pos, ne, spaces, markers: frozenset[str]) -> list[int]:
    """Indices of space tokens where R2 separates clauses.

    A space outside every name splits when a clause marker touches it, a
    verb lies between the last split and it, and a verb lies in the run of
    non-space tokens after it. That run's verb lies in the next region, so
    after the first split the left test always holds: it asks only whether
    the paragraph's first verb comes before the space. One Python step runs
    per space token, and the right test is a C-level ``in`` on a slice of the
    paragraph's POS tags; the runs do not overlap, so each token is scanned
    at most once.
    """
    first_verb = pos.index(_VV) if _VV in pos else len(pos)
    where = _where(spaces)
    splits = []
    for i, j in zip(where, [*where[1:], len(pos)]):  # j ends i's right run
        if i <= first_verb or ne[i] is not NE_OUTSIDE:
            continue
        touches_marker = (not spaces[i - 1] and surfaces[i - 1] in markers) or (
            i + 1 < j and surfaces[i + 1] in markers
        )
        if touches_marker and _VV in pos[i + 1 : j]:
            splits.append(i)
    return splits


def _clause_spans(surfaces, pos, ne, spaces, lexicon: MarkerLexicon) -> list[tuple[int, int]]:
    """R1-R3 on one paragraph's columns: its clause spans as half-open ``(start, end)``
    token ranges. The connectors that may cut are found once, and one index moves
    through them across all regions. A region's last verb is one ``index`` on its
    reversed POS slice, and the verb since the last cut a C-level ``in`` behind a scan
    pointer, so the walk is linear in tokens plus connectors, a Python step per connector."""
    connectors = lexicon.subordinate_connectors
    candidates = [  # where R3 may cut
        i
        for i in _where(map(is_, pos, repeat(PosTag.CC)))
        if not spaces[i]
        and surfaces[i] in connectors
        and ne[i].prefix not in (BoundaryPrefix.I, BoundaryPrefix.E)
    ]
    k = 0  # candidates[k] is the first one not yet passed
    spans: list[tuple[int, int]] = []
    region_start = 0
    for region_end in [*_split_spaces(surfaces, pos, ne, spaces, lexicon.clause_markers), len(pos)]:
        region = _trim(spaces, ne, region_start, region_end)
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
                    spans.append(_trim(spaces, ne, cut, i))
                    cut = i
                    verb_since_cut = False
        spans.append((cut, end))
    return spans


def _subject_stretch(words: Sequence[str], tags: Sequence[PosTag]) -> tuple[str, ...]:
    """The words of a clause's non-space tokens before its first verbal element."""
    end = next((i for i, tag in enumerate(tags) if tag in _VERBAL), len(tags))
    return tuple(words[:end])


def _sentence_ends(prev, nxt, lexicon) -> bool:
    """Whether a sentence ends between two adjacent clauses of one paragraph,
    given the words and POS tags of their non-space tokens. A merge rule
    outranks a split rule, and S3 decides the rest."""
    (prev_words, prev_tags), (next_words, next_tags) = prev, nxt
    opener = next_words[0] if next_words else None
    last = prev_words[-1] if prev_words else None
    if opener in lexicon.list_markers:
        return False  # S6 item list
    # S4 and S5 read the reporting verb, which a final connector may follow:
    # ``connector`` (False or True) counts the tokens after the verb.
    connector = last in lexicon.subordinate_connectors
    said = len(prev_words) > connector and prev_words[-1 - connector] in lexicon.reporting_verbs
    if said and opener in _QUOTE_CHARS:
        return False  # S4 direct speech
    if said and connector:
        return False  # S5 indirect speech
    if opener in lexicon.cohesive_markers:
        return True  # S2 topic shift
    if last in lexicon.particles and prev_tags[-1] is PosTag.PA:
        return True  # S7 particle
    right = _subject_stretch(next_words, next_tags)
    # S3 subject shift: an empty stretch carries the subject over (zero anaphora).
    return bool(right) and right != _subject_stretch(prev_words, prev_tags)


def _sentence_spans(
    clauses: Sequence[tuple[int, int]], surfaces, pos, spaces, lexicon: MarkerLexicon
) -> list[tuple[int, int]]:
    """S2-S7 on one paragraph's columns: see :func:`aggregate_sentences`."""
    if len(clauses) < 2:  # no pair to decide
        return [(0, 1)] if clauses else []
    kept = list(map(not_, spaces))
    contents = [
        (list(compress(surfaces[lo:hi], kept[lo:hi])), list(compress(pos[lo:hi], kept[lo:hi])))
        for lo, hi in clauses
    ]
    ends = [
        i
        for i in range(1, len(clauses))
        if _sentence_ends(contents[i - 1], contents[i], lexicon)
    ]
    return list(zip([0, *ends], [*ends, len(clauses)]))


def aggregate_sentences(
    clauses: Sequence[tuple[int, int]],
    tokens: Sequence[Token],
    lexicon: Optional[MarkerLexicon] = None,
) -> list[tuple[int, int]]:
    """Group one paragraph's clauses into sentences, returned as half-open
    ``(start, end)`` ranges of clause indices.

    Paragraph boundaries (S1) are enforced by construction: callers pass
    one paragraph's clauses at a time.
    """
    surfaces, pos, spaces = _token_columns(tokens, "surface", "pos", "is_space")
    return _sentence_spans(clauses, surfaces, pos, spaces, lexicon or _DEFAULT_LEXICON)


def _clause_labels(n: int, clauses: Sequence[tuple[int, int]]) -> list[ClauseLabel]:
    """The clause label of each of a paragraph's ``n`` tokens: B, I and E
    over each clause, O between clauses."""
    labels = [ClauseLabel.O] * n
    for lo, hi in clauses:
        labels[lo:hi] = [ClauseLabel.I_CLS] * (hi - lo)
        labels[hi - 1] = ClauseLabel.E_CLS
        labels[lo] = ClauseLabel.B_CLS  # a one-token clause is a lone B
    return labels


def _segment_columns(
    surfaces, pos, ne, spaces, lexicon: Optional[MarkerLexicon] = None
) -> tuple[list[ClauseLabel], list[tuple[int, int]]]:
    """One paragraph segmented from its columns, with no Token: each token's
    new clause label and the half-open token range of each sentence, for
    :func:`segment_paragraphs`, :func:`segment_records` and the ``segment``
    command alike. No rule reads the surface of a white-space token."""
    lexicon = lexicon or _DEFAULT_LEXICON
    clauses = _clause_spans(surfaces, pos, ne, spaces, lexicon)
    groups = _sentence_spans(clauses, surfaces, pos, spaces, lexicon)
    sentences = [(clauses[first][0], clauses[last - 1][1]) for first, last in groups]
    return _clause_labels(len(pos), clauses), sentences


def segment_records(records, lexicon: Optional[MarkerLexicon] = None) -> Iterator[tuple]:
    """Each of ``records``, as ``format.columnar_records`` and the like give them,
    segmented as a paragraph: a record per sentence, numbered as its paragraph, with
    new clause labels. White space is kept and dropped as by :func:`segment_paragraphs`."""
    return _relabel_records(records, partial(_segment_columns, lexicon=lexicon))


def segment_paragraphs(
    paragraphs: Sequence[Sequence[Token]],
    lexicon: Optional[MarkerLexicon] = None,
) -> tuple[list[Sentence], list[int]]:
    """Full pipeline: clause detection, labeling, sentence aggregation.

    Returns the segmented sentences and the indices at which each input
    paragraph starts. White space between sentences is dropped; white
    space between clauses of one sentence is kept with clause label O.
    White space with an NE label is part of a name and always kept.
    """
    sentences: list[Sentence] = []
    paragraph_starts: list[int] = []
    for tokens in paragraphs:
        if not tokens:
            raise ValueError("paragraph must contain at least one token")
        paragraph_starts.append(len(sentences))
        labels, spans = _segment_columns(*_token_columns(tokens, *_RULE_COLUMNS), lexicon)
        for lo, hi in spans:
            sentences.append(Sentence(tuple(map(_relabelled, tokens[lo:hi], labels[lo:hi]))))
    return sentences, paragraph_starts
