"""Corpus-level counts and distributions.

"Words" exclude white-space tokens by default (they are separators, not
words); pass ``include_spaces=True`` to count them in. Named entities and
clauses are counted by their B-labels, which by BIEO legality is the
number of spans.

Only :func:`tally_counts` turns a tally, ``(sentences, white-space tokens,
count of each _TAG_COLUMNS entry)``, into counts. A clean columnar file is
tallied a block at a time by ``format.tally_columnar``, any other file from
its ``format.columnar_records`` or ``inline_records`` (:func:`records_counts`),
and a document from the same records read off its tokens (:func:`document_counts`).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from .format import Document, sentence_records
from .schema import BoundaryPrefix, ClauseLabel, _Frozen


class CorpusCounts(_Frozen):
    """The six corpus counts plus the POS histogram (every token's tag) and
    the NE histogram (entities per category); ``+`` sums them all. A histogram
    not given is a new, empty Counter."""

    _fields = __slots__ = (
        "documents", "sentences", "clauses", "named_entities", "words", "tokens", "pos", "ne"
    )

    def __init__(self, documents: int = 0, sentences: int = 0, clauses: int = 0,
                 named_entities: int = 0, words: int = 0, tokens: int = 0,
                 pos: Optional[Counter] = None, ne: Optional[Counter] = None) -> None:
        self._set_slots((documents, sentences, clauses, named_entities, words, tokens,
                         Counter() if pos is None else pos, Counter() if ne is None else ne))

    def __add__(self, other: "CorpusCounts") -> "CorpusCounts":
        return CorpusCounts(
            self.documents + other.documents,
            self.sentences + other.sentences,
            self.clauses + other.clauses,
            self.named_entities + other.named_entities,
            self.words + other.words,
            self.tokens + other.tokens,
            self.pos + other.pos,
            self.ne + other.ne,
        )

    def to_dict(self) -> dict[str, int]:
        """The six counts; the histograms are reported on their own."""
        return {
            "documents": self.documents,
            "sentences": self.sentences,
            "clauses": self.clauses,
            "named_entities": self.named_entities,
            "words": self.words,
            "tokens": self.tokens,
        }


def document_counts(doc: Document, include_spaces: bool = False) -> CorpusCounts:
    """Counts and histograms of one document, from its ``format.sentence_records``."""
    return records_counts(sentence_records(doc.sentences), include_spaces)


def records_counts(records, include_spaces: bool = False) -> CorpusCounts:
    """Counts and histograms of one document's sentence records, as
    ``format.columnar_records`` and the like give them: a record's
    ``_TAG_COLUMNS`` entries are counted in one C-level pass."""
    sentences = spaces = 0
    entries: Counter = Counter()
    for _, _, labels, flags in records:
        sentences += 1
        spaces += flags.count(True)
        entries.update(labels)
    return tally_counts((sentences, spaces, entries), include_spaces)


def tally_counts(tally, include_spaces: bool = False) -> CorpusCounts:
    """The counts of a document tallied as ``(sentences, white-space tokens,
    count of each _TAG_COLUMNS entry)``, one Python step per distinct entry:
    entities per category from the B labels, tokens as the POS histogram's total."""
    sentences, spaces, entries = tally
    pos, ne, clauses = Counter(), Counter(), 0
    for (tag, label, clause, _), n in entries.items():
        pos[tag.text] += n
        if label.prefix is BoundaryPrefix.B:
            ne[label.category.text] += n
        if clause is ClauseLabel.B_CLS:
            clauses += n
    tokens = sum(pos.values())
    words = tokens if include_spaces else tokens - spaces
    return CorpusCounts(1, sentences, clauses, sum(ne.values()), words, tokens, pos, ne)


def tag_frequency(documents: Iterable[Document], layer: str) -> Counter:
    """Tag histogram for ``layer`` over ``documents``: ``pos`` counts every
    token's POS tag, ``ne`` counts entities (B-labels) per category."""
    if layer not in ("pos", "ne"):
        raise ValueError("layer must be 'pos' or 'ne'")
    return getattr(sum(map(document_counts, documents), CorpusCounts()), layer)


def load_manifest(text: str) -> dict[str, str]:
    """Parse a genre manifest: ``<document-id>\\t<genre>`` per line."""
    genres: dict[str, str] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        doc_id, sep, genre = line.partition("\t")
        if not sep or not doc_id or not genre.strip():
            raise ValueError(f"line {line_no}: expected '<document-id>\\t<genre>'")
        if doc_id in genres:
            raise ValueError(f"line {line_no}: duplicate document id {doc_id!r}")
        genres[doc_id] = genre.strip()
    return genres
