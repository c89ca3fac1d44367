"""Corpus-level counts and distributions.

"Words" exclude white-space tokens by default (they are separators, not
words); pass ``include_spaces=True`` to count them in. Named entities and
clauses are counted by their B-labels, which by BIEO legality is the
number of spans. Each count and histogram of a document is one C-level
pass over its tokens, so no Python code runs per token.

A clean columnar file needs no document: :func:`tally_counts` turns the
line tally of :func:`format.tally_columnar` into the same counts, with one
Python step per distinct tag triple. Any other input is read into a
:class:`Document` and counted by :func:`document_counts`, the reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable

from .format import Document
from .schema import ClauseLabel


@dataclass(frozen=True, slots=True)
class CorpusCounts:
    """The six corpus counts plus the POS histogram (every token's tag) and
    the NE histogram (entities per category); ``+`` sums them all."""

    documents: int = 0
    sentences: int = 0
    clauses: int = 0
    named_entities: int = 0
    words: int = 0
    tokens: int = 0
    pos: Counter = field(default_factory=Counter)
    ne: Counter = field(default_factory=Counter)

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
    """Counts and histograms of one document. Each is a C-level pass over its
    tokens: ``Counter``, ``list.count`` or ``sum`` over an ``attrgetter``."""
    tokens = list(chain.from_iterable(map(attrgetter("tokens"), doc.sentences)))
    pos = Counter(map(attrgetter("pos.text"), tokens))
    labels = Counter(map(attrgetter("ne.text"), tokens))
    ne = Counter({text[2:]: n for text, n in labels.items() if text.startswith("B_")})
    clauses = list(map(attrgetter("clause"), tokens)).count(ClauseLabel.B_CLS)
    words = len(tokens)
    if not include_spaces:
        words -= sum(map(attrgetter("is_space"), tokens))
    return CorpusCounts(
        1, len(doc.sentences), clauses, sum(ne.values()), words, len(tokens), pos, ne
    )


def tally_counts(tally, include_spaces: bool = False) -> CorpusCounts:
    """:func:`document_counts` of the document ``format.tally_columnar``
    tallied as ``(sentences, spaces, tokens per label triple)``."""
    sentences, spaces, labels = tally
    pos: Counter = Counter()
    ne: Counter = Counter()
    clauses = 0
    for (pos_tag, ne_label, clause), n in labels:
        pos[pos_tag.text] += n
        if ne_label.text.startswith("B_"):
            ne[ne_label.text[2:]] += n
        if clause is ClauseLabel.B_CLS:
            clauses += n
    tokens = sum(n for _, n in labels)
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
        genres[doc_id] = genre.strip()
    return genres
