"""Shared sample data: gold fixtures, segmentation paragraphs, frame usages,
and a generator for random valid documents."""

from __future__ import annotations

import random
from pathlib import Path

from lst20tools import (
    NE_OUTSIDE,
    SPACE_GLYPH,
    ClauseLabel,
    Document,
    PosTag,
    Sentence,
    Token,
    classify_instance,
    parse_clause_label,
    parse_ne_label,
    read_columnar,
    write_columnar,
)
from lst20tools.format import _token_columns
from lst20tools.segment import _DEFAULT_LEXICON, _RULE_COLUMNS, _clause_spans

FIXTURE_DIR = Path(__file__).parent / "fixtures"

#: Gold files that must lint with zero errors.
GOLD_FIXTURES = (
    "company_notice.txt",
    "ministries.txt",
    "hotel_provinces.txt",
    "fried_chicken.txt",
    "school_term.txt",
    "phone_price.txt",
    "student_count.txt",
    "virus_spread.txt",
    "disease_report.txt",
    "phone_call.txt",
    "pm_statement.txt",
    "glimpse.txt",
)


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text(encoding="utf-8")


def load_fixture(name: str) -> Document:
    return read_columnar(fixture_text(name), name.rsplit(".", 1)[0])


def tok(surface: str, pos: str, ne: str = "O", clause: str = "O") -> Token:
    return Token(
        surface, PosTag(pos), parse_ne_label(ne), parse_clause_label(clause)
    )


def space_token(pos=PosTag.PU, ne=NE_OUTSIDE, clause=ClauseLabel.O) -> Token:
    return Token(SPACE_GLYPH, pos, ne, clause, is_space=True)


def toks(rows) -> list[Token]:
    """(surface, pos) pairs into tokens; surface=None makes a space token."""
    return [
        space_token() if surface is None else Token(surface, PosTag(pos))
        for surface, pos in rows
    ]


# ---------------------------------------------------------------------------
# Segmentation inputs: unsegmented paragraphs plus expected outcomes.

def clause_spans_of(tokens, lexicon=_DEFAULT_LEXICON) -> list[tuple[int, int]]:
    """The clause spans R1-R3 find in a paragraph of tokens, from its columns."""
    return _clause_spans(*_token_columns(tokens, *_RULE_COLUMNS), lexicon)


def disease_report_paragraph():
    """31 tokens; the segmenter must find clause spans (0,6) (7,13) (14,25) (25,31)."""
    doc = load_fixture("disease_report.txt")
    tokens = [
        space_token() if t.is_space else Token(t.surface, t.pos)
        for t in doc.sentences[0].tokens
    ]
    gold_labels = [t.clause for t in doc.sentences[0].tokens]
    return tokens, gold_labels


def phone_call_paragraph():
    """Four clauses; gold sentence grouping is {0}, {1}, {2, 3}."""
    tokens = toks(
        [
            ("เขา", "PR"), ("ก็", "CC"), ("ไม่", "NG"), ("ได้", "AX"),
            ("โทร", "VV"), ("มา", "AV"), ("คุย", "VV"),
            (None, "PU"),
            ("ต่าง", "AJ"), ("คน", "CL"), ("ก็", "CC"), ("ต่าง", "AJ"),
            ("อยู่", "VV"), ("กัน", "AV"), ("ไป", "AV"),
            (None, "PU"),
            ("ดิฉัน", "PR"), ("คิด", "VV"), ("แล้ว", "AV"), ("ว่า", "CC"),
            (None, "PU"),
            ("ควร", "AX"), ("วางตัว", "VV"), ("อย่างไร", "AV"), ("และ", "CC"),
            ("ควร", "AX"), ("ทำ", "VV"), ("อะไร", "PR"), ("ต่อไป", "AV"),
        ]
    )
    clauses = [(0, 7), (8, 15), (16, 20), (21, 29)]
    gold_partition = [(0, 1), (1, 2), (2, 4)]
    return tokens, clauses, gold_partition


def factory_list_paragraph():
    """Main clause plus an item list: merged into one sentence."""
    tokens = toks(
        [
            ("โรงงาน", "NN"), ("ของ", "PS"), ("เขา", "PR"), ("ผลิต", "VV"),
            ("เครื่อง", "NN"), ("ดื่ม", "VV"), ("หลาย", "AJ"), ("อย่าง", "CL"),
            (None, "PU"),
            ("เช่น", "CC"), (None, "PU"), ("เบียร์", "NN"), (None, "PU"),
            ("น้ำ", "NN"), ("ดื่ม", "VV"), (None, "PU"), ("ชาเขียว", "NN"),
            (None, "PU"), ("ฯลฯ", "PU"),
        ]
    )
    clauses = [(0, 8), (9, 19)]
    gold_partition = [(0, 2)]
    return tokens, clauses, gold_partition


def meeting_particle_paragraph():
    """Sentence-final particle: the two clauses are separate sentences."""
    tokens = toks(
        [
            ("พรุ่งนี้", "NN"), ("เจอ", "VV"), ("กัน", "PR"), ("สิบ", "NU"),
            ("โมง", "CL"), ("นะ", "PA"),
            (None, "PU"),
            ("จะ", "AX"), ("ได้", "AX"), ("มี", "VV"), ("เวลา", "NN"),
            ("เตรียม", "VV"), ("เอกสาร", "NN"),
        ]
    )
    clauses = [(0, 6), (7, 13)]
    gold_partition = [(0, 1), (1, 2)]
    return tokens, clauses, gold_partition


def pm_statement_paragraph():
    """Reporting verb before a quote: one large sentence."""
    doc = load_fixture("pm_statement.txt")
    tokens = [
        space_token() if t.is_space else Token(t.surface, t.pos)
        for t in doc.sentences[0].tokens
    ]
    clauses = [(0, 4), (5, 14)]
    gold_partition = [(0, 2)]
    return tokens, clauses, gold_partition


def briefing_paragraph():
    """Reporting verb + connector, then a zero-anaphora clause: one sentence."""
    tokens = toks(
        [
            ("น.พ.", "NN"), ("จรัล", "NN"), ("กล่าว", "VV"), ("ว่า", "CC"),
            (None, "PU"),
            ("เชื้อ", "NN"), ("เอช5เอ็น1", "NN"), ("เป็น", "VV"), ("โรค", "NN"),
            ("ใน", "PS"), ("สัตว์", "NN"), ("ปีก", "NN"),
            (None, "PU"),
            ("เพิ่ง", "AX"), ("ระบาด", "VV"), ("สู่", "PS"), ("คน", "NN"),
            ("เมื่อ", "PS"), ("ต้น", "NN"), ("ปี", "NN"),
        ]
    )
    clauses = [(0, 4), (5, 12), (13, 20)]
    gold_partition = [(0, 3)]
    return tokens, clauses, gold_partition


# ---------------------------------------------------------------------------
# Frame usages: (pos tags, candidate index, frame id the usage licenses).

def _p(*tags):
    return tuple(PosTag(t) for t in tags)


FRAME_WITNESSES = (
    (_p("NN", "VV", "AV"), 0, "NN.1"),
    (_p("NN", "VV", "NN", "AV"), 2, "NN.2"),
    (_p("NN", "VV", "PS", "NN", "AV"), 3, "NN.3"),
    (_p("NN", "CL", "AJ"), 0, "NN.4"),
    (_p("NN", "AX", "VV", "AV"), 2, "VV.1"),
    (_p("NN", "VV", "NN", "CC", "AX", "VV"), 5, "VV.6"),
    (_p("AX", "VV", "NN", "AV"), 1, "VV.2"),
    (_p("NN", "VV", "NN", "CC", "AX", "VV", "NN"), 5, "VV.6"),
    (_p("AX", "VV", "NN", "NN", "AV"), 1, "VV.3"),
    (_p("NN", "VV", "NN", "CC", "AX", "VV", "NN", "NN"), 5, "VV.6"),
    (_p("NN", "AX", "NN", "VV", "NN", "AV"), 3, "VV.4"),
    (_p("NN", "VV", "NN", "CC", "AX", "NN", "VV", "NN"), 6, "VV.6"),
    (_p("NN", "VV", "VV", "NN", "AV"), 1, "VV.5"),
    (_p("NN", "VV", "NN", "CC", "VV", "VV", "NN"), 4, "VV.6"),
    (_p("NN", "CL", "AJ", "VV"), 2, "AJ.1"),
    (_p("AJ", "NN", "VV"), 0, "AJ.2"),
    (_p("NN", "AJ", "NU", "CL", "VV"), 1, "AJ.3"),
    (_p("NN", "NU", "AJ", "CL", "VV"), 2, "AJ.4"),
    (_p("NN", "VV", "AV"), 2, "AV.1"),
    (_p("AV", "NN", "VV", "NN"), 0, "AV.2"),
    (_p("AV", "NN", "VV", "NN"), 0, "AV.3"),
    (_p("NN", "VV", "NN", "AV"), 3, "AV.4"),
)

#: Attested usages of a noun (matches all four NN frames across them).
NOUN_ATTESTATIONS = (
    (_p("NN", "VV", "AV"), 0),
    (_p("NN", "VV", "NN", "AV"), 2),
    (_p("NN", "VV", "PS", "NN", "AV"), 3),
    (_p("NN", "CL", "AJ"), 0),
)

#: Attested usages of a verb (an intransitive use plus a relative-clause use).
VERB_ATTESTATIONS = (
    (_p("NN", "AX", "VV", "AV"), 2),
    (_p("NN", "VV", "NN", "CC", "AX", "VV"), 5),
)


def matched_frame_ids(attestations, frameset) -> set[str]:
    """Union of the frame ids matched by each (tags, candidate) usage."""
    return set().union(
        *(classify_instance(tags, candidate, frameset) for tags, candidate in attestations)
    )


# ---------------------------------------------------------------------------
# Random valid documents.

_SURFACE_ALPHABET = (
    "กขคงจฉชซดตถทนบปผพฟมยรลวสหอฮะาิีืุูเแโไ"
    "abcdefghijkxyz0123456789"
    "./-%?ๆ"
)
_NE_CATEGORIES = ("ORG", "PER", "LOC", "DTM", "MEA", "BRN")
_POS_CHOICES = tuple(tag for tag in PosTag if tag is not PosTag.PU)


def _random_boundary_labels(rng: random.Random, n: int, categories) -> list[str]:
    """A random legal BIEO sequence of length n."""
    labels = []
    state = "closed"
    category = None
    for i in range(n):
        last = i == n - 1
        if state == "closed":
            options = ["O", "B"]
        elif state == "B":
            options = ["O", "B", "I", "E"]
        else:
            options = ["I", "E"]
        if last and "I" in options and len(options) > 1:
            options.remove("I")
        move = rng.choice(options)
        if move == "O":
            labels.append("O")
            state = "closed"
        elif move == "B":
            category = rng.choice(categories)
            labels.append(f"B_{category}")
            state = "B"
        elif move == "I":
            labels.append(f"I_{category}")
            state = "I"
        else:
            labels.append(f"E_{category}")
            state = "closed"
    return labels


def random_sentence(rng: random.Random, max_tokens: int = 40) -> Sentence:
    n = rng.randint(1, max_tokens)
    ne_labels = _random_boundary_labels(rng, n, _NE_CATEGORIES)
    cls_labels = _random_boundary_labels(rng, n, ("CLS",))
    tokens = []
    for i in range(n):
        ne = parse_ne_label(ne_labels[i])
        clause = parse_clause_label(cls_labels[i])
        if rng.random() < 0.12:
            tokens.append(space_token(ne=ne, clause=clause))
        else:
            surface = "".join(
                rng.choice(_SURFACE_ALPHABET) for _ in range(rng.randint(1, 8))
            )
            tokens.append(Token(surface, rng.choice(_POS_CHOICES), ne, clause))
    return Sentence(tuple(tokens))


def random_document(
    rng: random.Random, max_sentences: int = 50, max_tokens: int = 40
) -> Document:
    sentences = tuple(
        random_sentence(rng, max_tokens) for _ in range(rng.randint(1, max_sentences))
    )
    return Document(f"doc{rng.randint(0, 10**6)}", sentences)


def random_columnar_text(rng: random.Random, size: int) -> str:
    """Columnar text of random documents, one after another, of at least
    ``size`` bytes in UTF-8."""
    texts, total = [], 0
    while total < size:
        texts.append(write_columnar(random_document(rng)))
        total += len(texts[-1].encode("utf-8")) + 1
    return "\n".join(texts)
