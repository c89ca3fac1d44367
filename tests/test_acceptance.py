"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The final test needs
the full corpus and is skipped unless LST20_DIR points at it (optionally
LST20_MANIFEST at a document-id/genre table).
"""

import json
import os
import random
import time
from itertools import product
from pathlib import Path

import pytest

import corpus_samples
from corpus_samples import (
    FRAME_WITNESSES,
    GOLD_FIXTURES,
    NOUN_ATTESTATIONS,
    VERB_ATTESTATIONS,
    load_fixture,
    matched_frame_ids,
)
from lst20tools import document_counts, lint_document, read_columnar
from lst20tools.cli import main
from lst20tools.format import read_inline, write_columnar, write_inline
from lst20tools.frames import classify_instance, classify_lexeme, default_frameset
from lst20tools.schema import parse_ne_label
from lst20tools.segment import aggregate_sentences
from lst20tools.validate import _ne_rule
from oracles import bieo_accepts, bieo_spans, frame_match_exists
from test_frames import _random_frame


def _announce(name, started):
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_fixture_soundness():
    started = time.perf_counter()
    for name in GOLD_FIXTURES:
        report = lint_document(load_fixture(name))
        assert report.error_count == 0, (name, [str(i) for i in report.issues])
    assert time.perf_counter() - started < 1.0
    _announce("fixture-soundness", started)


def test_bieo_oracle_equivalence():
    started = time.perf_counter()
    alphabet = ("O", "B_ORG", "I_ORG", "E_ORG", "B_PER", "I_PER", "E_PER")
    parsed = {label: parse_ne_label(label) for label in alphabet}
    checked = 0
    for length in range(0, 7):
        for labels in product(alphabet, repeat=length):
            expected = bieo_accepts(labels)
            if length == 0:
                assert expected
                continue
            verdict = _ne_rule([parsed[label] for label in labels], 0) == []
            assert verdict == expected, labels
            checked += 1
    assert checked == sum(7**k for k in range(1, 7))
    assert time.perf_counter() - started < 10.0
    _announce("bieo-oracle-equivalence", started)


def test_round_trip_random_documents():
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(1000):
        doc = corpus_samples.random_document(rng, max_sentences=50, max_tokens=40)
        columnar = write_columnar(doc)
        again = read_columnar(columnar, doc.doc_id)
        assert again.sentences == doc.sentences
        assert write_columnar(again) == columnar  # byte-stable
        inline = write_inline(doc.sentences, 4)
        assert tuple(read_inline(inline)) == doc.sentences
    assert time.perf_counter() - started < 30.0
    _announce("round-trip", started)


def test_segmentation_gold_reproduction():
    started = time.perf_counter()
    tokens, gold_labels = corpus_samples.disease_report_paragraph()
    assert corpus_samples.clause_spans_of(tokens) == bieo_spans([label.value for label in gold_labels])

    for paragraph in (
        corpus_samples.phone_call_paragraph,
        corpus_samples.factory_list_paragraph,
        corpus_samples.meeting_particle_paragraph,
    ):
        tokens, clauses, gold_partition = paragraph()
        assert aggregate_sentences(clauses, tokens) == gold_partition
    _announce("segmentation-gold", started)


def test_frame_fixtures():
    started = time.perf_counter()
    frameset = default_frameset()
    for sequence, candidate, expected in FRAME_WITNESSES:
        matched = classify_instance(sequence, candidate, frameset)
        assert expected in matched, (sequence, candidate, expected, matched)
    assert classify_lexeme(matched_frame_ids(NOUN_ATTESTATIONS, frameset)) == {"noun"}
    assert classify_lexeme(matched_frame_ids(VERB_ATTESTATIONS, frameset)) == {"verb"}
    _announce("frame-fixtures", started)


def test_frame_matcher_oracle():
    started = time.perf_counter()
    from lst20tools.frames import frame_matches
    from lst20tools.schema import PosTag

    rng = random.Random(99)
    all_tags = list(PosTag)
    frames = list(default_frameset().frames) + [_random_frame(rng) for _ in range(40)]
    for _ in range(10_000):
        frame = rng.choice(frames)
        n = rng.randint(1, 8)
        sequence = [rng.choice(all_tags) for _ in range(n)]
        candidate = rng.randrange(n)
        got = frame_matches(sequence, candidate, frame) is not None
        expected = frame_match_exists(frame, sequence, candidate)
        assert got == expected, (frame.spec(), sequence, candidate)
    assert time.perf_counter() - started < 30.0
    _announce("frame-matcher-oracle", started)


def test_stats_counts():
    started = time.perf_counter()
    phone = document_counts(load_fixture("phone_call.txt"))
    assert phone.sentences == 3
    assert phone.clauses == 4
    assert phone.named_entities == 0

    glimpse = document_counts(load_fixture("glimpse.txt"))
    assert glimpse.documents == 1
    assert glimpse.sentences == 3
    assert glimpse.clauses == 5
    assert glimpse.named_entities == 4
    assert glimpse.tokens == 27
    assert glimpse.words == 24
    assert glimpse.ne == {"ORG": 1, "DTM": 1, "DES": 1, "PER": 1}
    _announce("stats-counts", started)


@pytest.mark.skipif(
    "LST20_DIR" not in os.environ,
    reason="full-corpus check needs LST20_DIR pointing at the released data",
)
def test_full_corpus_counts(capsys):
    started = time.perf_counter()
    root = Path(os.environ["LST20_DIR"])
    files = sorted(p for p in root.rglob("*.txt") if p.is_file())
    assert files, f"no .txt files under {root}"

    from lst20tools.stats import CorpusCounts

    totals = CorpusCounts()
    for path in files:
        doc = read_columnar(path.read_text(encoding="utf-8"), path.stem)
        totals += document_counts(doc)

    assert totals.documents == 3745
    assert totals.sentences == 74180
    assert totals.clauses == 248962
    assert totals.named_entities == 288020
    assert abs(totals.words - 3164864) <= 0.005 * 3164864
    assert len(totals.pos) <= 16

    manifest_path = os.environ.get("LST20_MANIFEST")
    if manifest_path:
        argv = ["stats", "--json", "--manifest", manifest_path, *map(str, files)]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["genres"]) == 15
    assert time.perf_counter() - started < 60.0
    _announce("full-corpus", started)
