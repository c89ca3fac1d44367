import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_samples
from corpus_samples import toks
from lst20tools import PosTag, Token, space_token
from lst20tools.schema import ClauseLabel
from lst20tools.segment import (
    ClauseSpan,
    ConfigError,
    MarkerLexicon,
    SegmenterConfig,
    aggregate_sentences,
    detect_clauses,
    emit_clause_labels,
    emit_sentence_markers,
    _split_spaces,
    load_marker_lexicon,
    segment_paragraphs,
)
from lst20tools.validate import Severity, validate_clause_sequence
from lst20tools.format import Sentence, relabel_clauses
from oracles import r2_space_splits


class TestLexicon:
    def test_default_contents(self):
        lex = MarkerLexicon.default()
        assert "ว่า" in lex.subordinate_connectors
        assert "อย่างไรก็ตาม" in lex.cohesive_markers
        assert "เช่น" in lex.list_markers
        assert "นะ" in lex.particles
        assert "ทำไม" in lex.question_adverbs
        assert "กล่าว" in lex.reporting_verbs
        assert {"กำลัง", "จะ", "ถูก", "อยู่แล้ว"} <= lex.auxiliaries

    def test_empty_config_gives_default(self):
        assert load_marker_lexicon("") == MarkerLexicon.default()

    def test_config_extends_default(self):
        lex = load_marker_lexicon("[subordinate_connectors]\nเมื่อ\n")
        assert lex.subordinate_connectors == (
            MarkerLexicon.default().subordinate_connectors | {"เมื่อ"}
        )

    def test_duplicates_are_idempotent(self):
        lex = load_marker_lexicon("[particles]\nนะ\nนะ\n")
        assert lex == MarkerLexicon.default()

    def test_comments_and_blanks_ignored(self):
        lex = load_marker_lexicon("# comment\n\n[list_markers]\nอาทิ  # trailing\n")
        assert "อาทิ" in lex.list_markers

    def test_unknown_section_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            load_marker_lexicon("\n[verbs]\n")
        assert err.value.line_no == 2

    def test_entry_before_section_rejected(self):
        with pytest.raises(ConfigError):
            load_marker_lexicon("ว่า\n")


class TestConfig:
    def test_paragraph_rules_cannot_be_disabled(self):
        with pytest.raises(ValueError):
            SegmenterConfig(r1_paragraph=False)
        with pytest.raises(ValueError):
            SegmenterConfig(s1_paragraph=False)

    def test_subject_shift_is_validated(self):
        with pytest.raises(ValueError):
            SegmenterConfig(subject_shift="maybe")


class TestDetectClauses:
    def test_space_with_marker_splits(self):
        # verb chunk + connector, space, verb chunk: split at the space
        tokens = toks(
            [
                ("จาก", "PS"), ("การ", "FX"), ("สืบสวน", "VV"), ("โรค", "NN"),
                ("พบ", "VV"), ("ว่า", "CC"),
                (None, "PU"),
                ("ผู้", "NN"), ("ป่วย", "VV"), ("เคย", "AX"), ("สัมผัส", "VV"),
                ("ไก่", "NN"), ("ติด", "VV"), ("เชื้อ", "NN"),
            ]
        )
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 6), (7, 14)]

    def test_space_without_marker_does_not_split(self):
        tokens = toks(
            [("ก", "NN"), ("กิน", "VV"), (None, "PU"), ("ข", "NN"), ("นอน", "VV")]
        )
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 5)]

    def test_space_without_flanking_verbs_does_not_split(self):
        tokens = toks(
            [("ก", "NN"), ("ว่า", "CC"), (None, "PU"), ("ข", "NN"), ("กิน", "VV")]
        )
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 5)]

    def test_connector_opens_clause_without_space(self):
        tokens = toks(
            [
                ("ฉัน", "PR"), ("ไม่", "NG"), ("ทราบ", "VV"),
                ("ว่า", "CC"), ("ทำไม", "AV"), ("เขา", "PR"), ("ไม่", "NG"),
                ("แถลง", "VV"), ("ข่าว", "NN"),
            ]
        )
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 3), (3, 9)]

    def test_no_rule_fires_one_clause(self):
        tokens = toks([("ก", "NN"), ("กิน", "VV"), ("ข้าว", "NN")])
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 3)]

    def test_connector_needs_cc_tag(self):
        # ผู้ as a noun must not trigger the marker rule
        tokens = toks([("ผู้", "NN"), ("กิน", "VV"), ("ข้าว", "NN")])
        (spans,) = detect_clauses([tokens])
        assert len(spans) == 1

    def test_verbless_lead_merges_forward(self):
        tokens = toks([("ผู้", "NN"), ("ที่", "CC"), ("กิน", "VV")])
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end, s.has_verb) for s in spans] == [(0, 3, True)]

    def test_trailing_connector_merges_back(self):
        tokens = toks([("เขา", "PR"), ("ทราบ", "VV"), ("ว่า", "CC")])
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 3)]

    def test_verbless_paragraph_is_one_clause(self):
        tokens = toks([("(", "PU"), ("1", "NU"), (")", "PU")])
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end, s.has_verb) for s in spans] == [(0, 3, False)]

    def test_rules_can_be_toggled_off(self):
        tokens, _, _ = corpus_samples.phone_call_paragraph()
        cfg = SegmenterConfig(r2_space=False, r3_marker=False)
        (spans,) = detect_clauses([tokens], cfg=cfg)
        assert len(spans) == 1

    def test_gold_clause_spans(self):
        tokens, _ = corpus_samples.disease_report_paragraph()
        (spans,) = detect_clauses([tokens])
        assert [(s.start, s.end) for s in spans] == [(0, 6), (7, 13), (14, 25), (25, 31)]

    def test_empty_paragraph_rejected(self):
        with pytest.raises(ValueError):
            detect_clauses([[]])


class TestEmitClauseLabels:
    def test_single_token_span(self):
        tokens = toks([("กิน", "VV")])
        labels = emit_clause_labels([ClauseSpan(0, 1)], tokens)
        assert labels == [ClauseLabel.B_CLS]

    def test_two_spans_with_outside_space(self):
        tokens = toks(
            [("ก", "NN"), ("กิน", "VV"), (None, "PU"), ("ข", "NN"), ("นอน", "VV")]
        )
        labels = emit_clause_labels([ClauseSpan(0, 2), ClauseSpan(3, 5)], tokens)
        assert [l.value for l in labels] == ["B_CLS", "E_CLS", "O", "B_CLS", "E_CLS"]

    def test_gold_label_column(self):
        tokens, gold = corpus_samples.disease_report_paragraph()
        (spans,) = detect_clauses([tokens])
        assert emit_clause_labels(spans, tokens) == gold

    def test_emitted_labels_always_validate(self):
        tokens, _ = corpus_samples.disease_report_paragraph()
        (spans,) = detect_clauses([tokens])
        labels = emit_clause_labels(spans, tokens)
        sentence = Sentence(relabel_clauses(tokens, labels))
        errors = [
            i
            for i in validate_clause_sequence(sentence)
            if i.severity is Severity.ERROR
        ]
        assert errors == []


class TestAggregateSentences:
    def test_subject_shift_splits_and_zero_anaphora_merges(self):
        tokens, clauses, gold = corpus_samples.phone_call_paragraph()
        spans = aggregate_sentences(clauses, tokens)
        assert [(s.start, s.end) for s in spans] == gold

    def test_item_list_merges(self):
        tokens, clauses, gold = corpus_samples.factory_list_paragraph()
        spans = aggregate_sentences(clauses, tokens)
        assert [(s.start, s.end) for s in spans] == gold

    def test_final_particle_splits(self):
        tokens, clauses, gold = corpus_samples.meeting_particle_paragraph()
        spans = aggregate_sentences(clauses, tokens)
        assert [(s.start, s.end) for s in spans] == gold

    def test_direct_speech_merges(self):
        tokens, clauses, gold = corpus_samples.pm_statement_paragraph()
        spans = aggregate_sentences(clauses, tokens)
        assert [(s.start, s.end) for s in spans] == gold

    def test_indirect_speech_merges(self):
        tokens, clauses, gold = corpus_samples.briefing_paragraph()
        spans = aggregate_sentences(clauses, tokens)
        assert [(s.start, s.end) for s in spans] == gold

    def test_topic_shift_splits(self):
        tokens = toks(
            [
                ("เขา", "PR"), ("กิน", "VV"), ("ข้าว", "NN"),
                (None, "PU"),
                ("อย่างไรก็ตาม", "CC"), ("เขา", "PR"), ("หิว", "VV"),
            ]
        )
        clauses = [ClauseSpan(0, 3), ClauseSpan(4, 7)]
        spans = aggregate_sentences(clauses, tokens)
        assert len(spans) == 2

    def test_always_and_never_strategies(self):
        tokens, clauses, _ = corpus_samples.phone_call_paragraph()
        always = aggregate_sentences(
            clauses, tokens, cfg=SegmenterConfig(subject_shift="always")
        )
        never = aggregate_sentences(
            clauses, tokens, cfg=SegmenterConfig(subject_shift="never")
        )
        assert len(always) == 4
        # merge rules like S5 do not apply here, so never-split joins them all
        assert len(never) == 1

    def test_empty_clause_list(self):
        assert aggregate_sentences([], []) == []

    def test_shared_subject_merges(self):
        tokens = toks(
            [
                ("เขา", "PR"), ("กิน", "VV"), ("ข้าว", "NN"),
                (None, "PU"),
                ("เขา", "PR"), ("นอน", "VV"),
            ]
        )
        clauses = [ClauseSpan(0, 3), ClauseSpan(4, 6)]
        assert len(aggregate_sentences(clauses, tokens)) == 1


class TestCohesiveMonotonicity:
    def test_enlarging_cohesive_markers_never_merges_more(self):
        rng = random.Random(11)
        surfaces = ["ก", "ข", "เขา", "แต่", "ดังนั้น"]
        for _ in range(40):
            n = rng.randint(2, 5)
            tokens = []
            clause_list = []
            pos = 0
            for c in range(n):
                length = rng.randint(1, 4)
                for i in range(length):
                    if i == length - 1:
                        tokens.append(Token(rng.choice(surfaces), PosTag.VV))
                    else:
                        tokens.append(Token(rng.choice(surfaces), rng.choice(
                            [PosTag.NN, PosTag.PR, PosTag.AJ, PosTag.CC]
                        )))
                clause_list.append(ClauseSpan(pos, pos + length))
                pos += length
            base = MarkerLexicon.default()
            bigger = load_marker_lexicon("[cohesive_markers]\nแต่\nดังนั้น\nเขา\n")
            before = len(aggregate_sentences(clause_list, tokens, base))
            after = len(aggregate_sentences(clause_list, tokens, bigger))
            assert after >= before


class TestPipeline:
    def test_segment_paragraphs_drops_inter_sentence_spaces(self):
        tokens, _, _ = corpus_samples.meeting_particle_paragraph()
        sentences, starts = segment_paragraphs([tokens])
        assert starts == [0]
        assert len(sentences) == 2
        assert not any(t.is_space for s in sentences for t in s.tokens)

    def test_intra_sentence_spaces_are_preserved(self):
        tokens, _, _ = corpus_samples.phone_call_paragraph()
        sentences, _ = segment_paragraphs([tokens])
        # the space between two clauses of one sentence keeps clause label O
        assert any(
            t.is_space and t.clause is ClauseLabel.O
            for s in sentences
            for t in s.tokens
        )

    def test_aggregating_gold_clauses_matches_gold_file(self):
        from lst20tools.segment import clause_spans_from_tokens

        gold = corpus_samples.load_fixture("phone_call.txt")
        tokens, clauses, _ = corpus_samples.phone_call_paragraph()
        assert clause_spans_from_tokens(
            [t for s in gold.sentences for t in s.tokens]
        )  # sanity: the gold file itself decomposes into clauses
        labels = emit_clause_labels(clauses, tokens)
        relabeled = relabel_clauses(tokens, labels)
        spans = aggregate_sentences(clauses, tokens)
        rebuilt = tuple(
            Sentence(relabeled[clauses[s.start].start : clauses[s.end - 1].end])
            for s in spans
        )
        assert rebuilt == gold.sentences

    def test_paragraph_boundaries_always_split(self):
        tokens = toks([("เขา", "PR"), ("กิน", "VV")])
        sentences, starts = segment_paragraphs([tokens, tokens])
        assert len(sentences) == 2 and starts == [0, 1]

    def test_determinism(self):
        tokens, _ = corpus_samples.disease_report_paragraph()
        first = segment_paragraphs([tokens])
        second = segment_paragraphs([tokens])
        assert first == second

    def test_coverage_partition_on_random_input(self):
        rng = random.Random(3)
        pos_pool = [p.value for p in PosTag if p is not PosTag.PU]
        for _ in range(60):
            rows = []
            for _ in range(rng.randint(1, 25)):
                if rng.random() < 0.2:
                    rows.append((None, "PU"))
                else:
                    rows.append((f"w{rng.randint(0, 5)}", rng.choice(pos_pool)))
            tokens = toks(rows)
            (spans,) = detect_clauses([tokens])
            covered = set()
            for span in spans:
                assert span.start < span.end
                for i in range(span.start, span.end):
                    assert i not in covered
                    covered.add(i)
            for i, token in enumerate(tokens):
                if not token.is_space:
                    assert i in covered, (rows, spans)


class TestEmitSentenceMarkers:
    def test_inline_markers(self):
        doc = corpus_samples.load_fixture("phone_call.txt")
        text = emit_sentence_markers(doc.sentences, "inline")
        assert text.count("||") == 3

    def test_columnar_markers(self):
        doc = corpus_samples.load_fixture("phone_call.txt")
        text = emit_sentence_markers(doc.sentences[:2], "columnar")
        assert text.count("\n\n") == 1
        assert text.endswith("\n")

    def test_empty(self):
        assert emit_sentence_markers([], "inline") == ""
        assert emit_sentence_markers([], "columnar") == ""

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_sentence_markers([], "tsv")


# Markers from the default lexicon ("ว่า", "เช่น", "นะ") mixed with plain words.
_R2_TOKENS = st.one_of(
    st.builds(space_token, st.sampled_from([PosTag.PU, PosTag.VV])),
    st.builds(
        Token,
        st.sampled_from(["ว่า", "เช่น", "นะ", "กิน", "บ้าน"]),
        st.sampled_from([PosTag.VV, PosTag.NN, PosTag.CC, PosTag.PA]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_R2_TOKENS, max_size=40))
def test_r2_space_splits_match_quadratic_reference(tokens):
    lexicon = MarkerLexicon.default()
    assert _split_spaces(tokens, lexicon, SegmenterConfig()) == r2_space_splits(
        tokens, lexicon.clause_markers
    )
