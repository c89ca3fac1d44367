import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_samples
from corpus_samples import toks
from lst20tools import PosTag, Token, space_token
from lst20tools.schema import ClauseLabel, parse_ne_label
from lst20tools.segment import (
    ConfigError,
    MarkerLexicon,
    aggregate_sentences,
    detect_clauses,
    _split_spaces,
    load_marker_lexicon,
    segment_paragraphs,
)
from lst20tools.validate import Severity, lint_document, validate_clause_sequence
from lst20tools.format import Document, Sentence
from oracles import bieo_spans, clause_spans, r2_space_splits


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

    def test_clause_markers_follow_the_categories_and_are_no_section(self):
        lex = load_marker_lexicon("[particles]\nจ้ะ\n")
        assert lex.clause_markers == (
            lex.subordinate_connectors
            | lex.cohesive_markers
            | lex.list_markers
            | lex.particles
            | lex.question_adverbs
        )
        assert "จ้ะ" in lex.clause_markers
        with pytest.raises(ConfigError):
            load_marker_lexicon("[clause_markers]\nจ้ะ\n")

    def test_entry_before_section_rejected(self):
        with pytest.raises(ConfigError):
            load_marker_lexicon("ว่า\n")


class TestConfig:
    def test_subject_shift_is_validated(self):
        tokens, clauses, _ = corpus_samples.phone_call_paragraph()
        with pytest.raises(ValueError):
            aggregate_sentences(clauses, tokens, subject_shift="maybe")


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
        assert detect_clauses(tokens) == [(0, 6), (7, 14)]

    def test_space_without_marker_does_not_split(self):
        tokens = toks(
            [("ก", "NN"), ("กิน", "VV"), (None, "PU"), ("ข", "NN"), ("นอน", "VV")]
        )
        assert detect_clauses(tokens) == [(0, 5)]

    def test_space_without_flanking_verbs_does_not_split(self):
        tokens = toks(
            [("ก", "NN"), ("ว่า", "CC"), (None, "PU"), ("ข", "NN"), ("กิน", "VV")]
        )
        assert detect_clauses(tokens) == [(0, 5)]

    def test_connector_opens_clause_without_space(self):
        tokens = toks(
            [
                ("ฉัน", "PR"), ("ไม่", "NG"), ("ทราบ", "VV"),
                ("ว่า", "CC"), ("ทำไม", "AV"), ("เขา", "PR"), ("ไม่", "NG"),
                ("แถลง", "VV"), ("ข่าว", "NN"),
            ]
        )
        assert detect_clauses(tokens) == [(0, 3), (3, 9)]

    def test_no_rule_fires_one_clause(self):
        tokens = toks([("ก", "NN"), ("กิน", "VV"), ("ข้าว", "NN")])
        assert detect_clauses(tokens) == [(0, 3)]

    def test_connector_needs_cc_tag(self):
        # ผู้ as a noun must not trigger the marker rule
        tokens = toks([("ผู้", "NN"), ("กิน", "VV"), ("ข้าว", "NN")])
        assert len(detect_clauses(tokens)) == 1

    def test_verbless_lead_merges_forward(self):
        tokens = toks([("ผู้", "NN"), ("ที่", "CC"), ("กิน", "VV")])
        assert detect_clauses(tokens) == [(0, 3)]

    def test_trailing_connector_merges_back(self):
        tokens = toks([("เขา", "PR"), ("ทราบ", "VV"), ("ว่า", "CC")])
        assert detect_clauses(tokens) == [(0, 3)]

    def test_verbless_paragraph_is_one_clause(self):
        tokens = toks([("(", "PU"), ("1", "NU"), (")", "PU")])
        assert detect_clauses(tokens) == [(0, 3)]

    def test_gold_clause_spans(self):
        tokens, _ = corpus_samples.disease_report_paragraph()
        assert detect_clauses(tokens) == [(0, 6), (7, 13), (14, 25), (25, 31)]

    def test_empty_paragraph_rejected(self):
        with pytest.raises(ValueError):
            detect_clauses([])


def _clause_column(sentences):
    return [[t.clause.value for t in s.tokens] for s in sentences]


class TestEmitClauseLabels:
    """The BIEO clause labels ``segment_paragraphs`` writes."""

    def test_single_token_span(self):
        sentences, _ = segment_paragraphs([toks([("กิน", "VV")])])
        assert _clause_column(sentences) == [["B_CLS"]]

    def test_two_spans_with_outside_space(self):
        # R2 splits at the space after the connector; S3 finds the same
        # subject on both sides and keeps one sentence.
        tokens = toks(
            [
                ("เขา", "PR"), ("กิน", "VV"), ("ว่า", "CC"),
                (None, "PU"),
                ("เขา", "PR"), ("นอน", "VV"),
            ]
        )
        sentences, _ = segment_paragraphs([tokens])
        assert _clause_column(sentences) == [
            ["B_CLS", "I_CLS", "E_CLS", "O", "B_CLS", "E_CLS"]
        ]

    def test_gold_label_column(self):
        tokens, gold = corpus_samples.disease_report_paragraph()
        assert detect_clauses(tokens) == bieo_spans([label.value for label in gold])

    def test_emitted_labels_always_validate(self):
        tokens, _ = corpus_samples.disease_report_paragraph()
        sentences, _ = segment_paragraphs([tokens])
        errors = [
            i
            for sentence in sentences
            for i in validate_clause_sequence(sentence)
            if i.severity is Severity.ERROR
        ]
        assert errors == []


class TestAggregateSentences:
    def test_subject_shift_splits_and_zero_anaphora_merges(self):
        tokens, clauses, gold = corpus_samples.phone_call_paragraph()
        assert aggregate_sentences(clauses, tokens) == gold

    def test_item_list_merges(self):
        tokens, clauses, gold = corpus_samples.factory_list_paragraph()
        assert aggregate_sentences(clauses, tokens) == gold

    def test_final_particle_splits(self):
        tokens, clauses, gold = corpus_samples.meeting_particle_paragraph()
        assert aggregate_sentences(clauses, tokens) == gold

    def test_direct_speech_merges(self):
        tokens, clauses, gold = corpus_samples.pm_statement_paragraph()
        assert aggregate_sentences(clauses, tokens) == gold

    def test_indirect_speech_merges(self):
        tokens, clauses, gold = corpus_samples.briefing_paragraph()
        assert aggregate_sentences(clauses, tokens) == gold

    def test_topic_shift_splits(self):
        tokens = toks(
            [
                ("เขา", "PR"), ("กิน", "VV"), ("ข้าว", "NN"),
                (None, "PU"),
                ("อย่างไรก็ตาม", "CC"), ("เขา", "PR"), ("หิว", "VV"),
            ]
        )
        clauses = [(0, 3), (4, 7)]
        spans = aggregate_sentences(clauses, tokens)
        assert len(spans) == 2

    def test_always_and_never_strategies(self):
        tokens, clauses, _ = corpus_samples.phone_call_paragraph()
        always = aggregate_sentences(clauses, tokens, subject_shift="always")
        never = aggregate_sentences(clauses, tokens, subject_shift="never")
        assert len(always) == 4
        # merge rules like S5 do not apply here, so never-split joins them all
        assert len(never) == 1

    def test_item_list_outranks_topic_shift_and_particle(self):
        # ดังนั้น is both a list marker (S6 merge) and a cohesive marker (S2
        # split), and the first clause ends in a particle (S7 split): the
        # fixed order S6, S4, S5, S2, S7 lets S6 decide.
        lexicon = load_marker_lexicon(
            "[list_markers]\nดังนั้น\n[cohesive_markers]\nดังนั้น\n"
        )
        tokens = toks(
            [
                ("เขา", "PR"), ("กิน", "VV"), ("นะ", "PA"),
                (None, "PU"),
                ("ดังนั้น", "CC"), ("เรา", "PR"), ("นอน", "VV"),
            ]
        )
        clauses = [(0, 3), (4, 7)]
        assert aggregate_sentences(clauses, tokens, lexicon) == [(0, 2)]

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
        clauses = [(0, 3), (4, 6)]
        assert len(aggregate_sentences(clauses, tokens)) == 1


def _pair_spans(lexicon_config, first, second, subject_shift="heuristic"):
    """Sentences of a two-clause paragraph: ``first``, a space, ``second``."""
    tokens = toks([*first, (None, "PU"), *second])
    clauses = [(0, len(first)), (len(first) + 1, len(tokens))]
    lexicon = load_marker_lexicon(lexicon_config)
    return aggregate_sentences(clauses, tokens, lexicon, subject_shift=subject_shift)


MERGED, SPLIT = [(0, 2)], [(0, 1), (1, 2)]

# Each rule alone at a clause pair.
_MERGE_RULES = {
    "S6": ([("เขา", "PR"), ("กิน", "VV")], [("เช่น", "CC"), ("เรา", "PR"), ("นอน", "VV")]),
    "S4": ([("เขา", "PR"), ("กล่าว", "VV")], [('"', "PU"), ("เรา", "PR"), ("นอน", "VV")]),
    "S5": ([("เขา", "PR"), ("กล่าว", "VV"), ("ว่า", "CC")], [("เรา", "PR"), ("นอน", "VV")]),
}
_SPLIT_RULES = {
    "S2": ([("เขา", "PR"), ("กิน", "VV")], [("อย่างไรก็ตาม", "CC"), ("เขา", "PR"), ("นอน", "VV")]),
    "S7": ([("เขา", "PR"), ("กิน", "VV"), ("นะ", "PA")], [("เขา", "PR"), ("นอน", "VV")]),
}

# A merge rule and a split rule at the same clause pair, whose subject
# stretches differ, so S3 would split too. Where both rules read the same
# token, the lexicon puts that token in both categories.
_MERGE_AGAINST_SPLIT = {
    ("S6", "S2"): (
        "[cohesive_markers]\nเช่น\n",
        [("เขา", "PR"), ("กิน", "VV")],
        [("เช่น", "CC"), ("เรา", "PR"), ("นอน", "VV")],
    ),
    ("S6", "S7"): (
        "",
        [("เขา", "PR"), ("กิน", "VV"), ("นะ", "PA")],
        [("เช่น", "CC"), ("เรา", "PR"), ("นอน", "VV")],
    ),
    ("S4", "S2"): (
        '[cohesive_markers]\n"\n',
        [("เขา", "PR"), ("กล่าว", "VV")],
        [('"', "PU"), ("เรา", "PR"), ("นอน", "VV")],
    ),
    ("S4", "S7"): (
        "[reporting_verbs]\nนะ\n",
        [("เขา", "PR"), ("กิน", "VV"), ("นะ", "PA")],
        [('"', "PU"), ("เรา", "PR"), ("นอน", "VV")],
    ),
    ("S5", "S2"): (
        "",
        [("เขา", "PR"), ("กล่าว", "VV"), ("ว่า", "CC")],
        [("อย่างไรก็ตาม", "CC"), ("เรา", "PR"), ("นอน", "VV")],
    ),
    ("S5", "S7"): (
        "[subordinate_connectors]\nนะ\n",
        [("เขา", "PR"), ("กล่าว", "VV"), ("นะ", "PA")],
        [("เรา", "PR"), ("นอน", "VV")],
    ),
}


class TestRulePrecedence:
    """A merge rule outranks a split rule, and S3 decides only a pair that no
    other rule decides."""

    @pytest.mark.parametrize("rules", sorted(_MERGE_AGAINST_SPLIT), ids="-".join)
    def test_merge_rule_outranks_split_rule(self, rules):
        config, first, second = _MERGE_AGAINST_SPLIT[rules]
        assert _pair_spans(config, first, second) == MERGED

    @pytest.mark.parametrize("rule", sorted(_SPLIT_RULES))
    def test_split_rule_outranks_never(self, rule):
        assert _pair_spans("", *_SPLIT_RULES[rule], subject_shift="never") == SPLIT

    @pytest.mark.parametrize("rule", sorted(_MERGE_RULES))
    def test_merge_rule_outranks_always(self, rule):
        assert _pair_spans("", *_MERGE_RULES[rule], subject_shift="always") == MERGED


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
                clause_list.append((pos, pos + length))
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
        gold = corpus_samples.load_fixture("phone_call.txt")
        tokens, clauses, _ = corpus_samples.phone_call_paragraph()
        labels = [ClauseLabel.O] * len(tokens)
        for lo, hi in clauses:
            labels[lo:hi] = [ClauseLabel.I_CLS] * (hi - lo)
            labels[lo], labels[hi - 1] = ClauseLabel.B_CLS, ClauseLabel.E_CLS
        relabeled = [replace(t, clause=label) for t, label in zip(tokens, labels)]
        rebuilt = tuple(
            Sentence(relabeled[clauses[first][0] : clauses[last - 1][1]])
            for first, last in aggregate_sentences(clauses, tokens)
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
            spans = detect_clauses(tokens)
            covered = set()
            for lo, hi in spans:
                assert lo < hi
                for i in range(lo, hi):
                    assert i not in covered
                    covered.add(i)
            for i, token in enumerate(tokens):
                if not token.is_space:
                    assert i in covered, (rows, spans)


# Markers from the default lexicon ("ว่า", "เช่น", "นะ") mixed with plain words,
# and spaces outside and inside a named entity.
_R2_TOKENS = st.one_of(
    st.builds(
        space_token,
        st.sampled_from([PosTag.PU, PosTag.VV]),
        st.sampled_from([parse_ne_label("O"), parse_ne_label("I_LOC")]),
    ),
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
    assert _split_spaces(tokens, lexicon.clause_markers) == r2_space_splits(
        tokens, lexicon.clause_markers
    )


# Connectors, other markers and verbs anywhere, in and out of names, with
# NE labels in any order: the guard reads only a token's own NE prefix.
_NE = st.sampled_from([parse_ne_label(x) for x in ("O", "B_LOC", "I_LOC", "E_LOC")])
_R3_TOKENS = st.one_of(
    st.builds(space_token, st.sampled_from([PosTag.PU, PosTag.VV]), _NE),
    st.builds(
        Token,
        st.sampled_from(["ว่า", "ซึ่ง", "ที่", "เช่น", "นะ", "กิน", "บ้าน"]),
        st.sampled_from([PosTag.VV, PosTag.NN, PosTag.CC, PosTag.PA]),
        _NE,
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_R3_TOKENS, min_size=1, max_size=40))
def test_detect_clauses_matches_chunk_and_merge_oracle(tokens):
    lexicon = MarkerLexicon.default()
    assert detect_clauses(tokens) == clause_spans(
        tokens, lexicon.clause_markers, lexicon.subordinate_connectors
    )


# Pieces of long paragraphs: mostly nouns, so verbs are sparse; many
# connectors, in and out of names; markers next to spaces, so R2 cuts
# several regions; and spaces inside names next to the spaces R2 cuts at,
# so a trimmed region can start or end with a name's space.
_LOC_B, _LOC_I, _LOC_E = (parse_ne_label(x) for x in ("B_LOC", "I_LOC", "E_LOC"))
_GAP = space_token()
_LONG_PIECES = (
    *[(Token("บ้าน", PosTag.NN),)] * 8,
    (Token("กิน", PosTag.VV),),
    (Token("ว่า", PosTag.CC),),
    (Token("ซึ่ง", PosTag.CC),),
    (Token("ที่", PosTag.CC),),
    (Token("ที่", PosTag.CC, _LOC_I),),
    (Token("ซึ่ง", PosTag.CC, _LOC_E),),
    (Token("ว่า", PosTag.CC), _GAP),
    (Token("นะ", PosTag.PA), _GAP),
    (_GAP, Token("เช่น", PosTag.CC)),
    (_GAP, Token("กิน", PosTag.VV)),
    (_GAP,),
    (space_token(PosTag.VV),),
    (_GAP, space_token(ne=_LOC_B), Token("บ้าน", PosTag.NN, _LOC_E)),
    (Token("บ้าน", PosTag.NN, _LOC_B), space_token(ne=_LOC_E), _GAP),
    (space_token(ne=_LOC_I),),
)
_LONG_PARAGRAPHS = st.lists(st.sampled_from(_LONG_PIECES), min_size=60, max_size=200).map(
    lambda pieces: [token for piece in pieces for token in piece]
)


@settings(max_examples=150, deadline=None)
@given(_LONG_PARAGRAPHS)
def test_r2_space_splits_match_quadratic_reference_on_long_paragraphs(tokens):
    lexicon = MarkerLexicon.default()
    assert _split_spaces(tokens, lexicon.clause_markers) == r2_space_splits(
        tokens, lexicon.clause_markers
    )


@settings(max_examples=150, deadline=None)
@given(_LONG_PARAGRAPHS)
def test_detect_clauses_matches_chunk_and_merge_oracle_on_long_paragraphs(tokens):
    lexicon = MarkerLexicon.default()
    assert detect_clauses(tokens) == clause_spans(
        tokens, lexicon.clause_markers, lexicon.subordinate_connectors
    )


_MARKER_WORDS = (("ว่า", PosTag.CC), ("ซึ่ง", PosTag.CC), ("เช่น", PosTag.CC), ("นะ", PosTag.PA))


def _ne_issues(sentences):
    report = lint_document(Document("d", tuple(sentences)))
    return [issue for issue in report.issues if issue.layer == "NE"]


def _entity_tokens(sentences):
    return [(t.surface, t.ne) for s in sentences for t in s.tokens if str(t.ne) != "O"]


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_segmenting_keeps_named_entities_whole(rng):
    """NE-clean paragraphs come out NE-clean, with every token that carries
    an NE label kept, in order. Markers are planted anywhere, entities
    included: a connector inside a name never opens a clause there."""
    doc = corpus_samples.random_document(rng, max_sentences=6, max_tokens=30)
    paragraphs = []
    for sentence in doc.sentences:
        tokens = []
        for token in sentence.tokens:
            if not token.is_space and rng.random() < 0.2:
                surface, pos = rng.choice(_MARKER_WORDS)
                token = replace(token, surface=surface, pos=pos)
            elif not token.is_space and rng.random() < 0.3:
                token = replace(token, pos=PosTag.VV)
            tokens.append(token)
        paragraphs.append(Sentence(tuple(tokens)))
    assert not _ne_issues(paragraphs)
    sentences, _ = segment_paragraphs([p.tokens for p in paragraphs])
    assert not _ne_issues(sentences)
    assert _entity_tokens(sentences) == _entity_tokens(paragraphs)


def _assert_relabelled_as_if_constructed(paragraphs):
    """Every token ``segment_paragraphs`` returns equals, and hashes as, the
    one ``Token()`` builds from its input token's fields and its new clause
    label, and ``replace`` works on it. It is the input token itself exactly
    when that one already had the label. A check added to ``Token.__init__``
    that the direct slot writes skip makes ``Token()`` raise here."""
    sentences, _ = segment_paragraphs(paragraphs)
    out = iter([t for s in sentences for t in s.tokens])
    for tokens in paragraphs:
        clauses = detect_clauses(tokens)
        for first, last in aggregate_sentences(clauses, tokens):
            for src in tokens[clauses[first][0] : clauses[last - 1][1]]:
                got = next(out)
                built = Token(src.surface, src.pos, src.ne, got.clause, src.is_space)
                assert built == got and hash(built) == hash(got)
                assert (got is src) == (got.clause is src.clause)
                assert replace(got, clause=ClauseLabel.O).clause is ClauseLabel.O
    assert next(out, None) is None


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_relabelled_tokens_are_as_if_constructed(rng):
    # random_document's labels are legal BIEO runs in any place, so some
    # tokens keep their clause label and others change it; its spaces carry
    # NE labels too, so names hold spaces.
    doc = corpus_samples.random_document(rng, max_sentences=6, max_tokens=40)
    paragraphs = []
    for sentence in doc.sentences:
        tokens = []
        for token in sentence.tokens:
            if not token.is_space and rng.random() < 0.2:
                surface, pos = rng.choice(_MARKER_WORDS)
                token = replace(token, surface=surface, pos=pos)
            elif not token.is_space and rng.random() < 0.3:
                token = replace(token, pos=PosTag.VV)
            tokens.append(token)
        paragraphs.append(tokens)
    _assert_relabelled_as_if_constructed(paragraphs)


@pytest.mark.parametrize("name", sorted(p.name for p in corpus_samples.FIXTURE_DIR.glob("*.txt")))
def test_fixture_relabel_is_as_if_constructed(name):
    doc = corpus_samples.load_fixture(name)
    _assert_relabelled_as_if_constructed([s.tokens for s in doc.sentences])


def test_a_token_whose_label_is_unchanged_comes_back_itself():
    # The gold labels are the ones the segmenter assigns, so re-segmenting
    # the labelled paragraph builds no token.
    tokens = corpus_samples.load_fixture("disease_report.txt").sentences[0].tokens
    sentences, _ = segment_paragraphs([tokens])
    kept = [t for s in sentences for t in s.tokens]
    assert kept and all(any(t is src for src in tokens) for t in kept)
