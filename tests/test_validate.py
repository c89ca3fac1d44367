import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_samples
from corpus_samples import GOLD_FIXTURES, load_fixture, space_token, tok
from lst20tools import Document, Sentence, Token, lint_document
from lst20tools.format import _token_columns
from lst20tools.schema import PosTag, parse_clause_label, parse_ne_label
from lst20tools.validate import LAYER_CLS, LAYER_NE, Severity, _clause_rule, _ne_rule, _token_rule
from oracles import bieo_accepts, lint_oracle


# Each lint rule on one sentence's columns, numbered 0, in the order the rule finds its issues.
def ne_issues(sentence):
    return _ne_rule(*_token_columns(sentence.tokens, "ne"), 0)


def clause_issues(sentence):
    return _clause_rule(*_token_columns(sentence.tokens, "clause", "pos"), 0)


def token_issues(sentence):
    return _token_rule(*_token_columns(sentence.tokens, "surface", "pos", "is_space"), 0)


def ne_sentence(*labels):
    return Sentence(tuple(tok(f"w{i}", "NN", ne=label) for i, label in enumerate(labels)))


def cls_sentence(rows):
    return Sentence(tuple(tok(f"w{i}", pos, clause=label) for i, (pos, label) in enumerate(rows)))


class TestNeSequence:
    def test_company_entity_is_clean(self, company_doc):
        assert ne_issues(company_doc.sentences[0]) == []

    def test_orphan_intermediate(self):
        issues = ne_issues(ne_sentence("I_ORG"))
        assert [(i.code, i.token) for i in issues] == [("NE_ORPHAN_I", 0)]

    def test_orphan_end(self):
        issues = ne_issues(ne_sentence("O", "E_ORG"))
        assert [(i.code, i.token) for i in issues] == [("NE_ORPHAN_E", 1)]

    def test_category_mismatch(self):
        issues = ne_issues(ne_sentence("B_PER", "E_ORG"))
        assert [(i.code, i.token) for i in issues] == [("NE_CAT_MISMATCH", 1)]

    def test_unterminated_at_sentence_end(self):
        issues = ne_issues(ne_sentence("B_ORG", "I_ORG"))
        assert [(i.code, i.token) for i in issues] == [("NE_UNTERMINATED", 1)]

    def test_unterminated_mid_sentence(self):
        issues = ne_issues(ne_sentence("B_ORG", "I_ORG", "O"))
        assert [(i.code, i.token) for i in issues] == [("NE_UNTERMINATED", 2)]

    def test_lone_b_is_legal(self):
        assert ne_issues(ne_sentence("O", "B_BRN", "O")) == []
        assert ne_issues(ne_sentence("B_BRN")) == []

    def test_all_issues_are_errors(self):
        issues = ne_issues(ne_sentence("I_ORG", "E_PER", "E_ORG"))
        assert issues and all(i.severity is Severity.ERROR for i in issues)


ALPHABET = ("O", "B_ORG", "I_ORG", "E_ORG", "B_PER", "I_PER", "E_PER")


def test_ne_lint_matches_oracle_exhaustive_short():
    for length in range(0, 5):
        for labels in product(ALPHABET, repeat=length):
            if length == 0:
                continue
            clean = ne_issues(ne_sentence(*labels)) == []
            assert clean == bieo_accepts(labels), labels


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=6))
def test_ne_lint_matches_oracle_random(labels):
    clean = ne_issues(ne_sentence(*labels)) == []
    assert clean == bieo_accepts(labels)


class TestClauseSequence:
    def test_gold_clause_fixture_is_clean(self):
        doc = load_fixture("disease_report.txt")
        issues = clause_issues(doc.sentences[0])
        assert issues == []

    def test_unterminated_clause(self):
        issues = clause_issues(
            cls_sentence([("NN", "B_CLS"), ("VV", "I_CLS")])
        )
        assert [i.code for i in issues] == ["CLS_UNTERMINATED"]

    def test_orphan_intermediate(self):
        issues = clause_issues(cls_sentence([("VV", "I_CLS")]))
        assert [i.code for i in issues] == ["CLS_ORPHAN_I"]

    def test_verbless_clause_warns(self):
        issues = clause_issues(
            cls_sentence([("PR", "B_CLS"), ("AV", "E_CLS")])
        )
        assert [(i.code, i.severity) for i in issues] == [
            ("CLS_NO_VERB", Severity.WARNING)
        ]

    def test_singleton_clause_warns(self):
        issues = clause_issues(cls_sentence([("VV", "B_CLS")]))
        assert [(i.code, i.severity) for i in issues] == [
            ("CLS_SINGLETON", Severity.WARNING)
        ]

    def test_space_tokens_accept_both_labels(self):
        from lst20tools import ClauseLabel

        inside = Sentence(
            (
                tok("ก", "NN", clause="B_CLS"),
                space_token(clause=ClauseLabel.I_CLS),
                tok("กิน", "VV", clause="E_CLS"),
            )
        )
        outside = Sentence(
            (
                tok("กิน", "VV", clause="B_CLS"),
                tok("ข", "NN", clause="E_CLS"),
                space_token(),
                tok("นอน", "VV", clause="B_CLS"),
                tok("ค", "NN", clause="E_CLS"),
            )
        )
        assert clause_issues(inside) == []
        assert clause_issues(outside) == []


class TestTokenTags:
    def test_space_must_be_pu(self):
        sentence = Sentence((space_token(pos=PosTag.NN),))
        issues = token_issues(sentence)
        assert [(i.code, i.severity) for i in issues] == [
            ("SPACE_NOT_PU", Severity.ERROR)
        ]

    def test_space_as_pu_is_clean(self):
        assert token_issues(Sentence((space_token(),))) == []

    def test_punctuation_run_split(self):
        sentence = Sentence((tok("!", "PU"), tok("!", "PU")))
        issues = token_issues(sentence)
        assert [i.code for i in issues] == ["PUNCT_RUN_SPLIT"]

    def test_thai_repetition_mark_not_flagged(self):
        sentence = Sentence((tok("ๆ", "PU"), tok("ๆ", "PU")))
        assert token_issues(sentence) == []

    def test_url_split_warns(self):
        sentence = Sentence((tok("http://x.th/a", "NN"), tok(".html", "NN")))
        issues = token_issues(sentence)
        assert [i.code for i in issues] == ["URL_SPLIT"]

    def test_whole_url_next_to_thai_is_clean(self):
        sentence = Sentence((tok("http://x.th/a", "NN"), tok("และ", "CC")))
        assert token_issues(sentence) == []

    def test_inner_whitespace_warns(self):
        sentence = Sentence((Token("a b", PosTag.NN),))
        issues = token_issues(sentence)
        assert [i.code for i in issues] == ["FORMAT_SPACE_IN_SURFACE"]


class TestLintDocument:
    @pytest.mark.parametrize("name", GOLD_FIXTURES)
    def test_gold_fixtures_have_zero_errors(self, name):
        report = lint_document(load_fixture(name))
        assert report.error_count == 0, [str(i) for i in report.issues]

    def test_empty_document(self):
        report = lint_document(Document("d"))
        assert report.issues == ()
        assert report.error_count == 0 and report.warning_count == 0

    def test_single_corruption_yields_single_error(self, glimpse_doc):
        sentences = list(glimpse_doc.sentences)
        tokens = list(sentences[1].tokens)
        tokens[2] = tok(tokens[2].surface, "NN", ne="I_ORG", clause="I_CLS")
        sentences[1] = Sentence(tuple(tokens))
        report = lint_document(Document("d", tuple(sentences)))
        assert report.error_count == 1
        (issue,) = [i for i in report.issues if i.severity is Severity.ERROR]
        assert issue.code == "NE_ORPHAN_I" and (issue.sentence, issue.token) == (1, 2)

    def test_counts_match_issue_tally(self, glimpse_doc):
        report = lint_document(glimpse_doc)
        assert report.warning_count == len(
            [i for i in report.issues if i.severity is Severity.WARNING]
        )

    def test_ordering_is_deterministic(self):
        tokens = (
            tok("ก", "NN", ne="I_ORG"),
            space_token(pos=PosTag.NN),
        )
        doc = Document("d", (Sentence(tokens), Sentence(tokens)))
        report = lint_document(doc)
        keys = [(i.sentence, i.token, i.code) for i in report.issues]
        assert keys == sorted(keys)
        again = lint_document(doc)
        assert report == again

    def test_json_serialization_shape(self, glimpse_doc):
        report = lint_document(glimpse_doc)
        payload = json.loads(json.dumps(report.to_dicts()))
        assert all(
            set(entry) == {"severity", "code", "message", "sentence", "token", "layer"}
            for entry in payload
        )


def _oracle_view(report) -> set:
    """The report in :func:`lint_oracle`'s terms: a BIEO layer's errors as
    one ``(sentence, None, layer)``, and no clause warnings for a broken
    clause layer, whose spans the oracle does not define."""
    layers = (LAYER_NE, LAYER_CLS)
    errors = {
        (i.sentence, None, i.layer)
        for i in report.issues
        if i.severity is Severity.ERROR and i.layer in layers
    }
    broken = {s for s, _, layer in errors if layer == LAYER_CLS}
    rest = [
        (i.sentence, i.token, i.code)
        for i in report.issues
        if not (i.layer in layers and (i.severity is Severity.ERROR or i.sentence in broken))
    ]
    assert len(rest) == len(set(rest)), rest
    return errors | set(rest)


def _oracle_records(sentences):
    """Token sentences as :func:`lint_oracle` takes them: numbered from 0, with
    each token's label texts."""
    return [
        (number, [t.surface for t in s.tokens], [(t.pos.text, t.ne.text, t.clause.text) for t in s.tokens],
         [t.is_space for t in s.tokens])
        for number, s in enumerate(sentences)
    ]


def _agrees_with_oracle(doc):
    report = lint_document(doc)
    assert list(report.issues) == sorted(report.issues, key=lambda i: (i.sentence, i.token, i.code))
    assert _oracle_view(report) == lint_oracle(_oracle_records(doc.sentences))


#: Surfaces for the token rules: URL heads and tails, heads in another case,
#: punctuation (``_`` as a word too), white space inside a word, and words
#: that start next to h and w.
_LINT_SURFACES = (
    "http://x.th/a", "https://x.th", "www.x.th", "http://", "HTTP://x.th", "Www.x",
    ".html", "/a?b=1", "a", "h", "w", "wow", "i", "x", "!", "?", ".", "_", "ๆ",
    "a b", "a\u00a0b", "\u3000", "ก", "กิน", "ข ค",
)
_NE_ALPHABET = ("O", "B_ORG", "I_ORG", "E_ORG", "B_PER", "E_PER")
_CLAUSE_ALPHABET = ("O", "B_CLS", "I_CLS", "E_CLS")


@st.composite
def lint_tokens(draw):
    pos = draw(st.sampled_from(list(PosTag)))
    ne = parse_ne_label(draw(st.sampled_from(_NE_ALPHABET)))
    clause = parse_clause_label(draw(st.sampled_from(_CLAUSE_ALPHABET)))
    if draw(st.integers(0, 4)) == 0:
        return space_token(pos, ne, clause)
    return Token(draw(st.sampled_from(_LINT_SURFACES)), pos, ne, clause)


class TestLintOracle:
    """lint_document against :func:`oracles.lint_oracle`."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_documents(self, seed):
        _agrees_with_oracle(corpus_samples.random_document(random.Random(seed)))

    @pytest.mark.parametrize("name", GOLD_FIXTURES)
    def test_fixtures(self, name):
        _agrees_with_oracle(load_fixture(name))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(lint_tokens(), min_size=1, max_size=8), min_size=1, max_size=4))
    def test_token_rules_and_broken_layers(self, sentences):
        _agrees_with_oracle(Document("d", tuple(Sentence(tuple(t)) for t in sentences)))

    @pytest.mark.parametrize(
        "surfaces",
        [
            ["http://x.th/a", None, ".html"],
            ["http://x.th/a", None],
            [None, ".html"],
            ["!", None, "!"],
            ["!", None],
            [None, "!"],
        ],
        ids=["url-space-tail", "url-space", "space-tail", "punct-space-punct", "punct-space", "space-punct"],
    )
    def test_no_pair_rule_spans_a_space(self, surfaces):
        tokens = [space_token() if s is None else tok(s, "NN") for s in surfaces]
        assert lint_document(Document("d", (Sentence(tuple(tokens)),))).issues == ()

    @pytest.mark.parametrize("head", ["HTTP://x.th/a", "Http://x.th/a", "WWW.x.th", "xhttp://x"])
    def test_url_head_is_case_sensitive_and_anchored(self, head):
        sentence = Sentence((tok(head, "NN"), tok(".html", "NN")))
        assert token_issues(sentence) == []

    @pytest.mark.parametrize("head", ["http://x.th/a", "https://x.th", "www.x.th", "http://"])
    def test_every_url_head_form_is_split(self, head):
        sentence = Sentence((tok(head, "NN"), tok("/a", "NN")))
        assert [(i.code, i.token) for i in token_issues(sentence)] == [("URL_SPLIT", 0)]

    def test_lone_verbless_clause_has_both_warnings(self):
        report = lint_document(Document("d", (cls_sentence([("NN", "B_CLS")]),)))
        assert [(i.code, i.token) for i in report.issues] == [
            ("CLS_NO_VERB", 0),
            ("CLS_SINGLETON", 0),
        ]
        assert [i.code for i in clause_issues(cls_sentence([("NN", "B_CLS")]))] == [
            "CLS_SINGLETON",
            "CLS_NO_VERB",
        ]

    @pytest.mark.parametrize("surface", ["a b", "a\u00a0b", "a\u2028b", "\x1cb", "b\u3000"])
    def test_any_white_space_in_a_word(self, surface):
        sentence = Sentence((Token(surface, PosTag.NN),))
        assert [i.code for i in token_issues(sentence)] == ["FORMAT_SPACE_IN_SURFACE"]
