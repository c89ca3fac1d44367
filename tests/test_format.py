import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_samples
from lst20tools import (
    ClauseLabel,
    Document,
    LineError,
    PosTag,
    Sentence,
    Token,
    TokenError,
    WriteError,
    convert,
    read_columnar,
    read_inline,
    space_token,
    write_columnar,
    write_inline,
)
from lst20tools.format import SPACE_GLYPH, inline_layer_count
from lst20tools.schema import (
    CLAUSE_LABELS,
    NE_LABELS,
    NE_OUTSIDE,
    MalformedLabel,
    UnknownCategory,
    UnknownTag,
    parse_clause_label,
    parse_ne_label,
    parse_pos_tag,
)

BOM = "\ufeff"


class TestToken:
    def test_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            Token("", PosTag.NN)

    def test_rejects_tab_and_newline(self):
        with pytest.raises(ValueError):
            Token("a\tb", PosTag.NN)
        with pytest.raises(ValueError):
            Token("a\nb", PosTag.NN)

    def test_space_tokens_are_canonical(self):
        assert space_token().surface == SPACE_GLYPH
        with pytest.raises(ValueError):
            Token("x", PosTag.PU, is_space=True)

    def test_sentence_must_be_non_empty(self):
        with pytest.raises(ValueError):
            Sentence(())


class TestReadColumnar:
    def test_glimpse_shape(self, glimpse_doc):
        assert len(glimpse_doc.sentences) == 3
        assert [len(s) for s in glimpse_doc.sentences] == [9, 8, 10]
        first = glimpse_doc.sentences[0].tokens[0]
        assert (first.surface, first.pos, str(first.ne), first.clause) == (
            "เรื่อง",
            PosTag.NN,
            "O",
            ClauseLabel.B_CLS,
        )

    def test_underscore_becomes_space_token(self, glimpse_doc):
        token = glimpse_doc.sentences[2].tokens[2]
        assert token.is_space
        assert token.surface == SPACE_GLYPH
        assert token.pos is PosTag.PU

    def test_empty_input(self):
        assert read_columnar("", "d").sentences == ()

    def test_consecutive_blank_lines_collapse(self):
        text = "ก\tNN\tO\tO\n\n\n\nข\tNN\tO\tO\n"
        doc = read_columnar(text, "d")
        assert len(doc.sentences) == 2

    def test_wrong_field_count_strict(self):
        with pytest.raises(LineError) as err:
            read_columnar("a\tNN\tO\n", "d")
        assert err.value.line_no == 1
        assert "4 tab-separated fields" in err.value.reason

    def test_extra_tab_is_an_error(self):
        with pytest.raises(LineError):
            read_columnar("a\tb\tNN\tO\tO\n", "d")

    def test_bad_tag_reports_line(self):
        with pytest.raises(LineError) as err:
            read_columnar("a\tNN\tO\tO\nb\tZZ\tO\tO\n", "d")
        assert err.value.line_no == 2

    def test_permissive_mode_collects_and_continues(self):
        errors = []
        doc = read_columnar(
            "a\tNN\tO\tO\nbroken line\nb\tVV\tO\tO\n", "d", errors=errors
        )
        assert [t.surface for t in doc.sentences[0].tokens] == ["a", "b"]
        assert len(errors) == 1 and errors[0].line_no == 2

    def test_crlf_tolerated(self):
        doc = read_columnar("a\tNN\tO\tO\r\n", "d")
        assert doc.sentences[0].tokens[0].surface == "a"


class TestWriteColumnar:
    def test_single_token_document(self):
        doc = Document("d", (Sentence((corpus_samples.tok("สุนัข", "NN", "O", "B_CLS"),)),))
        assert write_columnar(doc) == "สุนัข\tNN\tO\tB_CLS\n"

    def test_empty_document(self):
        assert write_columnar(Document("d")) == ""

    def test_glimpse_round_trips_byte_exact(self, glimpse_doc):
        text = corpus_samples.fixture_text("glimpse.txt")
        assert write_columnar(glimpse_doc) == text

    def test_literal_underscore_is_unrepresentable(self):
        doc = Document("d", (Sentence((Token("_", PosTag.NN),)),))
        with pytest.raises(WriteError):
            write_columnar(doc)

    def test_write_then_read_is_identity(self, phone_call_doc):
        text = write_columnar(phone_call_doc)
        assert read_columnar(text, phone_call_doc.doc_id) == phone_call_doc


class TestReadInline:
    def test_three_layer_sentence(self):
        text = (
            "อย่างไรก็ตาม/CC/O | บริษัท/NN/B_ORG | ␣/PU/I_ORG | เอบีซี/NN/I_ORG"
            " | ␣/PU/I_ORG | จำกัด/VV/E_ORG | จะ/AX/O ||"
        )
        (sentence,) = read_inline(text)
        second = sentence.tokens[1]
        assert (second.surface, second.pos, str(second.ne)) == ("บริษัท", PosTag.NN, "B_ORG")
        assert second.clause is ClauseLabel.O  # missing trailing layer defaults
        assert sentence.tokens[2].is_space

    def test_empty_input(self):
        assert read_inline("") == []

    def test_sentence_terminator_splits(self):
        text = "ก/NN || ข/VV || ค/NN ||"
        assert [len(s) for s in read_inline(text)] == [1, 1, 1]

    def test_trailing_material_without_terminator(self):
        assert [len(s) for s in read_inline("ก/NN || ข/VV")] == [1, 1]

    def test_two_layers_default_both(self):
        (sentence,) = read_inline("กิน/VV | ข้าว/NN ||")
        token = sentence.tokens[0]
        assert str(token.ne) == "O" and token.clause is ClauseLabel.O

    def test_four_layers(self):
        (sentence,) = read_inline("กิน/VV/O/B_CLS ||")
        assert sentence.tokens[0].clause is ClauseLabel.B_CLS

    def test_bare_space_chunk_allowed_at_any_arity(self):
        (sentence,) = read_inline("ก/NN/O | ␣ | ข/VV/O ||")
        assert sentence.tokens[1].is_space
        assert sentence.tokens[1].pos is PosTag.PU

    def test_surface_slashes_survive_with_known_arity(self):
        (sentence,) = read_inline("http://x.th/a/NN/O/O | ๆ/PU/O/O ||")
        assert sentence.tokens[0].surface == "http://x.th/a"

    def test_mixed_arity_is_an_error(self):
        with pytest.raises(TokenError):
            read_inline("ก/NN/O | ข/VV ||")

    def test_missing_pos_layer_is_an_error(self):
        with pytest.raises(TokenError):
            read_inline("ก | ข ||")

    def test_unknown_tag_located(self):
        errors = []
        sentences = read_inline("ก/NN ||  ข/QQ ||", errors=errors)
        assert len(sentences) == 1
        assert errors and errors[0].sentence == 1

    def test_newlines_between_tokens_are_separators(self):
        text = "ก/NN |\nข/VV ||\n"
        (sentence,) = read_inline(text)
        assert [t.surface for t in sentence.tokens] == ["ก", "ข"]


class TestWriteInline:
    def test_layer_counts(self):
        sentence = Sentence((corpus_samples.tok("กิน", "VV", "B_TRM", "B_CLS"),))
        assert write_inline([sentence], 2) == "กิน/VV ||\n"
        assert write_inline([sentence], 3) == "กิน/VV/B_TRM ||\n"
        assert write_inline([sentence], 4) == "กิน/VV/B_TRM/B_CLS ||\n"

    def test_empty(self):
        assert write_inline([], 4) == ""

    def test_bad_layer_count(self):
        with pytest.raises(ValueError):
            write_inline([], 5)

    def test_space_tokens_use_glyph(self):
        sentence = Sentence((space_token(),))
        assert write_inline([sentence], 2) == "␣/PU ||\n"

    def test_pipe_in_surface_rejected(self):
        sentence = Sentence((Token("a|b", PosTag.NN),))
        with pytest.raises(WriteError):
            write_inline([sentence], 2)

    def test_glyph_surface_on_word_token_rejected(self):
        sentence = Sentence((Token(SPACE_GLYPH, PosTag.NN),))
        with pytest.raises(WriteError):
            write_inline([sentence], 2)

    def test_read_inverts_write(self, phone_call_doc):
        text = write_inline(phone_call_doc.sentences, 4)
        assert tuple(read_inline(text)) == phone_call_doc.sentences


class TestConvert:
    def test_columnar_inline_columnar_is_byte_identity(self):
        original = corpus_samples.fixture_text("glimpse.txt")
        inline = convert("columnar", "inline", original)
        back = convert("inline", "columnar", inline)
        assert back == original

    def test_empty_input(self):
        assert convert("columnar", "inline", "") == ""
        assert convert("inline", "columnar", "") == ""

    def test_inline_to_columnar_line_count(self):
        inline = convert(
            "columnar", "inline", corpus_samples.fixture_text("disease_report.txt")
        )
        columnar = convert("inline", "columnar", inline)
        token_lines = [l for l in columnar.split("\n") if l]
        assert len(token_lines) == 31

    def test_inline_canonicalization_preserves_layers(self):
        text = "ก/NN|ข/VV||"
        assert inline_layer_count(text) == 2
        assert convert("inline", "inline", text) == "ก/NN | ข/VV ||\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            convert("xml", "inline", "")


def _surface_alphabet():
    return st.text(
        alphabet="กขคมยรลวสอabkxz019./-",
        min_size=1,
        max_size=6,
    ).filter(lambda s: s not in ("_", SPACE_GLYPH))


@st.composite
def documents(draw):
    n_sentences = draw(st.integers(1, 5))
    sentences = []
    for _ in range(n_sentences):
        n = draw(st.integers(1, 8))
        tokens = []
        for _ in range(n):
            if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
                tokens.append(space_token())
            else:
                tokens.append(
                    Token(
                        draw(_surface_alphabet()),
                        draw(st.sampled_from(list(PosTag))),
                    )
                )
        sentences.append(Sentence(tuple(tokens)))
    return Document("d", tuple(sentences))


@settings(max_examples=60, deadline=None)
@given(documents())
def test_property_round_trips(doc):
    columnar = write_columnar(doc)
    assert read_columnar(columnar, "d") == doc
    assert write_columnar(read_columnar(columnar, "d")) == columnar
    inline = write_inline(doc.sentences, 4)
    assert tuple(read_inline(inline)) == doc.sentences


def test_random_valid_documents_round_trip_small():
    rng = random.Random(7)
    for _ in range(25):
        doc = corpus_samples.random_document(rng, max_sentences=8, max_tokens=12)
        assert read_columnar(write_columnar(doc), doc.doc_id) == doc
        assert tuple(read_inline(write_inline(doc.sentences, 4))) == doc.sentences


# Bad label strings with the error class and message prefix parse_ne_label
# gives; the POS and clause parsers reject every one of them.
BAD_LABELS = [
    ("", MalformedLabel, "malformed NE label"),
    ("nn", MalformedLabel, "malformed NE label"),
    ("B-PER", MalformedLabel, "malformed NE label"),
    ("B_XYZ", UnknownCategory, "unknown NE category in"),
    ("X_PER", MalformedLabel, "malformed NE label"),
    ("O ", MalformedLabel, "malformed NE label"),
    ("b_cls", MalformedLabel, "malformed NE label"),
]


@pytest.mark.parametrize("text, ne_error, ne_message", BAD_LABELS)
def test_bad_labels_keep_error_class_and_message(text, ne_error, ne_message):
    layers = [
        (parse_pos_tag, UnknownTag, f"unknown POS tag {text!r}"),
        (parse_ne_label, ne_error, f"{ne_message} {text!r}"),
        (parse_clause_label, MalformedLabel, f"malformed clause label {text!r}"),
    ]
    for column, (parse, error, message) in enumerate(layers, start=1):
        with pytest.raises(ValueError) as caught:
            parse(text)
        assert type(caught.value) is error
        assert str(caught.value) == message
        fields = ["w", "NN", "O", "O"]
        fields[column] = text
        with pytest.raises(LineError) as caught:
            read_columnar("a\tNN\tO\tO\n" + "\t".join(fields) + "\n", "d")
        assert (caught.value.line_no, caught.value.reason) == (2, message)


class TestByteOrderMark:
    def test_columnar_reader_strips_it(self):
        text = corpus_samples.fixture_text("glimpse.txt")
        assert read_columnar(BOM + text, "g") == read_columnar(text, "g")

    def test_inline_reader_strips_it(self, glimpse_doc):
        text = write_inline(glimpse_doc.sentences, 4)
        assert read_inline(BOM + text) == read_inline(text)

    def test_only_a_leading_mark_is_stripped(self):
        doc = read_columnar("a\tNN\tO\tO\n" + BOM + "b\tNN\tO\tO\n", "d")
        assert doc.sentences[0].tokens[1].surface == BOM + "b"


_URLS = ["https://lst20.example/a/b", "a/NN", "x/VV/O", "1/2"]


@st.composite
def labelled_sentences(draw):
    tokens = []
    for _ in range(draw(st.integers(1, 8))):
        pos = draw(st.sampled_from(list(PosTag)))
        ne = draw(st.sampled_from(list(NE_LABELS.values())))
        clause = draw(st.sampled_from(list(CLAUSE_LABELS.values())))
        if draw(st.integers(0, 4)) == 0:
            tokens.append(space_token(pos, ne, clause))
        else:
            surface = draw(st.one_of(st.sampled_from(_URLS), _surface_alphabet()))
            tokens.append(Token(surface, pos, ne, clause))
    return Sentence(tuple(tokens))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(labelled_sentences(), min_size=1, max_size=4),
    st.sampled_from([2, 3, 4]),
)
def test_inline_round_trip_at_every_layer_count(sentences, layers):
    text = write_inline(sentences, layers)
    expected = [
        Sentence(
            tuple(
                replace(
                    token,
                    ne=token.ne if layers >= 3 else NE_OUTSIDE,
                    clause=token.clause if layers == 4 else ClauseLabel.O,
                )
                for token in sentence
            )
        )
        for sentence in sentences
    ]
    assert read_inline(text) == expected
    assert inline_layer_count(text) == layers


_COLUMNAR_LINES = [
    "ก\tNN\tO\tO",
    "_\tPU\tB_PER\tI_CLS",
    "http://x.th/a\tNN\tO\tB_CLS",
    "",
    "no tabs here",
    "a\tQQ\tO\tO",
    "\tNN\tO\tO",
    "a\tNN\tB_XYZ\tO",
    "a\tNN\tO\tO\tO",
    "a\tNN\tO\tb_cls",
]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_COLUMNAR_LINES), max_size=30))
def test_permissive_columnar_accounts_for_every_line(lines):
    errors = []
    doc = read_columnar("\n".join(lines), "d", errors=errors)
    parsed = sum(len(sentence) for sentence in doc.sentences)
    assert parsed + len(errors) == sum(1 for line in lines if line)
