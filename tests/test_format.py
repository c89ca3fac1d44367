import ast
import copy
import pickle
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_samples
import oracles
from corpus_samples import space_token
from oracles import (
    columnar_input_sentences,
    inline_input_sentences,
    read_columnar_lines,
    read_inline_two_pass,
)
from lst20tools import (
    ClauseLabel,
    Document,
    LineError,
    PosTag,
    Sentence,
    Token,
    TokenError,
    WriteError,
    read_columnar,
    read_inline,
    write_columnar,
    write_inline,
)
from lst20tools import format as format_module
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

    def test_fields_are_frozen(self):
        token = Token("a", PosTag.NN)
        with pytest.raises(AttributeError):
            token.surface = "b"

    def test_replace_runs_the_constructor_checks(self):
        token = Token("a", PosTag.NN)
        with pytest.raises(ValueError, match="^token surface must be non-empty$"):
            Token("", token.pos, token.ne, token.clause, token.is_space)
        changed = Token("b", token.pos, token.ne, token.clause, token.is_space)
        assert changed == Token("b", PosTag.NN)

    def test_keyword_construction_equals_positional(self):
        ne = NE_LABELS["B_PER"]
        assert Token(
            surface=SPACE_GLYPH, pos=PosTag.PU, ne=ne, clause=ClauseLabel.I_CLS, is_space=True
        ) == Token(SPACE_GLYPH, PosTag.PU, ne, ClauseLabel.I_CLS, True)

    @pytest.mark.parametrize(
        "clone",
        [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_to_an_equal_token(self, clone):
        token = Token("a", PosTag.NN, NE_LABELS["E_LOC"], ClauseLabel.E_CLS)
        cloned = clone(token)
        assert cloned == token
        assert hash(cloned) == hash(token)

    def test_slots_follow_the_field_order(self):
        # _Frozen binds one slot setter per name in __slots__, in order.
        assert Token.__slots__ == Token._fields

    def test_sentence_must_be_non_empty(self):
        with pytest.raises(ValueError):
            Sentence(())


class TestReadColumnar:
    def test_glimpse_shape(self, glimpse_doc):
        assert len(glimpse_doc.sentences) == 3
        assert [len(s.tokens) for s in glimpse_doc.sentences] == [9, 8, 10]
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

    @pytest.mark.parametrize("surface", [BOM + "ab", BOM])
    def test_leading_byte_order_mark_is_unrepresentable(self, surface):
        # The reader strips one leading BOM, so it would read back "ab", or
        # reject an empty word field.
        doc = Document("d", (Sentence((Token(surface, PosTag.NN),)),))
        with pytest.raises(WriteError, match="U\\+FEFF"):
            write_columnar(doc)

    def test_byte_order_mark_after_the_start_round_trips(self):
        doc = Document(
            "d", (Sentence((Token("a", PosTag.NN), Token(BOM + "b", PosTag.NN))),)
        )
        assert read_columnar(write_columnar(doc), "d") == doc


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
        assert [len(s.tokens) for s in read_inline(text)] == [1, 1, 1]

    def test_trailing_material_without_terminator(self):
        assert [len(s.tokens) for s in read_inline("ก/NN || ข/VV")] == [1, 1]

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

    @pytest.mark.parametrize("surface", [" a", " ", "\u3000ก"])
    def test_leading_white_space_in_surface_rejected(self, surface):
        # The reader strips every chunk, so " a" would read back as "a".
        sentence = Sentence((Token(surface, PosTag.NN),))
        with pytest.raises(WriteError, match="white space"):
            write_inline([sentence], 2)

    def test_trailing_white_space_in_surface_round_trips(self):
        sentence = Sentence((Token("a ", PosTag.NN),))
        assert read_inline(write_inline([sentence], 2)) == [sentence]

    def test_glyph_surface_on_word_token_rejected(self):
        sentence = Sentence((Token(SPACE_GLYPH, PosTag.NN),))
        with pytest.raises(WriteError):
            write_inline([sentence], 2)

    @pytest.mark.parametrize("surface", [BOM + "ab", BOM])
    def test_leading_byte_order_mark_is_unrepresentable(self, surface):
        sentence = Sentence((Token(surface, PosTag.NN),))
        with pytest.raises(WriteError, match="U\\+FEFF"):
            write_inline([sentence], 2)

    def test_byte_order_mark_after_the_start_round_trips(self):
        sentences = [
            Sentence((Token("a", PosTag.NN),)),
            Sentence((Token(BOM + "b", PosTag.NN),)),
        ]
        assert read_inline(write_inline(sentences, 2)) == sentences

    def test_read_inverts_write(self, phone_call_doc):
        text = write_inline(phone_call_doc.sentences, 4)
        assert tuple(read_inline(text)) == phone_call_doc.sentences


class TestConvert:
    def test_columnar_inline_columnar_is_byte_identity(self):
        original = corpus_samples.fixture_text("glimpse.txt")
        inline = write_inline(read_columnar(original).sentences)
        back = write_columnar(Document("doc", tuple(read_inline(inline))))
        assert back == original


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
                Token(
                    token.surface,
                    token.pos,
                    ne=token.ne if layers >= 3 else NE_OUTSIDE,
                    clause=token.clause if layers == 4 else ClauseLabel.O,
                    is_space=token.is_space,
                )
                for token in sentence.tokens
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
    "ก\tNN\tO\tO\r",
    "a\tQQ\tO\tO\r",
]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_COLUMNAR_LINES), max_size=30))
def test_permissive_columnar_accounts_for_every_line(lines):
    errors = []
    doc = read_columnar("\n".join(lines), "d", errors=errors)
    parsed = sum(len(sentence.tokens) for sentence in doc.sentences)
    assert parsed + len(errors) == sum(1 for line in lines if line)
    # Each line reads as it does alone, and each bad line is reported under
    # its own number, however often it repeats.
    alone_tokens, alone_errors = [], []
    for line_no, line in enumerate(lines, start=1):
        line_errors = []
        alone = read_columnar(line, "d", errors=line_errors)
        alone_tokens += [token for sentence in alone.sentences for token in sentence.tokens]
        alone_errors += [(line_no, error.reason) for error in line_errors]
    assert [token for sentence in doc.sentences for token in sentence.tokens] == alone_tokens
    assert [(error.line_no, error.reason) for error in errors] == alone_errors


_READER_LINES = [
    "ก\tNN\tO\tO",
    "_\tPU\tB_PER\tI_CLS",
    "http://x.th/a\tNN\tO\tB_CLS",
    "",
    "\r",
    "no tabs here",
    "a\tQQ\tO\tO",
    "\tNN\tO\tO",
    "a\tNN\tB_XYZ\tO",
    "a\tNN\tX_PER\tO",
    "a\tNN\tO\tO\tO",
    "a\tNN\tO\tb_cls",
    "a\tNN\tO\tO\r",  # with a CRLF ending it ends in two CRs: still an error
    "\r\tNN\tO\tO",  # the word is a lone CR
    "_\tQQ\tO\tO",
    "_\tNN\tO\tO",
    f"{SPACE_GLYPH}\tNN\tO\tO",  # a literal glyph word, not a space
    "a\t\t\t",
    "a\tNN\tO",
]


@st.composite
def columnar_texts(draw, lines=_READER_LINES, endings=("", "\r")):
    """Good, bad and blank lines with LF or CRLF endings, runs of 1-4 blank
    lines, an optional leading BOM and 0-3 trailing newlines; or only the
    given ``lines`` and ``endings``."""
    runs = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(lines), st.sampled_from(endings)),
                st.lists(st.sampled_from(endings), min_size=1, max_size=4),
            ),
            max_size=25,
        )
    )
    lines = []
    for run in runs:
        lines += ["".join(run)] if isinstance(run, tuple) else run
    bom = draw(st.sampled_from(["", BOM]))
    return bom + "\n".join(lines) + "\n" * draw(st.integers(0, 3))


def _line_error(error):
    """A LineError as the oracle gives one: its line number and reason, which
    its message is made of."""
    assert str(error) == f"line {error.line_no}: {error.reason}"
    return error.line_no, error.reason


def _read_columnar_either_way(read, text, errors):
    try:
        sentences = list(read(text, errors=errors))
    except LineError as error:
        return "raised", _line_error(error)
    return sentences, [_line_error(error) for error in errors or []]


def _oracle_either_way(read, text, strict):
    """What an oracle reader reads of ``text``, as the two helpers around it give
    a reader's: its records and errors, or under ``strict`` its first error."""
    errors = []
    records = read(text, errors)
    if strict and errors:
        return "raised", errors[0]
    return records, errors


def _unnumbered(read):
    """An oracle reader whose records leave out their input numbers."""
    return lambda text, errors: [record[1:] for record in read(text, errors)]


def _label_texts(entries):
    """Record label entries as an oracle reader gives them: each its three label texts."""
    return [tuple(map(str, entry[:3])) for entry in entries]


def _token_rows(sentences, space_word):
    """Token sentences as an oracle reader gives records, less their numbers:
    words (``space_word`` for white space), label texts and space flags."""
    return [
        (
            [space_word if t.is_space else t.surface for t in s.tokens],
            [(t.pos.text, t.ne.text, t.clause.text) for t in s.tokens],
            [t.is_space for t in s.tokens],
        )
        for s in sentences
    ]


@settings(max_examples=300, deadline=None)
@given(columnar_texts(), st.booleans(), st.integers(0, 40))
def test_read_columnar_matches_line_at_a_time_reference(text, strict, chunk_chars):
    # The reader splits a text into lines a chunk at a time; chunks this
    # small put chunk edges next to every kind of line. Permissive mode
    # gives the same sentences and located errors as the reference, strict
    # mode the same first error or the same sentences.
    def chunked(text, errors):
        return _token_rows(read_columnar(text, "d", errors=errors).sentences, "_")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        got = _read_columnar_either_way(chunked, text, None if strict else [])
    assert got == _oracle_either_way(_unnumbered(read_columnar_lines), text, strict)


@settings(max_examples=300, deadline=None)
@given(columnar_texts(), st.booleans(), st.integers(0, 40))
def test_columnar_records_are_the_sentences_read_by_input_number(text, strict, chunk_chars):
    # Each record is one sentence the line-at-a-time reference reads, as its
    # words, labels and space flags, numbered by its input sentence, a run of
    # bad lines included; the errors, or the first one raised, are the
    # reference's.
    def records(text, errors):
        return [
            (number, words, _label_texts(entries), spaces)
            for number, words, entries, spaces in format_module.columnar_records(text, errors)
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        got = _read_columnar_either_way(records, text, None if strict else [])
    assert got == _oracle_either_way(read_columnar_lines, text, strict)
    # The oracle numbers a sentence as its input sentence, read alone.
    alone = [
        (number, *record[1:])
        for number, block in enumerate(columnar_input_sentences(text))
        for record in read_columnar_lines(block, [])
    ]
    assert alone == read_columnar_lines(text, [])


def _assert_tokens_as_if_constructed(text):
    """Every token ``read_columnar`` builds equals, and hashes as, the one
    ``Token()`` builds from its fields; a copy with a new clause label builds;
    and equal lines of the call give one object."""
    errors = []
    doc = read_columnar(text, "d", errors=errors)
    bad = {error.line_no for error in errors}
    lines = [
        raw
        for line_no, raw in enumerate(text.removeprefix(BOM).split("\n"), start=1)
        if line_no not in bad and raw not in ("", "\r")
    ]
    tokens = [token for sentence in doc.sentences for token in sentence.tokens]
    assert len(tokens) == len(lines)
    first = {}
    for raw, token in zip(lines, tokens):
        built = Token(token.surface, token.pos, token.ne, token.clause, token.is_space)
        assert built == token and hash(built) == hash(token)
        relabelled = Token(token.surface, token.pos, token.ne, ClauseLabel.O, token.is_space)
        assert relabelled.clause is ClauseLabel.O
        assert first.setdefault(raw, token) is token


@settings(max_examples=200, deadline=None)
@given(columnar_texts())
def test_read_tokens_are_as_if_constructed(text):
    _assert_tokens_as_if_constructed(text)


@pytest.mark.parametrize("name", sorted(p.name for p in corpus_samples.FIXTURE_DIR.glob("*.txt")))
def test_fixture_tokens_are_as_if_constructed(name):
    _assert_tokens_as_if_constructed(corpus_samples.fixture_text(name))


_INLINE_PIECES = [
    "|",
    "||",
    " ",
    "\n",
    SPACE_GLYPH,
    "ก/NN",
    "a/VV/B_PER",
    "x/NN/O/B_CLS",
    "https://x.th/a/NN/O",
    "a/QQ",
    "a/NN/b_cls",
    "a\tb/NN",
    "/",
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_INLINE_PIECES), st.text(max_size=4)), max_size=30)
)
def test_permissive_inline_accounts_for_every_sentence(pieces):
    text = "".join(pieces)
    errors = []
    sentences = read_inline(text, errors=errors)
    blocks = [
        block
        for block in text.removeprefix(BOM).split("||")
        if any(chunk.strip() for chunk in block.split("|"))
    ]
    assert len(sentences) + len(errors) == len(blocks)
    # Each sentence reads as its block does alone, and each error is the
    # block's own, under the block's index. The reader strips one leading
    # BOM, so prefixing one reads the block verbatim.
    alone_sentences, alone_errors = [], []
    for index, block in enumerate(blocks):
        block_errors = []
        alone_sentences += read_inline(BOM + block, errors=block_errors)
        alone_errors += [(index, error.token, error.reason) for error in block_errors]
    assert sentences == alone_sentences
    assert [(error.sentence, error.token, error.reason) for error in errors] == alone_errors


# One word at every layer count, drawn often, so that a chunk seen at one
# count comes back inside a sentence of another; and bad surfaces at each.
_LAYERED_CHUNKS = ["a/NN", "a/NN/O", "a/NN/O/O"]
_LAYERED_PIECES = _INLINE_PIECES + [
    "a/VV/B_PER/B_CLS",
    "a\tb/NN/O",
    "a\tb/NN/O/O",
    "/NN/O",
    "/NN/O/O",
    "x/NN/O/B_CLS/O",
]


def _read_either_way(read, text, errors):
    try:
        sentences = read(text, errors=errors)
    except TokenError as error:
        return "raised", (error.sentence, error.token, error.reason)
    found = [(error.sentence, error.token, error.reason) for error in errors or []]
    return sentences, found


def _inline_token_rows(text, errors):
    return _token_rows(read_inline(text, errors=errors), SPACE_GLYPH)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(_LAYERED_CHUNKS),
                st.sampled_from(_LAYERED_PIECES),
                st.text(max_size=4),
            ),
            st.sampled_from(["", " | ", " | ", " ||\n"]),
        ),
        max_size=30,
    ),
    st.booleans(),
)
def test_read_inline_matches_two_pass_reference(pieces, strict):
    # Most pieces are followed by a separator, so that whole chunks recur.
    text = "".join(piece + separator for piece, separator in pieces)
    got = _read_either_way(_inline_token_rows, text, None if strict else [])
    assert got == _oracle_either_way(_unnumbered(read_inline_two_pass), text, strict)


# Chunks at the edges of the layer-count test: an empty surface at each
# count, a surface of slashes, and the glyph alone, as a surface and beside
# chunks of each count.
_LAYER_EDGES = ["/NN", "/NN/O", "/NN/O/O", "//NN", "//NN/O", "a//NN/O/O", SPACE_GLYPH]
_LAYER_EDGES += [f"{SPACE_GLYPH}/NN/O", "a/NN", "a/NN/O", "a/NN/O/O", "a/O", "a/NN/B_CLS"]


def test_read_inline_matches_two_pass_reference_at_layer_edges():
    # Each edge chunk alone and beside each other one, a sentence apiece.
    lines = [*_LAYER_EDGES, *map(" | ".join, product(_LAYER_EDGES, repeat=2))]
    text = "".join(line + " ||\n" for line in lines)
    got = _read_either_way(_inline_token_rows, text, [])
    assert got == _oracle_either_way(_unnumbered(read_inline_two_pass), text, False)


_INLINE_DAMAGE = (
    "bad-tag", "drop-layer", "add-layer", "empty-word", "tab-in-word", "newline-in-word",
    "bar-in-word", "bare-glyph", "glyph-word", "url", "bom", "empty-sentence",
)


@st.composite
def damaged_inline_texts(draw):
    """A random document's inline text at 2, 3 or 4 layers with chunks damaged
    as files come: an unknown tag, a layer dropped or added, an empty word, a
    tab, newline or ``|`` in a word, a bare glyph or a glyph word, a URL
    surface with extra slashes, a BOM, a sentence with no chunk; then maybe a
    leading BOM. Random surfaces hold slashes too."""
    rng = draw(st.randoms(use_true_random=False))
    doc = corpus_samples.random_document(rng, max_sentences=5, max_tokens=6)
    layers = draw(st.sampled_from([2, 3, 4]))
    lines = write_inline(doc.sentences, layers).splitlines()
    sentences = [line.removesuffix(" ||").split(" | ") for line in lines]
    for kind in draw(st.lists(st.sampled_from(_INLINE_DAMAGE), max_size=6)):
        chunks = sentences[draw(st.integers(0, len(sentences) - 1))]
        at = draw(st.integers(0, len(chunks) - 1))
        word, *tags = chunks[at].rsplit("/", layers - 1)
        tail = "".join("/" + tag for tag in tags)
        edits = {
            "bad-tag": "/".join([word, "QQ", *tags[1:]]),
            "drop-layer": word + tail.rpartition("/")[0],
            "add-layer": chunks[at] + "/O",
            "empty-word": tail,
            "tab-in-word": word + "\tx" + tail,
            "newline-in-word": "x\n" + word + tail,
            "bar-in-word": word + "|x" + tail,
            "glyph-word": SPACE_GLYPH + tail,
            "url": "https://www.x.co.th/news/1/" + word + tail,
            "bom": BOM + chunks[at],
        }
        if kind in edits:
            chunks[at] = edits[kind]
        else:
            chunks.insert(at, {"bare-glyph": SPACE_GLYPH, "empty-sentence": "||"}[kind])
    text = "\n".join(" | ".join(chunks) + " ||" for chunks in sentences)
    return draw(st.sampled_from(["", BOM])) + text


@settings(max_examples=300, deadline=None)
@given(damaged_inline_texts(), st.booleans())
def test_inline_records_are_the_sentences_read_by_input_number(text, strict):
    # Each record is one sentence the two-pass reference reads, as its words,
    # labels and space flags, numbered by its input sentence, a malformed one
    # included; its labels are the table's own entry. The errors, or the
    # first one raised, are the reference's.
    def records(text, errors):
        found = []
        for number, words, entries, spaces in format_module.inline_records(text, errors):
            for entry in entries:
                assert entry is format_module._TAG_COLUMNS["\t".join(map(str, entry[:3]))]
            found.append((number, words, _label_texts(entries), spaces))
        return found

    got = _read_either_way(records, text, None if strict else [])
    assert got == _oracle_either_way(read_inline_two_pass, text, strict)
    # The oracle numbers a sentence as its input sentence, read alone.
    alone = [
        (number, *record[1:])
        for number, sentence in enumerate(inline_input_sentences(text))
        for record in read_inline_two_pass(sentence, [])
    ]
    assert alone == read_inline_two_pass(text, [])


# Pieces of inline text around its separators: bars in runs of one to
# three, white space, the glyph and chunks.
_SPLIT_PIECES = st.one_of(
    st.sampled_from(["|", "||", "|||", " ", "\t", "\n", "\r\n", SPACE_GLYPH, "a/NN", "ข/VV/O"]),
    st.text(alphabet=["|", " ", "\n", "a", "/", SPACE_GLYPH], max_size=5),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_SPLIT_PIECES, max_size=30))
def test_sentences_are_found_as_by_splitting_the_whole_text(pieces):
    # One "||" at a time, the split finds the sentences and chunks that
    # splitting the whole text up front finds.
    text = "".join(pieces)
    assert list(format_module._split_sentences(text)) == oracles.inline_sentence_chunks(text)


@st.composite
def split_texts(draw, texts):
    """A text of ``texts``, maybe with a BOM put in, and its pieces: cut
    anywhere, at either end or twice at one place (an empty piece), inside a
    CRLF pair, between two bars of a ``||`` or ``|||`` and on either side of
    a BOM."""
    text = draw(texts)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + BOM + text[at:]
    inside = [i for i in range(1, len(text)) if text[i - 1 : i + 1] in ("\r\n", "||")]
    inside += [i + side for i, c in enumerate(text) if c == BOM for side in (0, 1)]
    anywhere = st.integers(0, len(text))
    cuts = sorted(draw(st.lists(st.one_of(anywhere, st.sampled_from(inside)) if inside else anywhere, max_size=12)))
    return text, [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]


def _read_or_raised(read, text, strict):
    errors = None if strict else []
    try:
        records = list(read(text, errors))
    except (LineError, TokenError) as error:
        return "raised", str(error)
    return records, [str(error) for error in errors or []]


_BARS_TEXTS = st.lists(_SPLIT_PIECES, max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("columnar"), split_texts(columnar_texts())),
        st.tuples(st.just("inline"), split_texts(damaged_inline_texts())),
        st.tuples(st.just("inline"), split_texts(_BARS_TEXTS)),
    ),
    st.booleans(),
)
def test_pieces_read_as_the_whole_text(source, strict):
    # Where a text is cut into pieces, as a file is decoded a block at a
    # time, changes no record, error or tally of the readers that take it.
    informat, (text, pieces) = source
    if informat == "columnar":
        read = format_module.columnar_records
        assert format_module.tally_columnar(iter(pieces)) == format_module.tally_columnar(text)
    else:
        read = format_module.inline_records
        assert inline_layer_count(iter(pieces)) == inline_layer_count(text)
    assert _read_or_raised(read, iter(pieces), strict) == _read_or_raised(read, text, strict)


def test_oracles_use_no_private_name_of_the_package():
    # An oracle built on the package's private helpers shares their faults,
    # so a test against it could not catch them.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lst20tools")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


@pytest.mark.parametrize(
    "text, token",
    [("c/NN | a\tb/NN | d/NN/O ||", 0), ("c/NN | a\tb/NN | d/QQ ||", 2)],
    ids=["counts-differ", "fits-no-count"],
)
def test_mismatch_after_a_raising_token_is_reported(text, token):
    # Token 1 has a tab in its surface, but the layer counts do not agree:
    # the sentence reports the mismatch, at the first chunk that fits no
    # count, or at 0 when each fits one.
    with pytest.raises(TokenError) as caught:
        read_inline(text)
    error = caught.value
    assert (error.sentence, error.token, error.reason) == (
        0, token, "inconsistent or missing annotation layers",
    )


def test_chunk_read_at_three_layers_does_not_fit_four():
    errors = []
    text = "a/NN/O ||\nb/VV/O/O | a/NN/O ||\na/NN/O/O ||\n"
    sentences = read_inline(text, errors=errors)
    assert [(error.sentence, error.reason) for error in errors] == [
        (1, "inconsistent or missing annotation layers"),
    ]
    assert [[token.surface for token in s.tokens] for s in sentences] == [["a"], ["a"]]
    assert sentences[0].tokens[0] == sentences[1].tokens[0]


def _columnar_sentences(text):
    return read_columnar(text, "d").sentences


@pytest.mark.parametrize(
    "read, text",
    [
        (_columnar_sentences, "ก\tNN\tO\tO\nข\tVV\tO\tO\n\nก\tNN\tO\tO\n"),
        (read_inline, "ก/NN | ข/VV ||\nก/NN ||\n"),
    ],
    ids=["columnar", "inline"],
)
def test_equal_lines_share_one_token(read, text):
    first, again = read(text), read(text)
    # One call builds one token per distinct line or chunk ...
    assert first[1].tokens[0] is first[0].tokens[0]
    # ... and shares none with another call.
    assert again[0].tokens[0] == first[0].tokens[0]
    assert again[0].tokens[0] is not first[0].tokens[0]
