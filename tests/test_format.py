import copy
import dataclasses
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_samples
from oracles import read_columnar_lines, read_inline_two_pass
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
    space_token,
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
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.surface = "b"

    def test_replace_runs_the_constructor_checks(self):
        token = Token("a", PosTag.NN)
        with pytest.raises(ValueError, match="^token surface must be non-empty$"):
            replace(token, surface="")
        assert replace(token, surface="b") == Token("b", PosTag.NN)

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
        # format.py binds one slot setter per name in __slots__, in order.
        assert Token.__slots__ == tuple(f.name for f in dataclasses.fields(Token))

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
                replace(
                    token,
                    ne=token.ne if layers >= 3 else NE_OUTSIDE,
                    clause=token.clause if layers == 4 else ClauseLabel.O,
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


def _read_columnar_either_way(read, text, errors):
    try:
        sentences = list(read(text, errors=errors))
    except LineError as error:
        return "raised", (error.line_no, str(error))
    return sentences, [(error.line_no, str(error)) for error in errors or []]


@settings(max_examples=300, deadline=None)
@given(columnar_texts(), st.booleans(), st.integers(0, 40))
def test_read_columnar_matches_line_at_a_time_reference(text, strict, chunk_chars):
    # The reader splits a text into lines a chunk at a time; chunks this
    # small put chunk edges next to every kind of line. Permissive mode
    # gives the same sentences and located errors as the reference, strict
    # mode the same first error or the same sentences.
    def chunked(text, errors):
        return read_columnar(text, "d", errors=errors).sentences

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        got = _read_columnar_either_way(chunked, text, None if strict else [])
    assert got == _read_columnar_either_way(read_columnar_lines, text, None if strict else [])


def _assert_tokens_as_if_constructed(text):
    """Every token ``read_columnar`` builds equals, and hashes as, the one
    ``Token()`` builds from its fields; ``replace`` works on it; and equal
    lines of the call give one object."""
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
        assert replace(token, clause=ClauseLabel.O).clause is ClauseLabel.O
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
    got = _read_either_way(read_inline, text, None if strict else [])
    assert got == _read_either_way(read_inline_two_pass, text, None if strict else [])


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
