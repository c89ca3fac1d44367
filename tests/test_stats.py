import json
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus_samples
from corpus_samples import load_fixture, tok
from lst20tools import Document, Sentence, read_columnar, space_token, write_columnar
from lst20tools import format as format_module
from lst20tools.cli import main
from lst20tools.format import SPACE_GLYPH, tally_columnar
from lst20tools.stats import (
    CorpusCounts,
    document_counts,
    load_manifest,
    tag_frequency,
    tally_counts,
)
from oracles import column_counts, count_entity_spans
from test_format import _READER_LINES, columnar_texts
from lst20tools.schema import ClauseLabel, PosTag, parse_ne_label


class TestCorpusCounts:
    def test_empty_corpus_is_all_zero(self):
        assert CorpusCounts() == CorpusCounts(0, 0, 0, 0, 0, 0)
        assert tag_frequency([], "pos") == {} and tag_frequency([], "ne") == {}
        counts = document_counts(Document("empty"))
        assert counts == CorpusCounts(documents=1)
        assert counts.pos == {} and counts.ne == {}

    def test_three_sentence_fixture(self, phone_call_doc):
        counts = document_counts(phone_call_doc)
        assert counts.sentences == 3
        assert counts.clauses == 4
        assert counts.named_entities == 0
        assert counts.tokens == 27
        assert counts.words == 26

    def test_glimpse_hand_tally(self, glimpse_doc):
        counts = document_counts(glimpse_doc)
        assert counts.documents == 1
        assert counts.sentences == 3
        assert counts.clauses == 5
        assert counts.named_entities == 4
        assert counts.tokens == 27
        assert counts.words == 24
        assert counts.ne == {"ORG": 1, "DTM": 1, "DES": 1, "PER": 1}
        assert sum(counts.pos.values()) == counts.tokens

    def test_include_spaces_flag(self, glimpse_doc):
        counts = document_counts(glimpse_doc, include_spaces=True)
        assert counts.words == 27

    def test_additivity_over_documents(self):
        docs = [load_fixture(name) for name in corpus_samples.GOLD_FIXTURES]
        whole = document_counts(
            Document("all", tuple(s for doc in docs for s in doc.sentences))
        )
        summed = CorpusCounts()
        for doc in docs:
            summed = summed + document_counts(doc)
        assert summed == replace(whole, documents=len(docs))
        assert summed.pos == whole.pos and summed.ne == whole.ne

    def test_entity_count_matches_span_extraction_oracle(self):
        rng = random.Random(17)
        for _ in range(50):
            doc = corpus_samples.random_document(rng, max_sentences=6, max_tokens=15)
            expected = sum(
                count_entity_spans([str(t.ne) for t in sentence.tokens])
                for sentence in doc.sentences
            )
            assert document_counts(doc).named_entities == expected

    @pytest.mark.parametrize("include_spaces", [False, True])
    def test_fold_matches_column_oracle(self, include_spaces):
        rng = random.Random(41)
        for _ in range(100):
            doc = corpus_samples.random_document(rng, max_sentences=8, max_tokens=30)
            counts = document_counts(doc, include_spaces)
            expected, pos, ne = column_counts(write_columnar(doc), include_spaces)
            assert counts.to_dict() == expected
            assert counts.pos == pos
            assert counts.ne == ne

    @pytest.mark.parametrize("include_spaces", [False, True])
    @pytest.mark.parametrize(
        "sentences",
        [
            [[space_token(ne=parse_ne_label("B_PER")), tok("ก", "NN")]],
            [[space_token(clause=ClauseLabel.B_CLS), tok("ก", "VV", clause="E_CLS")]],
            [],
            [[tok("ก", "NN", "B_PER", "B_CLS")], [tok("ข", "VV")]],
        ],
        ids=["space-with-B_PER", "space-with-B_CLS", "no-sentences", "one-token-sentences"],
    )
    def test_edge_cases_match_column_oracle(self, sentences, include_spaces):
        doc = Document("d", tuple(Sentence(tuple(tokens)) for tokens in sentences))
        counts = document_counts(doc, include_spaces)
        expected, pos, ne = column_counts(write_columnar(doc), include_spaces)
        assert counts.to_dict() == expected
        assert counts.pos == pos
        assert counts.ne == ne


class TestGenreHistogram:
    """``stats`` counts documents per genre from the ``--manifest`` table."""

    def _genres(self, tmp_path, capsys, manifest=None):
        doc = Document("d", (Sentence((tok("ก", "NN"),)),))
        argv = ["stats", "--json"]
        for name in ("a.txt", "b.txt", "c.txt"):
            (tmp_path / name).write_text(write_columnar(doc), encoding="utf-8")
            argv.append(str(tmp_path / name))
        if manifest is not None:
            table = tmp_path / "genres.tsv"
            table.write_text(manifest, encoding="utf-8")
            argv += ["--manifest", str(table)]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["genres"]

    def test_counts_documents_per_genre(self, tmp_path, capsys):
        # A file is looked up by its name first, then by its stem.
        manifest = "a.txt\tpolitics\nb\tpolitics\nc\tsports\nc.txt\tcrime\n"
        assert self._genres(tmp_path, capsys, manifest) == {"crime": 1, "politics": 2}

    def test_missing_genre_is_unknown(self, tmp_path, capsys):
        assert self._genres(tmp_path, capsys) == {"unknown": 3}
        assert self._genres(tmp_path, capsys, "a\tpolitics\n") == {
            "politics": 1, "unknown": 2,
        }


class TestTagFrequency:
    def test_empty(self):
        assert tag_frequency([], "pos") == {}

    def test_pos_tally_on_company_fixture(self, company_doc):
        histogram = tag_frequency([company_doc], "pos")
        assert histogram == {
            "CC": 2, "NN": 4, "PU": 2, "VV": 5, "AX": 1, "PS": 1, "AV": 2,
        }
        assert sum(histogram.values()) == 17

    def test_ne_tally_counts_entities(self, glimpse_doc):
        histogram = tag_frequency([glimpse_doc], "ne")
        assert histogram == {"ORG": 1, "DTM": 1, "DES": 1, "PER": 1}

    def test_pos_bins_are_within_the_tagset(self):
        rng = random.Random(29)
        doc = corpus_samples.random_document(rng, max_sentences=10, max_tokens=20)
        histogram = tag_frequency([doc], "pos")
        assert set(histogram) <= {t.value for t in PosTag}

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            tag_frequency([], "clause")


class TestManifest:
    def test_parse(self):
        genres = load_manifest("T001\tpolitics\nT002\tsports\n")
        assert genres == {"T001": "politics", "T002": "sports"}

    def test_comments_and_blanks(self):
        assert load_manifest("# c\n\nT001\tcrime\n") == {"T001": "crime"}

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            load_manifest("T001\tpolitics\nbroken\n")


def test_space_tokens_do_not_count_as_words():
    sentence = Sentence((tok("ก", "NN"), space_token(), tok("ข", "NN")))
    counts = document_counts(Document("d", (sentence,)))
    assert counts.words == 2 and counts.tokens == 3


# A clean columnar file is counted from its lines (format.tally_columnar and
# stats.tally_counts); any other is read into a Document and counted by
# document_counts, the reference these tests hold the line tally to.


def _assert_tally_is_the_reference(text):
    """The tally is declined exactly when the reader reports an error, and
    otherwise gives the reference's counts."""
    errors = []
    doc = read_columnar(text, "d", errors=errors)
    tally = tally_columnar(text)
    assert (tally is None) == bool(errors)
    if tally is not None:
        for include_spaces in (False, True):
            assert tally_counts(tally, include_spaces) == document_counts(doc, include_spaces)


def _assert_stats_as_the_reference_path(path, capsys):
    """``stats`` gives the same output bytes, stderr and exit code as it does
    with the line tally switched off, so that every file takes the reference
    path."""
    out = path.with_suffix(".out")
    for argv in (["--json"], ["--json", "--include-spaces"], ["--strict"]):
        runs = []
        for tally in (tally_columnar, lambda text: None):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(format_module, "tally_columnar", tally)
                code = main(["stats", *argv, str(path), "-o", str(out)])
            runs.append((out.read_bytes(), capsys.readouterr().err, code))
        assert runs[0] == runs[1], argv


# The reader's lines that the tally takes, so that a text of them alone is
# clean: without these, few texts drawn would be.
_CLEAN_LINES = [line for line in _READER_LINES if tally_columnar(line)]
_TEXTS = st.one_of(columnar_texts(), columnar_texts(_CLEAN_LINES, endings=("",)))


@settings(max_examples=300, deadline=None)
@given(_TEXTS, st.integers(0, 40))
def test_tally_matches_document_counts(text, chunk_chars):
    # Chunks this small put chunk edges next to blank lines and blank runs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        _assert_tally_is_the_reference(text)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_TEXTS)
def test_stats_output_matches_the_reference_path(tmp_path, capsys, text):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    _assert_stats_as_the_reference_path(path, capsys)


_HAND_CASES = {
    "empty": "",
    "only blank lines": "\n\n\n",
    "space word": "ก\tNN\tO\tB_CLS\n_\tPU\tO\tI_CLS\nข\tVV\tO\tE_CLS\n\n_\tPU\tB_PER\tO\n",
    "glyph word": f"{SPACE_GLYPH}\tNN\tO\tO\n",
    "empty word": "ก\tNN\tO\tO\n\tNN\tO\tO\n",
    "3 fields": "ก\tNN\tO\n",
    "5 fields": "ก\tNN\tO\tO\tO\n",
    "bad tag": "ก\tQQ\tO\tO\n",
    "CRLF": "ก\tNN\tO\tB_CLS\r\n_\tPU\tO\tE_CLS\r\n\r\nข\tVV\tO\tO\r",
    "CR in a space word": "_\r\tPU\tO\tO\n",
    "two CRs at a line end": "ก\tNN\tO\tO\r\r\n",
}


def test_a_crlf_file_is_tallied_as_its_lf_file():
    lf = _HAND_CASES["space word"]
    tally = tally_columnar(lf)
    assert tally is not None and tally_columnar(lf.replace("\n", "\r\n")) == tally


@pytest.mark.parametrize("text", _HAND_CASES.values(), ids=_HAND_CASES.keys())
def test_hand_cases_match_the_reference_path(tmp_path, capsys, text):
    _assert_tally_is_the_reference(text)
    path = tmp_path / "d.txt"
    path.write_text(text, encoding="utf-8")
    _assert_stats_as_the_reference_path(path, capsys)


def test_space_word_counts_as_a_word_only_when_asked():
    tally = tally_columnar(_HAND_CASES["space word"])
    assert tally_counts(tally).words == 2 and tally_counts(tally, True).words == 4
    assert tally_counts(tally_columnar(_HAND_CASES["glyph word"])).words == 1


def test_clean_files_are_counted_without_reading_a_document(tmp_path, monkeypatch, capsys):
    # Every fixture is clean, so no stats call may fall back to the reader.
    names = sorted(path.name for path in corpus_samples.FIXTURE_DIR.glob("*.txt"))
    expected = sum(map(document_counts, map(load_fixture, names)), CorpusCounts())
    for name in names:
        (tmp_path / name).write_text(corpus_samples.fixture_text(name), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("a clean file was read into a Document")

    monkeypatch.setattr(format_module, "read_columnar", refuse)
    assert main(["stats", "--json", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == expected.to_dict() and payload["pos"] == dict(expected.pos)
    assert payload["ne"] == dict(expected.ne) and payload["format_errors"] == 0
