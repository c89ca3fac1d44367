import json
import random
from dataclasses import replace

import pytest

import corpus_samples
from corpus_samples import load_fixture, tok
from lst20tools import Document, Sentence, space_token, write_columnar
from lst20tools.cli import main
from lst20tools.stats import (
    CorpusCounts,
    document_counts,
    load_manifest,
    tag_frequency,
)
from oracles import column_counts, count_entity_spans
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
