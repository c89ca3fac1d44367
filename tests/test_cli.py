import json
import shutil

import pytest

import corpus_samples
from lst20tools import LintReport, lint_document
from lst20tools.cli import format_report, main


@pytest.fixture
def fixture_copy(tmp_path):
    def copy(name):
        dest = tmp_path / name
        shutil.copy(corpus_samples.FIXTURE_DIR / name, dest)
        return dest

    return copy


class TestFormatReport:
    def test_empty_report_text(self):
        assert format_report(LintReport(()), "text") == "0 errors, 0 warnings\n"

    def test_single_error_json(self, glimpse_doc):
        report = lint_document(glimpse_doc)
        payload = json.loads(format_report(report, "json"))
        assert isinstance(payload, list) and len(payload) == len(report.issues)

    def test_text_lines_carry_location_and_code(self, fixture_copy):
        text = corpus_samples.fixture_text("glimpse.txt").replace(
            "B_ORG", "I_ORG", 1
        )
        from lst20tools import read_columnar

        report = lint_document(read_columnar(text, "mutated"))
        rendered = format_report(report, "text", filename="mutated.txt")
        assert "mutated.txt:1:2: error NE_ORPHAN_I" in rendered

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            format_report(LintReport(()), "yaml")


class TestValidateCommand:
    def test_clean_fixture_exits_zero(self, fixture_copy, capsys):
        path = fixture_copy("glimpse.txt")
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_error_fixture_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            corpus_samples.fixture_text("glimpse.txt").replace("B_ORG", "I_ORG", 1),
            encoding="utf-8",
        )
        assert main(["validate", str(bad)]) == 1
        assert "NE_ORPHAN_I" in capsys.readouterr().out

    def test_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_nonexistent_path_exits_two(self, capsys):
        assert main(["validate", "/no/such/file.txt"]) == 2

    def test_json_output(self, fixture_copy, capsys):
        path = fixture_copy("glimpse.txt")
        assert main(["validate", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(entry["file"] == "glimpse.txt" for entry in payload)

    def test_parse_problems_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("no tabs here\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "FORMAT_LINE" in capsys.readouterr().out

    def test_directory_input_lexicographic(self, tmp_path, capsys):
        (tmp_path / "b.txt").write_text("ก\tNN\tO\tO\n", encoding="utf-8")
        (tmp_path / "a.txt").write_text("ข\tNN\tO\tO\n", encoding="utf-8")
        assert main(["validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.index("a.txt") < out.index("b.txt")


    def test_undecodable_file_is_reported_and_skipped(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("ก\tNN\tO\tO\n", encoding="utf-8")
        (tmp_path / "b.txt").write_bytes(b"\xff\tNN\tO\tO\n")
        (tmp_path / "c.txt").write_text("ข\tNN\tO\tO\n", encoding="utf-8")
        assert main(["validate", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("b.txt: 'utf-8' codec can't decode")
        assert "a.txt" in captured.out and "c.txt" in captured.out


class TestByteOrderMark:
    @pytest.fixture
    def pair(self, fixture_copy, tmp_path):
        plain = fixture_copy("glimpse.txt")
        marked = tmp_path / "marked" / "glimpse.txt"
        marked.parent.mkdir()
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        return plain, marked

    def test_stats_ignore_it(self, pair, capsys):
        outputs = []
        for path in pair:
            assert main(["stats", "--json", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_convert_drops_it(self, pair, capsys):
        plain, marked = pair
        assert main(["convert", "--to", "columnar", str(marked)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == plain.read_bytes()
        outputs = []
        for path in pair:
            assert main(["convert", "--to", "inline", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert not outputs[1].startswith("\ufeff")


class TestConvertCommand:
    def test_round_trip_is_byte_identical(self, fixture_copy, tmp_path, capsys):
        source = fixture_copy("glimpse.txt")
        inline = tmp_path / "glimpse.inline"
        back = tmp_path / "glimpse.back"
        assert main(
            ["convert", "--to", "inline", str(source), "-o", str(inline)]
        ) == 0
        assert main(
            [
                "convert", "--from", "inline", "--to", "columnar",
                str(inline), "-o", str(back),
            ]
        ) == 0
        assert back.read_bytes() == source.read_bytes()

    def test_refuses_to_overwrite_input(self, fixture_copy):
        source = fixture_copy("glimpse.txt")
        assert main(["convert", "--to", "inline", str(source), "-o", str(source)]) == 2

    def test_bad_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("broken\n", encoding="utf-8")
        assert main(["convert", "--to", "inline", "--strict", str(bad)]) == 1

    def test_stdout_by_default(self, fixture_copy, capsys):
        source = fixture_copy("phone_call.txt")
        assert main(["convert", "--to", "inline", str(source)]) == 0
        assert capsys.readouterr().out.count("||") == 3


class TestSegmentCommand:
    def test_segments_pos_only_columnar(self, tmp_path, capsys):
        rows = []
        tokens, _, _ = corpus_samples.meeting_particle_paragraph()
        for t in tokens:
            word = "_" if t.is_space else t.surface
            rows.append(f"{word}\t{t.pos.value}\tO\tO")
        source = tmp_path / "raw.txt"
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["segment", str(source)]) == 0
        out = capsys.readouterr().out
        # two sentences: one interior blank line, labels rewritten
        assert out.count("\n\n") == 1
        assert "B_CLS" in out and "E_CLS" in out

    def test_segment_output_validates(self, tmp_path, capsys):
        tokens, _ = corpus_samples.disease_report_paragraph()
        rows = [
            f"{'_' if t.is_space else t.surface}\t{t.pos.value}\tO\tO"
            for t in tokens
        ]
        source = tmp_path / "raw.txt"
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out_path = tmp_path / "seg.txt"
        assert main(["segment", str(source), "-o", str(out_path)]) == 0
        assert main(["validate", str(out_path)]) == 0

    def test_custom_lexicon(self, tmp_path, capsys):
        source = tmp_path / "raw.txt"
        source.write_text(
            "ก\tNN\tO\tO\nกิน\tVV\tO\tO\nเพราะ\tCC\tO\tO\nข\tNN\tO\tO\nหิว\tVV\tO\tO\n",
            encoding="utf-8",
        )
        lexicon = tmp_path / "lex.cfg"
        lexicon.write_text("[subordinate_connectors]\nเพราะ\n", encoding="utf-8")
        assert main(["segment", str(source), "-o", str(tmp_path / "a.txt")]) == 0
        baseline = (tmp_path / "a.txt").read_text(encoding="utf-8")
        assert main(
            [
                "segment", "--lexicon", str(lexicon),
                str(source), "-o", str(tmp_path / "b.txt"),
            ]
        ) == 0
        extended = (tmp_path / "b.txt").read_text(encoding="utf-8")
        assert baseline.count("B_CLS") == 1
        assert extended.count("B_CLS") == 2

    def test_subject_shift_flag(self, tmp_path, capsys):
        tokens, _, _ = corpus_samples.phone_call_paragraph()
        rows = [
            f"{'_' if t.is_space else t.surface}\t{t.pos.value}\tO\tO"
            for t in tokens
        ]
        source = tmp_path / "raw.txt"
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["segment", "--to", "inline", str(source)]) == 0
        merged = capsys.readouterr().out
        assert main(
            ["segment", "--to", "inline", "--subject-shift", "always", str(source)]
        ) == 0
        split = capsys.readouterr().out
        assert split.count("||") >= merged.count("||")


class TestStatsCommand:
    def test_text_counts(self, fixture_copy, capsys):
        path = fixture_copy("phone_call.txt")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sentences\t3" in out
        assert "clauses\t4" in out

    def test_json_counts_with_manifest(self, fixture_copy, tmp_path, capsys):
        path = fixture_copy("glimpse.txt")
        manifest = tmp_path / "genres.tsv"
        manifest.write_text("glimpse\tpolitics\n", encoding="utf-8")
        assert main(
            ["stats", "--json", "--manifest", str(manifest), str(path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["named_entities"] == 4
        assert payload["genres"] == {"politics": 1}
        assert payload["ne"] == {"DES": 1, "DTM": 1, "ORG": 1, "PER": 1}

    def test_include_spaces(self, fixture_copy, capsys):
        path = fixture_copy("glimpse.txt")
        assert main(["stats", "--json", "--include-spaces", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["words"] == payload["counts"]["tokens"]


class TestFramesCommand:
    def test_dump_lists_builtin_frames(self, capsys):
        assert main(["frames", "dump"]) == 0
        out = capsys.readouterr().out
        assert "NN.1: _ VV (AV)" in out
        assert len(out.strip().split("\n")) == 18

    def test_check_reports_frames_and_classes(self, tmp_path, capsys):
        rows = [
            "สุนัข\tNN\tO\tO\nวิ่ง\tVV\tO\tO\nจู๊ด\tAV\tO\tO",
            "แม่\tNN\tO\tO\nตี\tVV\tO\tO\nสุนัข\tNN\tO\tO\nอีก\tAV\tO\tO",
            "หมัด\tNN\tO\tO\nกระโดด\tVV\tO\tO\nจาก\tPS\tO\tO\nสุนัข\tNN\tO\tO\nอีก\tAV\tO\tO",
            "สุนัข\tNN\tO\tO\nตัว\tCL\tO\tO\nต่อไป\tAJ\tO\tO",
        ]
        source = tmp_path / "usages.txt"
        source.write_text("\n\n".join(rows) + "\n", encoding="utf-8")
        assert main(["frames", "check", "--word", "สุนัข", str(source)]) == 0
        out = capsys.readouterr().out
        assert "NN.1" in out and "NN.4" in out
        assert "classes: noun" in out

    def test_check_with_no_occurrences(self, fixture_copy, capsys):
        path = fixture_copy("glimpse.txt")
        assert main(["frames", "check", "--word", "ไม่มี", str(path)]) == 0
        assert "no occurrences" in capsys.readouterr().out

    def test_custom_frame_file(self, tmp_path, capsys):
        frames_file = tmp_path / "frames.txt"
        frames_file.write_text("X.1: _ VV\n", encoding="utf-8")
        assert main(["frames", "dump", "--frames", str(frames_file)]) == 0
        assert capsys.readouterr().out == "X.1: _ VV\n"

    def test_bad_frame_file_exits_two(self, tmp_path):
        frames_file = tmp_path / "frames.txt"
        frames_file.write_text("X.1: _ _\n", encoding="utf-8")
        assert main(["frames", "dump", "--frames", str(frames_file)]) == 2


def test_output_files_use_lf_newlines(fixture_copy, tmp_path):
    source = fixture_copy("glimpse.txt")
    out = tmp_path / "out.txt"
    assert main(["convert", "--to", "inline", str(source), "-o", str(out)]) == 0
    assert b"\r" not in out.read_bytes()
