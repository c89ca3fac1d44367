import gc
import hashlib
import json
import os
import random
import shutil
import tracemalloc
from pathlib import Path

import pytest

import corpus_samples
from lst20tools import (
    Document,
    LineError,
    LintIssue,
    LintReport,
    Severity,
    TokenError,
    lint_document,
    read_columnar,
    read_inline,
    write_columnar,
)
from lst20tools.cli import _format_issue, _json_entries, format_report, main
from lst20tools.format import inline_layer_count


@pytest.fixture
def fixture_copy(tmp_path):
    def copy(name):
        dest = tmp_path / name
        shutil.copy(corpus_samples.FIXTURE_DIR / name, dest)
        return dest

    return copy


class TestFormatReport:
    def test_empty_report_text(self):
        assert format_report(LintReport(())) == "0 errors, 0 warnings\n"

    def test_text_lines_carry_location_and_code(self, fixture_copy):
        text = corpus_samples.fixture_text("glimpse.txt").replace(
            "B_ORG", "I_ORG", 1
        )
        report = lint_document(read_columnar(text, "mutated"))
        rendered = format_report(report, filename="mutated.txt")
        assert "mutated.txt:1:2: error NE_ORPHAN_I" in rendered


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


class TestBadInputFile:
    """A bad input file is reported as ``name: reason`` with exit 1."""

    @pytest.fixture
    def pair(self, tmp_path):
        good = tmp_path / "a.txt"
        good.write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        bad = tmp_path / "b.txt"
        bad.write_bytes(b"\xff\tNN\tO\tO\n")
        return good, bad

    @pytest.mark.parametrize(
        "argv",
        [["convert", "--to", "inline"], ["segment"], ["frames", "check", "--word", "ก"]],
    )
    def test_single_input_commands_name_the_file(self, pair, argv, capsys):
        good, bad = pair
        assert main([*argv, str(good)]) == 0
        capsys.readouterr()
        assert main([*argv, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("b.txt: 'utf-8' codec can't decode")
        assert captured.out == ""

    def test_stats_counts_the_other_files(self, pair, capsys):
        good, _ = pair
        assert main(["stats", "--json", str(good.parent)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("b.txt: 'utf-8' codec can't decode")
        assert json.loads(captured.out)["counts"]["documents"] == 1

    @pytest.fixture
    def nest(self, tmp_path):
        """A directory holding a clean file and a subdirectory whose one file,
        if it were read, would be a FORMAT_LINE error."""
        (tmp_path / "train").mkdir()
        (tmp_path / "train" / "a.txt").write_text("ก\tNN\tO\tQQ\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        return tmp_path

    def test_validate_reports_a_subdirectory(self, nest, capsys):
        assert main(["validate", "--json", str(nest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "train: is a directory; subdirectories are not read\n"
        # b.txt's one-token clause is a CLS_SINGLETON warning; a.txt is not read.
        assert [entry["file"] for entry in json.loads(captured.out)] == ["b.txt"]

    def test_stats_reports_a_subdirectory(self, nest, capsys):
        assert main(["stats", "--json", str(nest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "train: is a directory; subdirectories are not read\n"
        payload = json.loads(captured.out)
        assert payload["counts"]["documents"] == 1 and payload["format_errors"] == 0

    @pytest.fixture
    def odd(self, tmp_path):
        """A directory holding a clean file, a dangling symbolic link and a
        FIFO, which would block a reader that opened it."""
        odd = tmp_path / "in"
        odd.mkdir()
        (odd / "a.txt").write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        os.symlink("missing.txt", odd / "b.txt")
        os.mkfifo(odd / "c.fifo")
        return odd

    _ODD_ERR = "b.txt: No such file or directory\nc.fifo: not a regular file\n"

    def test_validate_reports_a_dangling_link_and_a_fifo(self, odd, capsys):
        out = odd.parent / "out.json"
        out.write_text("")  # so -o compares its identity with each input's
        assert main(["validate", "--json", str(odd), "-o", str(out)]) == 1
        assert capsys.readouterr().err == self._ODD_ERR
        assert [entry["file"] for entry in json.loads(out.read_text())] == ["a.txt"]

    def test_stats_reports_a_dangling_link_and_a_fifo(self, odd, capsys):
        assert main(["stats", "--json", str(odd)]) == 1
        captured = capsys.readouterr()
        assert captured.err == self._ODD_ERR
        assert json.loads(captured.out)["counts"]["documents"] == 1

    @pytest.mark.parametrize(
        "argv",
        [["convert", "--to", "inline"], ["segment"], ["frames", "check", "--word", "ก"]],
    )
    def test_single_input_commands_count_every_entry(self, tmp_path, argv, capsys):
        (tmp_path / "a.txt").write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        os.mkfifo(tmp_path / "c.fifo")
        assert main([*argv, str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith("takes exactly one input file\n")
        (tmp_path / "a.txt").unlink()
        assert main([*argv, str(tmp_path)]) == 1
        assert capsys.readouterr().err == "c.fifo: not a regular file\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_fifo_given_directly_is_not_a_regular_file(self, tmp_path, command, capsys):
        """Named directly, a FIFO is reported as it is inside a directory,
        and never opened; the other inputs are still read."""
        (tmp_path / "a.txt").write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        os.mkfifo(tmp_path / "c.fifo")
        argv = [command, "--json", str(tmp_path / "c.fifo"), str(tmp_path / "a.txt")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "c.fifo: not a regular file\n"
        payload = json.loads(captured.out)
        if command == "validate":
            assert [entry["file"] for entry in payload] == ["a.txt"]
        else:
            assert payload["counts"]["documents"] == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    @pytest.mark.parametrize(
        "argv",
        [["convert", "--to", "inline"], ["segment"], ["frames", "check", "--word", "ก"]],
    )
    def test_single_input_commands_report_a_fifo_given_directly(self, tmp_path, argv, capsys):
        os.mkfifo(tmp_path / "c.fifo")
        assert main([*argv, str(tmp_path / "c.fifo")]) == 1
        assert capsys.readouterr().err == "c.fifo: not a regular file\n"

    def test_dangling_link_given_directly_is_a_usage_error(self, odd, capsys):
        assert main(["stats", str(odd / "b.txt")]) == 2
        assert capsys.readouterr().err.startswith("lst20: no such file or directory")

    def test_strict_stats_skips_a_file_that_does_not_parse(self, pair, capsys):
        good, bad = pair
        bad.write_text("broken\n", encoding="utf-8")
        assert main(["stats", "--json", "--strict", str(good.parent)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("b.txt: line 1: ")
        assert json.loads(captured.out)["counts"]["documents"] == 1


class TestBadConfigFile:
    """A --lexicon, --manifest or --frames file that is not UTF-8 or does not
    parse is named, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["segment", "--lexicon"],
            ["stats", "--manifest"],
            ["frames", "check", "--word", "ก", "--frames"],
            ["frames", "dump", "--frames"],
        ],
        ids=["lexicon", "manifest", "frames-check", "frames-dump"],
    )
    def test_undecodable_config_names_the_file(self, tmp_path, argv, capsys):
        good = tmp_path / "a.txt"
        good.write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        config = tmp_path / "conf.txt"
        config.write_bytes(b"\xff\n")
        inputs = [] if argv[:2] == ["frames", "dump"] else [str(good)]
        assert main([*argv, str(config), *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("lst20: conf.txt: 'utf-8' codec can't decode")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,content,reason",
        [
            (["segment", "--lexicon"], "[verbs]\n", "unknown category 'verbs'"),
            (["stats", "--manifest"], "doc-1\n", "expected '<document-id>\\t<genre>'"),
            (["frames", "check", "--word", "ก", "--frames"], "X.1 _ VV\n", "expected 'id: spec'"),
            (["frames", "dump", "--frames"], "X.1 _ VV\n", "expected 'id: spec'"),
        ],
        ids=["lexicon", "manifest", "frames-check", "frames-dump"],
    )
    def test_malformed_config_names_the_file(self, tmp_path, argv, content, reason, capsys):
        good = tmp_path / "a.txt"
        good.write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        config = tmp_path / "conf.txt"
        config.write_text(content, encoding="utf-8")
        inputs = [] if argv[:2] == ["frames", "dump"] else [str(good)]
        assert main([*argv, str(config), *inputs]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"lst20: conf.txt: line 1: {reason}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "content,error",
        [
            ("A.1: _ QQ\n", "line 1: unknown tag 'QQ' in frame spec '_ QQ'"),
            ("A.1: _ VV\nA.1: _ NN\n", "line 2: duplicate frame id 'A.1'"),
            ("A.1: _ VV\n# no hole\nA.2: NN VV\n", "line 3: frame A.2 needs exactly one hole, got 0"),
        ],
        ids=["unknown-tag", "duplicate-id", "no-hole"],
    )
    def test_frame_file_errors_name_the_line(self, tmp_path, content, error, capsys):
        frames_file = tmp_path / "f.txt"
        frames_file.write_text(content, encoding="utf-8")
        assert main(["frames", "dump", "--frames", str(frames_file)]) == 2
        assert capsys.readouterr().err == f"lst20: f.txt: {error}\n"


class TestOutputGuardCoversConfig:
    """-o naming the --lexicon, --manifest or --frames file the command read
    is refused like -o naming an input, and the file is left as it was."""

    @pytest.mark.parametrize(
        "argv,content",
        [
            (["segment", "--lexicon"], "[subordinate_connectors]\nเพราะ\n"),
            (["stats", "--manifest"], "a\tnews\n"),
            (["frames", "check", "--word", "ก", "--frames"], "X.1: _ VV\n"),
            (["frames", "dump", "--frames"], "X.1: _ VV\n"),
        ],
        ids=["lexicon", "manifest", "frames-check", "frames-dump"],
    )
    def test_refuses_to_overwrite_the_config(self, tmp_path, argv, content, capsys):
        good = tmp_path / "a.txt"
        good.write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        config = tmp_path / "conf.txt"
        config.write_text(content, encoding="utf-8")
        before = config.read_bytes()
        inputs = [] if argv[:2] == ["frames", "dump"] else [str(good)]
        assert main([*argv, str(config), *inputs, "-o", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"lst20: refusing to overwrite input path {config}\n"
        assert captured.out == ""
        assert config.read_bytes() == before

    def test_validate_refuses_before_reading_any_input(self, tmp_path, capsys):
        # b.txt is not UTF-8: reading it would be reported on stderr.
        (tmp_path / "a.txt").write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        (tmp_path / "b.txt").write_bytes(b"\xff\tNN\tO\tO\n")
        out = tmp_path / "a.txt"
        assert main(["validate", str(tmp_path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"lst20: refusing to overwrite input path {out}\n"
        assert out.read_text(encoding="utf-8") == "ก\tVV\tO\tB_CLS\n"


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

    @pytest.mark.parametrize("link", [Path.symlink_to, Path.hardlink_to], ids=["symlink", "hardlink"])
    def test_refuses_a_link_to_the_input(self, fixture_copy, tmp_path, capsys, link):
        source = fixture_copy("glimpse.txt")
        before = source.read_bytes()
        out = tmp_path / "alias.txt"
        link(out, source)
        assert main(["convert", "--to", "inline", str(source), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"lst20: refusing to overwrite input path {out}\n"
        assert source.read_bytes() == before

    def test_writes_a_fresh_output_path(self, fixture_copy, tmp_path, capsys):
        source = fixture_copy("glimpse.txt")
        out = tmp_path / "fresh.inline"
        assert main(["convert", "--to", "inline", str(source), "-o", str(out)]) == 0
        assert main(["convert", "--to", "inline", str(source)]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_bad_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("broken\n", encoding="utf-8")
        assert main(["convert", "--to", "inline", "--strict", str(bad)]) == 1

    def test_surface_starting_with_white_space_is_refused(self, tmp_path, capsys):
        source = tmp_path / "lead.txt"
        source.write_text(" a\tNN\tO\tO\n", encoding="utf-8")
        out = tmp_path / "lead.inline"
        assert main(["convert", "--to", "inline", str(source), "-o", str(out)]) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("lead.txt: surface ' a' starting with white space")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, to",
        [("\ufeff\ufeffab\tNN\tO\tO\n", "inline"), ("\ufeff\ufeffab/NN ||\n", "columnar")],
        ids=["to-inline", "to-columnar"],
    )
    def test_surface_starting_with_byte_order_mark_is_refused(
        self, tmp_path, capsys, text, to
    ):
        # The reader strips the first mark; the second would be lost on the
        # way back, since the output would start with it.
        source = tmp_path / "bom.txt"
        source.write_text(text, encoding="utf-8")
        out = tmp_path / "bom.out"
        src = "columnar" if to == "inline" else "inline"
        argv = ["convert", "--from", src, "--to", to, str(source), "-o", str(out)]
        assert main(argv) == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith("bom.txt: first surface starting with U+FEFF")
        assert not out.exists()

    def test_stdout_by_default(self, fixture_copy, capsys):
        source = fixture_copy("phone_call.txt")
        assert main(["convert", "--to", "inline", str(source)]) == 0
        assert capsys.readouterr().out.count("||") == 3

    def test_prints_parse_problems_before_refusing_the_write(self, tmp_path, capsys):
        source = tmp_path / "c.inline"
        source.write_text("a/QQ ||\n_/NN ||\n", encoding="utf-8")
        out = tmp_path / "c.txt"
        argv = ["convert", "--from", "inline", "--to", "columnar", str(source), "-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "c.inline: sentence 0, token 0: inconsistent or missing annotation layers\n"
            "c.inline: literal '_' surface is not representable in columnar form\n"
        )
        assert not out.exists()

    def test_empty_input(self, tmp_path, capsys):
        source = tmp_path / "empty.txt"
        source.write_text("", encoding="utf-8")
        for src, to in (("columnar", "inline"), ("inline", "columnar")):
            assert main(["convert", "--from", src, "--to", to, str(source)]) == 0
            assert capsys.readouterr() == ("", "")

    def test_inline_to_columnar_line_count(self, fixture_copy, tmp_path, capsys):
        source = fixture_copy("disease_report.txt")
        inline = tmp_path / "disease_report.inline"
        assert main(["convert", "--to", "inline", str(source), "-o", str(inline)]) == 0
        assert main(["convert", "--from", "inline", "--to", "columnar", str(inline)]) == 0
        token_lines = [l for l in capsys.readouterr().out.split("\n") if l]
        assert len(token_lines) == 31

    def test_inline_to_inline_keeps_the_layer_count(self, tmp_path, capsys):
        text = "ก/NN|ข/VV||"
        assert inline_layer_count(text) == 2
        source = tmp_path / "two.inline"
        source.write_text(text, encoding="utf-8")
        assert main(["convert", "--from", "inline", "--to", "inline", str(source)]) == 0
        assert capsys.readouterr().out == "ก/NN | ข/VV ||\n"

    def test_unknown_format_rejected(self, fixture_copy, capsys):
        source = fixture_copy("glimpse.txt")
        for flag in ("--from", "--to"):
            with pytest.raises(SystemExit) as info:
                main(["convert", "--to", "inline", flag, "xml", str(source)])
            assert info.value.code == 2
            assert "invalid choice: 'xml'" in capsys.readouterr().err


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

    def test_reports_format_issues_with_location(self, tmp_path, capsys):
        source = tmp_path / "draft.txt"
        source.write_text("ก\tVV\tO\tO\nbroken line\n", encoding="utf-8")
        assert main(["segment", str(source)]) == 1
        assert capsys.readouterr().err.startswith("draft.txt: line 2: ")
        inline = tmp_path / "draft.inline"
        inline.write_text("ก/VV/O/O | ข/QQ/O/O ||\n", encoding="utf-8")
        assert main(["segment", "--from", "inline", str(inline)]) == 1
        assert capsys.readouterr().err == (
            "draft.inline: sentence 0, token 1: inconsistent or missing annotation layers\n"
        )

    @pytest.mark.parametrize(
        "text, to, reason",
        [
            ("a|b\tVV\tO\tO\n", "inline", "surface containing '|'"),
            ("\ufeff\ufeffab\tVV\tO\tO\n", "columnar", "first surface starting with U+FEFF"),
        ],
        ids=["bar-to-inline", "two-marks"],
    )
    def test_names_the_input_when_the_writer_refuses(
        self, tmp_path, capsys, text, to, reason
    ):
        source = tmp_path / "odd.txt"
        source.write_text(text, encoding="utf-8")
        out = tmp_path / "odd.out"
        assert main(["segment", "--to", to, str(source), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"odd.txt: {reason}")
        assert not out.exists()

    def test_connector_inside_a_name_opens_no_sentence(self, tmp_path, capsys):
        # ว่า closes a DTM entity: a clause opened there would let a sentence
        # break leave B_DTM alone and E_DTM orphaned.
        source = tmp_path / "named.inline"
        source.write_text("//VV/B_DTM/O | ว่า/CC/E_DTM/B_CLS | ?/VV/O/O ||\n", encoding="utf-8")
        assert main(["segment", "--from", "inline", "--to", "inline", str(source)]) == 0
        assert capsys.readouterr().out == (
            "//VV/B_DTM/B_CLS | ว่า/CC/E_DTM/I_CLS | ?/VV/O/E_CLS ||\n"
        )

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

    def test_counts_the_lines_it_skips(self, tmp_path, capsys):
        path = tmp_path / "draft.txt"
        path.write_text("ก\tVV\tB_PER\tB_CLS\nbroken line\nข\tQQ\tO\tO\n", encoding="utf-8")
        assert main(["stats", "--json", str(path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["format_errors"] == 2
        assert payload["counts"] == {
            "documents": 1, "sentences": 1, "clauses": 1,
            "named_entities": 1, "words": 1, "tokens": 1,
        }
        assert payload["pos"] == {"VV": 1} and payload["ne"] == {"PER": 1}
        assert captured.err == ""
        assert main(["stats", str(path)]) == 0
        assert "\ntokens\t1\nformat_errors\t2\n" in capsys.readouterr().out


class TestFramesCommand:
    def test_dump_lists_builtin_frames(self, capsys):
        assert main(["frames", "dump"]) == 0
        out = capsys.readouterr().out
        assert "NN.1: _ VV (AV)" in out
        assert len(out.strip().split("\n")) == 18

    def test_dump_to_an_output_path(self, tmp_path, capsys):
        out = tmp_path / "frames.cfg"
        assert main(["frames", "dump", "-o", str(out)]) == 0
        assert main(["frames", "dump"]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

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

    def test_check_reports_format_issues(self, tmp_path, capsys):
        source = tmp_path / "draft.txt"
        source.write_text(
            "ก\tVV\tO\tO\nbroken line\nข\tQQ\tO\tO\n", encoding="utf-8"
        )
        assert main(["frames", "check", "--word", "ก", str(source)]) == 1
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 2
        assert all(line.startswith("draft.txt: ") for line in errors)
        assert "QQ" in captured.err
        assert "sentence 0, token 0" in captured.out
        inline = tmp_path / "draft.inline"
        inline.write_text("ก/VV/O/O | ข/QQ/O/O ||\n", encoding="utf-8")
        assert main(["frames", "check", "--from", "inline", "--word", "ก", str(inline)]) == 1
        assert capsys.readouterr().err == (
            "draft.inline: sentence 0, token 1: inconsistent or missing annotation layers\n"
        )

    def test_bad_frame_file_exits_two(self, tmp_path):
        frames_file = tmp_path / "frames.txt"
        frames_file.write_text("X.1: _ _\n", encoding="utf-8")
        assert main(["frames", "dump", "--frames", str(frames_file)]) == 2


def test_output_files_use_lf_newlines(fixture_copy, tmp_path):
    source = fixture_copy("glimpse.txt")
    out = tmp_path / "out.txt"
    assert main(["convert", "--to", "inline", str(source), "-o", str(out)]) == 0
    assert b"\r" not in out.read_bytes()


def _lst20_sized_text(rng: random.Random) -> str:
    """One document of about a thousand tokens, as an LST20 file holds."""
    return write_columnar(
        Document("d", tuple(corpus_samples.random_sentence(rng) for _ in range(48)))
    )


def _release_shard(directory: Path) -> Path:
    """Four LST20-sized documents, the third a draft with a line that does
    not parse and a line with an unknown POS tag."""
    rng = random.Random(12)
    directory.mkdir()
    for k in range(4):
        lines = _lst20_sized_text(rng).split("\n")
        if k == 2:
            lines[3] = "broken line"
            word, _, ne, clause = lines[10].split("\t")
            lines[10] = "\t".join((word, "QQ", ne, clause))
        (directory / f"D{k:05d}.txt").write_text("\n".join(lines), encoding="utf-8")
    return directory


class TestValidateWritesAsItGoes:
    """validate writes each file's report once it has linted that file. The
    bytes are those of one json.dumps over every file's entries, or of the
    files' format_report texts one after another."""

    @staticmethod
    def _run(argv, capsys):
        status = main(argv)
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def _one_shot(self, paths, capsys):
        """The --json output, from each file validated alone."""
        entries = []
        for path in paths:
            entries += json.loads(self._run(["validate", "--json", str(path)], capsys)[1])
        return json.dumps(entries, ensure_ascii=False, indent=2) + "\n"

    def test_no_issues_is_an_empty_list(self, tmp_path, capsys):
        path = tmp_path / "clean.txt"
        path.write_text("ก\tVV\tO\tB_CLS\nข\tNN\tO\tE_CLS\n", encoding="utf-8")
        assert self._run(["validate", "--json", str(path)], capsys) == (0, "[]\n", "")

    def test_one_file(self, tmp_path, capsys):
        path = _release_shard(tmp_path / "shard") / "D00002.txt"
        errors = []
        text = path.read_text(encoding="utf-8")
        # The draft's two bad lines are FORMAT_LINE issues, listed first.
        report = lint_document(read_columnar(text, "d", errors=errors))
        assert len(errors) == 2 and report.issues
        status, out, _ = self._run(["validate", "--json", str(path)], capsys)
        payload = json.loads(out)
        assert [entry["code"] for entry in payload[:2]] == ["FORMAT_LINE"] * 2
        entries = [{**entry, "file": path.name} for entry in report.to_dicts()]
        assert payload[2:] == entries
        assert out == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
        assert status == 1

    def test_several_files(self, tmp_path, capsys):
        shard = _release_shard(tmp_path / "shard")
        shutil.copy(corpus_samples.FIXTURE_DIR / "glimpse.txt", shard / "D00001b.txt")
        paths = sorted(shard.iterdir())
        expected = self._one_shot(paths, capsys)
        assert self._run(["validate", "--json", str(shard)], capsys) == (1, expected, "")
        text = "".join(self._run(["validate", str(p)], capsys)[1] for p in paths)
        assert self._run(["validate", str(shard)], capsys) == (1, text, "")

    def test_undecodable_file_in_the_middle(self, tmp_path, capsys):
        shard = _release_shard(tmp_path / "shard")
        (shard / "D00001b.txt").write_bytes(b"\xff\tNN\tO\tO\n")
        good = [p for p in sorted(shard.iterdir()) if p.name != "D00001b.txt"]
        expected = self._one_shot(good, capsys)
        status, out, err = self._run(["validate", "--json", str(shard)], capsys)
        assert (status, out) == (1, expected)
        assert err.startswith("D00001b.txt: 'utf-8' codec can't decode")
        text = "".join(self._run(["validate", str(p)], capsys)[1] for p in good)
        assert self._run(["validate", str(shard)], capsys)[:2] == (1, text)

    def test_text_is_the_files_reports(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text(_lst20_sized_text(random.Random(3)), encoding="utf-8")
        report = lint_document(read_columnar(path.read_text(encoding="utf-8"), "a"))
        assert self._run(["validate", str(path)], capsys)[1] == format_report(report, "a.txt")

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["validate", "--json"], "ea9c39ed807f98d0f67b98395d1f4e2233b1b99a986a8fe74a381d92693e9e86"),
            (["validate"], "467ecd18396cfb9759b124845b8fcf6efa22cf38b45d46a94017cab6586df5a2"),
        ],
        ids=["json", "text"],
    )
    def test_release_shard_bytes_are_pinned(self, tmp_path, argv, digest):
        # Pinned from the one-shot writer: writing as it goes changes no byte.
        shard = _release_shard(tmp_path / "shard")
        out = tmp_path / "out"
        assert main([*argv, str(shard), "-o", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["validate", "--json"], "9ad71162e5473ecb86f0df4827e340c16b6280b701f24855164213020166ccd1"),
            (["validate"], "e2b669061fe388d407e415b9207b64963f1c4a955b75eceea38ec585b523b65a"),
        ],
        ids=["json", "text"],
    )
    def test_fixture_and_random_corpus_bytes_are_pinned(self, tmp_path, argv, digest):
        # Pinned from the report that counted severities per read and wrote
        # each one through Enum.__format__: counting once changes no byte.
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_samples.FIXTURE_DIR, corpus)
        rng = random.Random(17)
        for k in range(40):
            text = write_columnar(corpus_samples.random_document(rng, max_sentences=12))
            if k % 3 == 0:  # a clause error and an NE error among the warnings
                text = text.replace("B_CLS", "I_CLS", 1).replace("\tB_", "\tE_", 1)
            (corpus / f"R{k:03d}.txt").write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main([*argv, str(corpus), "-o", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _heap_peak(argv) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        main(argv)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", [["validate", "--json"], ["stats", "--json"]])
def test_heap_peak_follows_the_largest_file_not_the_file_count(tmp_path, command):
    text = _lst20_sized_text(random.Random(5))
    one, two = tmp_path / "one", tmp_path / "two"
    for directory, names in ((one, ["a.txt"]), (two, ["a.txt", "b.txt"])):
        directory.mkdir()
        for name in names:
            (directory / name).write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    main([*command, str(one), "-o", out])  # one-time lazy set-up
    single = _heap_peak([*command, str(one), "-o", out])
    double = _heap_peak([*command, str(two), "-o", out])
    assert double <= 1.15 * single, (single, double)


class TestLineEnds:
    """Input files are read with their line ends as they are, so the readers'
    rules are the only line rules: CRLF ends a line, and a CR anywhere else
    is a character of its line."""

    def _validate(self, tmp_path, data: bytes, capsys, *options):
        path = tmp_path / "a.txt"
        path.write_bytes(data)
        status = main(["validate", "--json", *options, str(path)])
        return status, json.loads(capsys.readouterr().out)

    def test_crlf_reads_as_lf(self, tmp_path, capsys):
        text = "ก\tNN\tO\tB_CLS\nข\tNN\tO\tE_CLS\n\n!\tPU\tO\tO\n!\tPU\tO\tO\n"
        lf = self._validate(tmp_path, text.encode(), capsys)
        assert lf[1] and self._validate(tmp_path, text.replace("\n", "\r\n").encode(), capsys) == lf

    def test_cr_inside_a_word_is_part_of_it(self, tmp_path, capsys):
        data = b"a\rb\tNN\tO\tO\nc\tNN\tO\tO\n"
        status, payload = self._validate(tmp_path, data, capsys)
        report = lint_document(read_columnar(data.decode()))
        assert (status, payload) == (0, [{**e, "file": "a.txt"} for e in report.to_dicts()])
        assert [(e["code"], e["sentence"], e["token"]) for e in payload] == [
            ("FORMAT_SPACE_IN_SURFACE", 0, 0)
        ]

    def test_bare_cr_line_ends_are_one_bad_line(self, tmp_path, capsys):
        """A file whose lines end in a lone CR is one line, reported at line
        1 with its field count; nothing of it is dropped silently."""
        data = b"a\tNN\tO\tO\rb\tVV\tO\tO\r\rc\tNN\tO\tO\r"
        status, payload = self._validate(tmp_path, data, capsys)
        assert status == 1
        assert [(e["code"], e["message"]) for e in payload] == [
            ("FORMAT_LINE", "line 1: expected 4 tab-separated fields, got 10")
        ]
        assert main(["convert", "--to", "inline", str(tmp_path / "a.txt")]) == 1
        assert capsys.readouterr().err == "a.txt: line 1: expected 4 tab-separated fields, got 10\n"


#: One columnar sentence per lint code, a line with a bad tag and a line
#: that does not parse: every code the columnar reader and the linter give.
_EVERY_CODE_COLUMNAR = "\n\n".join(
    "\n".join(sentence)
    for sentence in (
        ["a\tNN\tI_ORG\tO"],
        ["a\tNN\tE_ORG\tO"],
        ["a\tNN\tB_PER\tO", "b\tNN\tE_ORG\tO"],
        ["a\tNN\tB_ORG\tO", "b\tNN\tI_ORG\tO"],
        ["a\tVV\tO\tI_CLS"],
        ["a\tVV\tO\tE_CLS"],
        ["a\tVV\tO\tB_CLS", "b\tVV\tO\tI_CLS"],
        ["a\tNN\tO\tB_CLS"],
        ["_\tNN\tO\tO"],
        ["ก\u00a0ข\tNN\tO\tO"],
        ["http://x.th/a\tNN\tO\tO", ".html\tNN\tO\tO"],
        ["!\tPU\tO\tO", "!\tPU\tO\tO"],
        ['a\tQ"\\\x01ก\tO\tO', "broken line"],
    )
) + "\n"

#: Odd in JSON: a quote, a backslash, a control character, Thai text, and
#: a newline between braces, as the separator between two entries has one.
_ODD = '"q" \\ \x01 ก },\n    {'


class TestJsonBytes:
    """validate --json is byte for byte ``json.dumps(entries,
    ensure_ascii=False, indent=2)`` of every issue's ``to_dict()`` plus its
    ``"file"``, whatever characters the messages and file names hold."""

    @staticmethod
    def _dumps(issues, name):
        entries = [{**issue.to_dict(), "file": name} for issue in issues]
        return json.dumps(entries, ensure_ascii=False, indent=2)

    def test_every_code(self):
        errors = []
        report = lint_document(read_columnar(_EVERY_CODE_COLUMNAR, errors=errors))
        issues = [
            *map(_format_issue, errors),
            _format_issue(LineError(7, _ODD)),
            _format_issue(TokenError(2, 3, _ODD)),
            LintIssue(Severity.ERROR, "CLS_CAT_MISMATCH", _ODD, 4, 0, "CLS"),
            *report.issues,
        ]
        assert {issue.code for issue in issues} == {
            *(f"{layer}_{rule}" for layer in ("NE", "CLS")
              for rule in ("ORPHAN_I", "ORPHAN_E", "CAT_MISMATCH", "UNTERMINATED")),
            "CLS_SINGLETON", "CLS_NO_VERB", "SPACE_NOT_PU", "FORMAT_SPACE_IN_SURFACE",
            "URL_SPLIT", "PUNCT_RUN_SPLIT", "FORMAT_LINE", "FORMAT_TOKEN",
        }
        for name in ("a.txt", _ODD):
            entries = [{**issue.to_dict(), "file": name} for issue in issues]
            assert _json_entries(entries) == self._dumps(issues, name)[2:-2]

    @pytest.mark.parametrize(
        "informat,text",
        [
            ("columnar", _EVERY_CODE_COLUMNAR),
            ("inline", 'ก/NN/O/O | b/Q"\\ก/O/O || ค/NN/I_ORG/O ||'),
        ],
    )
    def test_through_the_command(self, tmp_path, informat, text, capsys):
        path = tmp_path / f"{_ODD}.txt"
        path.write_text(text, encoding="utf-8")
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        errors = []
        if informat == "columnar":
            doc = read_columnar(text, errors=errors)
        else:
            doc = Document("d", tuple(read_inline(text, errors=errors)))
        report = lint_document(doc, extra=[_format_issue(e) for e in errors])
        argv = ["validate", "--json", "--from", informat]
        assert main([*argv, str(empty)]) == 0
        assert capsys.readouterr().out == "[]\n"
        assert main([*argv, str(path), str(empty)]) == 1
        assert capsys.readouterr().out == self._dumps(report.issues, path.name) + "\n"
