import errno
import gc
import hashlib
import json
import os
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus_samples
from lst20tools import (
    Document,
    LineError,
    LintIssue,
    LintReport,
    PosTag,
    Sentence,
    Severity,
    Token,
    TokenError,
    WriteError,
    columnar_records,
    inline_records,
    lint_document,
    read_columnar,
    read_inline,
    segment_records,
    write_columnar,
    write_columnar_records,
    write_inline,
    write_inline_records,
)
from lst20tools import cli
from lst20tools import format as format_module
from lst20tools import segment as segment_module
from lst20tools.cli import _json_entries, format_report, main
from lst20tools.format import inline_layer_count
from lst20tools.validate import _format_issue, lint_records
from oracles import inline_input_sentences, lint_oracle, read_columnar_lines, read_inline_two_pass
from test_format import BOM, columnar_texts, damaged_inline_texts
from test_validate import _oracle_view


@pytest.fixture
def fixture_copy(tmp_path):
    def copy(name):
        dest = tmp_path / name
        shutil.copy(corpus_samples.FIXTURE_DIR / name, dest)
        return dest

    return copy


class TestFormatReport:
    def test_empty_report_text(self):
        assert format_report(LintReport(())) == ["0 errors, 0 warnings\n"]

    def test_text_lines_carry_location_and_code(self, fixture_copy):
        text = corpus_samples.fixture_text("glimpse.txt").replace(
            "B_ORG", "I_ORG", 1
        )
        report = lint_document(read_columnar(text, "mutated"))
        rendered = format_report(report, filename="mutated.txt")
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in rendered)
        assert any(line.startswith("mutated.txt:1:2: error NE_ORPHAN_I") for line in rendered)


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

    @pytest.fixture
    def unreadable(self, tmp_path, monkeypatch):
        """Three copies of one file, of which ``b.txt`` cannot be opened. Run
        as root, a test may read any file whatever its mode, so the refusal is
        made by patching the ``open`` the CLI calls."""
        batch = tmp_path / "d"
        batch.mkdir()
        for name in ("a.txt", "b.txt", "c.txt"):
            (batch / name).write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")

        def refusing_open(file, *args, **kwargs):
            if Path(file).name == "b.txt":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
        return batch

    def test_validate_reports_an_unreadable_file_and_goes_on(self, unreadable, capsys):
        out = unreadable.parent / "out.json"
        assert main(["validate", "--json", str(unreadable), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "b.txt: Permission denied\n"
        assert [entry["file"] for entry in json.loads(out.read_text())] == ["a.txt", "c.txt"]

    def test_stats_reports_an_unreadable_file_and_goes_on(self, unreadable, capsys):
        out = unreadable.parent / "stats.json"
        assert main(["stats", "--json", str(unreadable), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "b.txt: Permission denied\n"
        assert json.loads(out.read_text())["counts"]["documents"] == 2

    @pytest.mark.parametrize(
        "argv",
        [["convert", "--to", "inline"], ["segment"], ["frames", "check", "--word", "ก"]],
    )
    def test_single_input_commands_report_an_unreadable_file(self, unreadable, argv, capsys):
        assert main([*argv, str(unreadable / "b.txt")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "b.txt: Permission denied\n")


def _bad_byte_data(head: str, unit: str, at: int = 20_000) -> bytes:
    """``head``, copies of ``unit`` and blank lines up to byte ``at``, a 0xFF
    there, then more copies of ``unit``."""
    data = head.encode("utf-8")
    data += unit.encode("utf-8") * ((at - len(data)) // len(unit.encode("utf-8")))
    return data + b"\n" * (at - len(data)) + b"\xff" + unit.encode("utf-8") * 10


#: By input format: a file whose first line or sentence is bad, with a 0xFF
#: at byte 20,000, past the first block a streaming reader decodes; and one
#: whose second sentence the writer refuses before that byte.
_BAD_BYTE_FILES = {
    "columnar": _bad_byte_data("broken line\n", "ก\tNN\tO\tB_CLS\nข\tVV\tO\tE_CLS\n\n"),
    "inline": _bad_byte_data("broken line ||\n", "ก/NN/O/B_CLS | ข/VV/O/E_CLS ||\n"),
    "columnar-refused": _bad_byte_data("broken line\n\na|b\tNN\tO\tO\n\n", "ก\tNN\tO\tO\n\n"),
    "inline-refused": _bad_byte_data("broken line ||\n_/NN ||\n", "ก/NN ||\n"),
}
_SINGLE_INPUT = [
    ["convert", "--to", "inline"],
    ["convert", "--to", "columnar"],
    ["segment"],
    ["segment", "--to", "inline"],
    ["frames", "check", "--word", "ก"],
]


class TestBadByteAfterTheFirstBlock:
    """A file that is not UTF-8 is reported alone, as ``name: message`` with
    the position of its first bad byte in the file, and exit 1, however far
    into the file that byte lies. No bad line or sentence before it is
    printed, under ``--strict`` or not, nor a writer's refusal, and an
    existing ``-o`` file is left as it was."""

    @staticmethod
    def _expected(data: bytes) -> str:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"d.txt: {exc}\n"
        raise AssertionError("the data decodes")

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["permissive", "strict"])
    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "old-output"])
    @pytest.mark.parametrize("argv", _SINGLE_INPUT, ids=" ".join)
    @pytest.mark.parametrize("source", list(_BAD_BYTE_FILES))
    def test_single_input_commands(self, tmp_path, capsys, source, argv, output, strict):
        data = _BAD_BYTE_FILES[source]
        path, out = tmp_path / "d.txt", tmp_path / "out.txt"
        path.write_bytes(data)
        out.write_bytes(b"old output\n")
        informat = source.removesuffix("-refused")
        call = [*argv, "--from", informat, *strict, str(path)] + (["-o", str(out)] if output else [])
        assert main(call) == 1
        assert capsys.readouterr() == ("", self._expected(data))
        assert "position 20000: invalid start byte" in self._expected(data)
        assert out.read_bytes() == b"old output\n"

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["permissive", "strict"])
    @pytest.mark.parametrize(
        "argv", [["validate"], ["validate", "--json"], ["stats"], ["stats", "--json"]], ids=" ".join
    )
    @pytest.mark.parametrize("source", list(_BAD_BYTE_FILES))
    def test_many_input_commands(self, tmp_path, capsys, source, argv, strict):
        data = _BAD_BYTE_FILES[source]
        (tmp_path / "in").mkdir()
        (tmp_path / "none").mkdir()
        path = tmp_path / "in" / "d.txt"
        path.write_bytes(data)
        informat = ["--from", source.removesuffix("-refused")]
        assert main([*argv, *informat, *strict, str(tmp_path / "none")]) == 0
        nothing = capsys.readouterr().out  # the output of no file
        assert main([*argv, *informat, *strict, str(path)]) == 1
        assert capsys.readouterr() == (nothing, self._expected(data))

    def test_a_character_split_between_blocks_and_one_cut_off_at_the_end(self, tmp_path, capsys):
        # A word of 3,000 Thai characters, 3 bytes each, from byte 0: every
        # power of two past 2 falls inside a character.
        text = "ก" * 3000 + "\tNN\tO\tO\n\nข\tVV\tO\tO\n"
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        assert main(["convert", "--to", "inline", str(path)]) == 0
        assert capsys.readouterr() == (write_inline(read_columnar(text).sentences), "")
        data = text.encode("utf-8") + "ค".encode("utf-8")[:2]
        path.write_bytes(data)
        for argv in (["convert", "--to", "inline"], ["validate"], ["stats"]):
            assert main([*argv, str(path)]) == 1
            assert capsys.readouterr().err == self._expected(data)
        assert "unexpected end of data" in self._expected(data)


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

    @pytest.mark.parametrize(
        "argv,content",
        [
            (["segment", "--lexicon"], "[subordinate_connectors]\nเพราะ\n"),
            (["stats", "--json", "--manifest"], "a\tpolitics\n"),
            (["frames", "check", "--word", "ก", "--frames"], "VV.1: _\nVV.6: _\n"),
            (["frames", "dump", "--frames"], "VV.1: _\nVV.6: _\n"),
        ],
        ids=["lexicon", "manifest", "frames-check", "frames-dump"],
    )
    def test_config_with_a_bom_reads_as_without(self, tmp_path, argv, content, capsys):
        good = tmp_path / "a.txt"
        good.write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        inputs = [] if argv[:2] == ["frames", "dump"] else [str(good)]
        runs = []
        for prefix in ("", "\ufeff"):
            config = tmp_path / "conf.txt"
            config.write_text(prefix + content, encoding="utf-8")
            status = main([*argv, str(config), *inputs])
            runs.append((status, *capsys.readouterr()))
        assert runs[1] == runs[0]
        assert runs[0][0] == 0
        if argv[0] == "stats":
            assert json.loads(runs[0][1])["genres"] == {"politics": 1}
        if argv[:2] == ["frames", "check"]:
            assert runs[0][1].endswith("classes: verb\n")

    def test_repeated_manifest_id_names_the_line(self, tmp_path, capsys):
        good = tmp_path / "a.txt"
        good.write_text("ก\tVV\tO\tB_CLS\n", encoding="utf-8")
        manifest = tmp_path / "genres.tsv"
        manifest.write_text("a\tnews\na\tsports\n", encoding="utf-8")
        assert main(["stats", "--manifest", str(manifest), str(good)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "lst20: genres.tsv: line 2: duplicate document id 'a'\n",
        )


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

    def test_subject_shift_help_and_refusal_are_pinned(self, monkeypatch, capsys):
        """``segment`` has no S3 strategy option: its help lists none and the
        parser refuses ``--subject-shift``. Pinned on an 80-column terminal;
        later Pythons word the ``-o`` help line differently, so from 3.12 on
        only the usage and the refusal are compared."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as help_exit:
            main(["segment", "--help"])
        shown = capsys.readouterr()
        with pytest.raises(SystemExit) as refusal_exit:
            main(["segment", "x", "--subject-shift", "heuristic"])
        refused = capsys.readouterr()
        assert (help_exit.value.code, shown.err, refusal_exit.value.code, refused.out) == (0, "", 2, "")
        assert shown.out.startswith(_SEGMENT_USAGE)
        assert refused.err == _SEGMENT_REFUSAL
        if sys.version_info < (3, 12):
            assert shown.out == _SEGMENT_USAGE + _SEGMENT_HELP

    @pytest.fixture(scope="class")
    def planted(self, tmp_path_factory):
        """The gold fixtures, seeded documents with markers planted and a
        lexicon file that makes four more words markers."""
        corpus = tmp_path_factory.mktemp("planted")
        shutil.copytree(corpus_samples.FIXTURE_DIR, corpus / "in")
        rng = random.Random(23)
        for k in range(40):
            text = write_columnar(_planted_document(rng, k))
            (corpus / "in" / f"R{k:03d}.txt").write_text(text, encoding="utf-8")
        (corpus / "lex.cfg").write_text(_PLANTED_LEXICON, encoding="utf-8")
        return corpus

    @pytest.mark.parametrize("to", ["columnar", "inline"])
    @pytest.mark.parametrize("lexicon", [False, True], ids=["default", "lexicon-file"])
    def test_fixture_and_planted_corpus_bytes_are_pinned(self, planted, lexicon, to):
        # Pinned from the segmenter that decided each clause pair by walking a
        # table of rule functions.
        options = ["--to", to]
        if lexicon:
            options += ["--lexicon", str(planted / "lex.cfg")]
        out = planted / "out"
        digest = hashlib.sha256()
        for path in sorted((planted / "in").iterdir()):
            status = main(["segment", *options, str(path), "-o", str(out)])
            digest.update(f"{path.name} {status}\n".encode() + out.read_bytes())
        assert digest.hexdigest() == _SEGMENT_DIGESTS[lexicon, to]

    @pytest.mark.parametrize("to", ["columnar", "inline"])
    def test_retired_auxiliaries_section_changes_no_byte(self, planted, to, capsys):
        """A lexicon file that still lists the retired ``[auxiliaries]``
        category segments every input to the bytes it gives without it."""
        retired = planted / "retired.cfg"
        retired.write_text("[auxiliaries]\nกำลัง\nจะ\n" + _PLANTED_LEXICON, encoding="utf-8")
        for path in sorted((planted / "in").iterdir()):
            runs = []
            for lexicon in (planted / "lex.cfg", retired):
                status = main(["segment", "--to", to, "--lexicon", str(lexicon), str(path)])
                runs.append((status, *capsys.readouterr()))
            assert runs[1] == runs[0]


_SEGMENT_USAGE = """\
usage: lst20 segment [-h] [--from {columnar,inline}] [--strict] [-o OUTPUT]
                     [--to {columnar,inline}] [--lexicon LEXICON]
                     PATH
"""
_SEGMENT_HELP = """
positional arguments:
  PATH

options:
  -h, --help            show this help message and exit
  --from {columnar,inline}
  --strict              abort on the first parse error
  -o OUTPUT, --output OUTPUT
                        write data here instead of stdout
  --to {columnar,inline}
  --lexicon LEXICON     marker lexicon config file
"""
_SEGMENT_REFUSAL = """\
usage: lst20 [-h] {validate,convert,segment,stats,frames} ...
lst20: error: unrecognized arguments: --subject-shift heuristic
"""


# What may join two planted clauses, with the sentence rule it brings into
# play (None is a space). ดังนั้น, โดย, จ้ะ and เล่า are markers only under
# _PLANTED_LEXICON.
_JOINS = (
    [(None, "PU")],  # S3
    [("นะ", "PA"), (None, "PU")],  # S7
    [("จ้ะ", "PA"), (None, "PU")],  # S7
    [("อย่างไร", "AV"), (None, "PU")],  # S3
    [(None, "PU"), ("เช่น", "CC")],  # S6
    [(None, "PU"), ("อย่างไรก็ตาม", "CC")],  # S2
    [(None, "PU"), ("ดังนั้น", "CC")],  # S2
    [(None, "PU"), ("ซึ่ง", "CC")],  # S3
    [("กล่าว", "VV"), ("ว่า", "CC"), (None, "PU"), ('"', "PU")],  # S4
    [("กล่าว", "VV"), ("ว่า", "CC"), (None, "PU")],  # S5
    [("เล่า", "VV"), ("โดย", "CC"), (None, "PU")],  # S5
    [("นะ", "PA"), (None, "PU"), ("เช่น", "CC")],  # S6 over S7
    [("กล่าว", "VV"), ("ว่า", "CC"), (None, "PU"), ("อย่างไรก็ตาม", "CC")],  # S5 over S2
)
_PLANTS = [(surface, PosTag(tag)) for rows in _JOINS for surface, tag in rows if surface]
_PLANTED_LEXICON = (
    "[cohesive_markers]\nดังนั้น\n[subordinate_connectors]\nโดย\n"
    "[particles]\nจ้ะ\n[reporting_verbs]\nเล่า\n"
)
_SEGMENT_DIGESTS = {
    (False, "columnar"): "1b61b84a4ffd091ce3dfe39bb70dc2c0b201b03ac0e1fccb996c654add5e0f11",
    (False, "inline"): "ef8ab9aae377ac301e3a40781c27eac5b4e5e578625437c1446e5d7c0ea22627",
    (True, "columnar"): "d7d215e05d26f10135781aff317e6baae6567346f9585e4f7bb8fc67cd981d25",
    (True, "inline"): "4d8869060158cd52180a5dff8b502f214d43a56eec2a3aaf8b6e27eca54941e5",
}


def _planted_document(rng: random.Random, k: int) -> Document:
    """Paragraphs of clauses, each an optional subject, a verb and an object,
    joined at random (even ``k``), or a random document a quarter of whose
    words are replaced by markers, labels kept (odd ``k``)."""
    if k % 2 == 0:
        paragraphs = []
        for _ in range(rng.randint(1, 3)):
            rows = []
            for c in range(rng.randint(2, 5)):
                rows += rng.choice(_JOINS) if c else []
                rows += [(rng.choice(("เขา", "เรา", "ครู")), "PR")] * rng.randint(0, 1)
                rows += [(rng.choice(("กิน", "นอน", "เดิน")), "VV"), ("ข้าว", "NN")]
            paragraphs.append(Sentence(tuple(corpus_samples.toks(rows))))
        return Document("planted", tuple(paragraphs))
    doc = corpus_samples.random_document(rng, max_sentences=8)
    sentences = []
    for sentence in doc.sentences:
        tokens = [
            Token(*rng.choice(_PLANTS), t.ne, t.clause)
            if not t.is_space and rng.random() < 0.25
            else t
            for t in sentence.tokens
        ]
        sentences.append(Sentence(tuple(tokens)))
    return Document(doc.doc_id, tuple(sentences))


# Segment relabels the input's records in every format pair (columnar back
# to columnar by format._relabel_blocks, any other pair by segment.segment_records
# and the block writers) with segment._segment_columns; these tests hold it to the
# library path: read_columnar or read_inline, segment_paragraphs, then a Token writer.

_FIXTURE_NAMES = sorted(path.name for path in corpus_samples.FIXTURE_DIR.glob("*.txt"))


@st.composite
def segment_texts(draw):
    """A fixture or a planted document, in columnar form, mutated as files
    come: runs of blank lines at either end and between sentences, a bad line
    or a line with an empty word, CRLF endings, no final newline and one or
    two leading BOMs. Random documents hold spaces inside names."""
    if draw(st.booleans()):
        text = corpus_samples.fixture_text(draw(st.sampled_from(_FIXTURE_NAMES)))
    else:
        rng = draw(st.randoms(use_true_random=False))
        text = write_columnar(_planted_document(rng, draw(st.integers(0, 3))))
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [""] * draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 1))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["broken line", "\tNN\tO\tO", "ก\tQQ\tO\tO"])))
    text = "\n".join(lines)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return BOM * draw(st.integers(0, 2)) + text


def _library_segment(
    path: Path, strict: bool, lexicon, informat: str = "columnar", outformat: str = "columnar"
) -> tuple:
    """``segment``'s exit code, stdout and stderr on ``path`` as the library
    path gives them: each bad line or sentence located on stderr, or under
    ``strict`` the first one alone, then a refused write."""
    text = path.read_bytes().decode("utf-8")
    errors = None if strict else []
    try:
        if informat == "columnar":
            sentences = read_columnar(text, errors=errors).sentences
        else:
            sentences = read_inline(text, errors=errors)
    except (LineError, TokenError) as exc:
        return 1, "", f"{path.name}: {exc}\n"
    located = "".join(f"{path.name}: {error}\n" for error in errors or ())
    sentences, _ = segment_module.segment_paragraphs([s.tokens for s in sentences], lexicon)
    try:
        if outformat == "columnar":
            out = write_columnar(Document("d", tuple(sentences)))
        else:
            out = write_inline(sentences)
    except WriteError as exc:
        return 1, "", f"{located}{path.name}: {exc}\n"
    return int(bool(errors)), out, located


def _records_segment(path: Path, strict: bool, lexicon, informat: str, outformat: str) -> tuple:
    """:func:`_library_segment` by the record API: the input's records, read
    whole, segmented by ``segment_records`` and written by a record writer."""
    text = path.read_bytes().decode("utf-8")
    read = columnar_records if informat == "columnar" else inline_records
    errors = None if strict else []
    try:
        sentences = list(segment_records(read(text, errors), lexicon))
    except (LineError, TokenError) as exc:
        return 1, "", f"{path.name}: {exc}\n"
    located = "".join(f"{path.name}: {error}\n" for error in errors or ())
    try:
        if outformat == "columnar":
            out = write_columnar_records(sentences)
        else:
            out = write_inline_records(sentences)
    except WriteError as exc:
        return 1, "", f"{located}{path.name}: {exc}\n"
    return int(bool(errors)), out, located


_FORMAT_PAIRS = [(i, o) for i in ("columnar", "inline") for o in ("columnar", "inline")]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data(), st.sampled_from(_FORMAT_PAIRS), st.booleans(), st.booleans(), st.integers(0, 40))
def test_segment_from_lines_is_the_token_path(
    tmp_path, capsys, data, pair, strict, lexicon, chunk_chars
):
    """``segment`` gives the Token path's exit code, stdout and stderr, and the
    record path's: ``segment_records`` and a record writer. Columnar to
    columnar, the command writes lines relabelled in place
    (``format._relabel_blocks``), so this pins that fork to
    ``write_columnar_records(segment_records(columnar_records(text)))``."""
    informat, outformat = pair
    texts = segment_texts() if informat == "columnar" else damaged_inline_texts()
    text = data.draw(texts, label="text")
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    options = ["--from", informat, "--to", outformat] + (["--strict"] if strict else [])
    if lexicon:
        (tmp_path / "lex.cfg").write_text(_PLANTED_LEXICON, encoding="utf-8")
        options += ["--lexicon", str(tmp_path / "lex.cfg")]
    markers = segment_module.load_marker_lexicon(_PLANTED_LEXICON) if lexicon else None
    # The command reads 2 KiB blocks, and the two references the whole text in
    # chunks this small, which put chunk edges next to blank lines and blank runs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        got = (main(["segment", *options, str(path)]), *capsys.readouterr())
        assert got == _library_segment(path, strict, markers, informat, outformat)
        assert got == _records_segment(path, strict, markers, informat, outformat)


def _written_or_refused(write, *args, **kwargs):
    try:
        return write(*args, **kwargs)
    except (LineError, WriteError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(segment_texts(), columnar_texts()), st.integers(0, 40), st.booleans())
def test_relabel_columnar_hands_over_what_read_columnar_reads(text, chunk_chars, strict):
    """The records hand over the columns of each sentence ``read_columnar``
    reads, with the same errors, or under ``strict`` the same first one; with
    the labels those sentences carry, ``format._relabel_blocks`` joined
    writes what ``write_columnar`` writes."""
    reference_errors = []
    doc = read_columnar(text, errors=reference_errors)
    sentences = iter(doc.sentences)

    def keep(*columns):
        tokens = next(sentences).tokens
        assert list(columns) == [
            ["_" if t.is_space else t.surface for t in tokens],
            [t.pos for t in tokens],
            [t.ne for t in tokens],
            [t.is_space for t in tokens],
        ]
        return [t.clause for t in tokens], [(0, len(tokens))]

    errors = None if strict else []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        records = format_module.columnar_records(text, errors)
        written = _written_or_refused(lambda: "".join(format_module._relabel_blocks(records, keep)))
    if strict and reference_errors:
        assert written == (LineError, str(reference_errors[0]))
        assert written == _written_or_refused(read_columnar, text)
        return
    assert next(sentences, None) is None
    assert list(map(str, errors or ())) == list(map(str, reference_errors))
    assert written == _written_or_refused(write_columnar, doc)


class TestSegmentFromLines:
    def test_clean_fixtures_build_no_token(self, tmp_path, monkeypatch, capsys):
        """Every fixture is clean, so ``segment`` writes each one without the
        reader or ``segment_paragraphs``, to the bytes it gives with them."""
        expected = {}
        for name in _FIXTURE_NAMES:
            assert main(["segment", str(corpus_samples.FIXTURE_DIR / name)]) == 0
            expected[name] = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("a clean file went through the Token path")

        monkeypatch.setattr(format_module, "read_columnar", refuse)
        monkeypatch.setattr(segment_module, "segment_paragraphs", refuse)
        for name in _FIXTURE_NAMES:
            assert main(["segment", str(corpus_samples.FIXTURE_DIR / name)]) == 0
            assert capsys.readouterr() == expected[name]

    def test_a_bad_line_is_reported_and_left_out(self, tmp_path, capsys):
        """A file with a bad line is reported at that line and the rest of it
        is segmented as the file without that line is, and as the library
        path segments it."""
        lines = corpus_samples.fixture_text("glimpse.txt").split("\n")
        clean = tmp_path / "clean.txt"
        clean.write_text("\n".join(lines), encoding="utf-8")
        lines.insert(2, "broken line")
        draft = tmp_path / "draft.txt"
        draft.write_text("\n".join(lines), encoding="utf-8")
        assert main(["segment", str(clean)]) == 0
        segmented = capsys.readouterr().out
        assert main(["segment", str(draft)]) == 1
        located = "draft.txt: line 3: expected 4 tab-separated fields, got 1\n"
        assert capsys.readouterr() == (segmented, located)
        assert _library_segment(draft, False, None) == (1, segmented, located)
        assert main(["segment", "--strict", str(draft)]) == 1
        assert capsys.readouterr() == ("", located)


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

    def test_a_sentence_of_bad_lines_keeps_its_number(self, tmp_path, capsys):
        """A usage is located by its input sentence number: the second
        sentence below is only a bad line, and still counts."""
        source = tmp_path / "d.txt"
        source.write_text("ก\tNN\tO\tO\n\nbroken\n\nข\tVV\tO\tO\n", encoding="utf-8")
        assert main(["frames", "check", "--word", "ข", str(source)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("sentence 2, token 0: ")
        assert captured.err == "d.txt: line 3: expected 4 tab-separated fields, got 1\n"

    @pytest.mark.parametrize("informat, text", [
        ("columnar", "ก\tNN\tO\tO\n_\tPU\tO\tO\nข\tVV\tO\tO\n"),
        ("inline", "ก/NN | ␣/PU | ข/VV ||\n"),
    ])
    def test_the_token_index_skips_white_space(self, tmp_path, informat, text, capsys):
        """The printed token index counts only the sentence's tokens that are
        not white space: ``ข`` is input token 2, printed as token 1."""
        source = tmp_path / "d.txt"
        source.write_text(text, encoding="utf-8")
        assert main(["frames", "check", "--from", informat, "--word", "ข", str(source)]) == 0
        assert capsys.readouterr().out.startswith("sentence 0, token 1: ")

    def test_a_word_that_starts_with_a_dash_is_given_after_an_equals_sign(
        self, tmp_path, capsys
    ):
        """argparse reads ``--word -ก`` as an option with no value; the word is
        looked up as ``--word=-ก``."""
        source = tmp_path / "d.txt"
        source.write_text("-ก\tNN\tO\tO\nไป\tVV\tO\tO\n", encoding="utf-8")
        assert main(["frames", "check", str(source), "--word=-ก"]) == 0
        assert capsys.readouterr().out.startswith("sentence 0, token 0: ")

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
    files' format_report lines one after another."""

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
        assert self._run(["validate", str(path)], capsys)[1] == "".join(format_report(report, "a.txt"))

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


@pytest.fixture(scope="module")
def megabyte_files(tmp_path_factory):
    """A columnar file of at least 1 MiB of random documents, its inline form,
    each with a leading BOM, and the columnar file with CRLF line ends and
    with one bad line 40 lines before its end."""
    directory = tmp_path_factory.mktemp("megabyte")
    columnar, inline = directory / "d.txt", directory / "d.inline"
    columnar.write_text(corpus_samples.random_columnar_text(random.Random(30), 2**20), encoding="utf-8")
    assert main(["convert", "--to", "inline", str(columnar), "-o", str(inline)]) == 0
    files = {"columnar": columnar, "inline": inline}
    for name, path in list(files.items()):
        files[f"{name}-bom"] = directory / f"bom-{path.name}"
        files[f"{name}-bom"].write_bytes(BOM.encode("utf-8") + path.read_bytes())
    files["columnar-crlf"] = directory / "crlf-d.txt"
    files["columnar-crlf"].write_bytes(columnar.read_bytes().replace(b"\n", b"\r\n"))
    lines = columnar.read_text(encoding="utf-8").split("\n")
    files["columnar-bad"] = directory / "bad-d.txt"
    lines.insert(-40, "broken line")
    files["columnar-bad"].write_text("\n".join(lines), encoding="utf-8")
    return files


_INLINE_OUT = ["--to", "inline"]
_FROM_INLINE = ["--from", "inline"]
# The figures, as read on Python 3.10, of the cases whose peak dicts set:
# a dict takes more room before 3.11 (an issue's is 360 bytes there, against
# 272). The ids give 3.11's, the benchmark's interpreter.
_BEFORE_3_11 = {
    "validate-json-8.77": 10.67, "stats-json-0.15": 0.166, "stats-json-bad-line-0.13": 0.144,
}


@pytest.mark.parametrize(
    "argv, source, ratio",
    [
        pytest.param(["convert", *_INLINE_OUT], "columnar", 2.02, id="columnar-inline-2.02"),
        pytest.param(["convert", *_FROM_INLINE, "--to", "columnar"], "inline", 1.67, id="inline-columnar-1.67"),
        pytest.param(["convert", *_FROM_INLINE, *_INLINE_OUT], "inline", 1.81, id="inline-inline-1.81"),
        pytest.param(["convert", *_INLINE_OUT], "columnar-bom", 2.02, id="bom-columnar-inline-2.02"),
        pytest.param(["convert", *_FROM_INLINE, "--to", "columnar"], "inline-bom", 1.67, id="bom-inline-columnar-1.67"),
        pytest.param(["convert", *_INLINE_OUT], "columnar-crlf", 1.92, id="crlf-columnar-inline-1.92"),
        pytest.param(["segment", *_INLINE_OUT], "columnar", 2.15, id="segment-columnar-inline-2.15"),
        pytest.param(["segment", *_FROM_INLINE], "inline", 1.78, id="segment-inline-columnar-1.78"),
        pytest.param(["segment", *_FROM_INLINE, *_INLINE_OUT], "inline", 1.93, id="segment-inline-inline-1.93"),
        pytest.param(["frames", "check", "--word", "ไม่"], "columnar", 0.08, id="frames-check-0.08"),
        pytest.param(["validate"], "columnar", 5.09, id="validate-5.09"),
        pytest.param(["validate", "--json"], "columnar", 8.77, id="validate-json-8.77"),
        pytest.param(["stats", "--json"], "columnar", 0.15, id="stats-json-0.15"),
        pytest.param(["stats", "--json"], "columnar-bad", 0.13, id="stats-json-bad-line-0.13"),
    ],
)
def test_command_holds_its_output_not_its_input(request, tmp_path, megabyte_files, argv, source, ratio):
    # The heap peak as a multiple of the input file's size, as measured when
    # input files were read a block at a time, with 10% slack. The output
    # blocks set it, or for validate the report, and for validate --json the
    # report and its dicts; frames check holds little more than one block's
    # records, and stats one block's lines and its count of each tag tail or
    # table entry, whether its line tally reads the file or declines it for a
    # bad line. The file's whole text, a copy of the input made to drop its
    # BOM or its CRs, a joined copy of the output or of validate's report,
    # the encoded text of every issue at once, a tally of every distinct
    # line, a list of every token's labels or a Token per input token would
    # raise it.
    if sys.version_info < (3, 11):
        ratio = _BEFORE_3_11.get(request.node.callspec.id, ratio)
    source = megabyte_files[source]
    argv = [*argv, str(source), "-o", str(tmp_path / "out")]
    main(argv)  # one-time lazy set-up
    peak = _heap_peak(argv)
    assert peak <= 1.1 * ratio * source.stat().st_size, peak / source.stat().st_size


class TestRefusedWrite:
    """A refusal, or a bad line under ``--strict``, leaves the ``-o`` file as
    it was: the whole output is built before the file is opened."""

    @pytest.mark.parametrize(
        "argv, text, err",
        [
            (
                ["convert", "--from", "inline", "--to", "columnar"],
                "\ufeff\ufeffก/NN | ข/VV ||\nค/NN ||\n",  # the reader strips the first BOM only
                "first surface starting with U+FEFF is not representable: readers strip it",
            ),
            (
                ["segment", "--strict"],
                "ก\tNN\tO\tB_CLS\nข\tVV\tO\tE_CLS\n\nbroken line\n",
                "line 4: expected 4 tab-separated fields, got 1",
            ),
            (
                ["convert", "--to", "inline", "--strict"],
                "ก\tNN\tO\tO\n\nข\tQQ\tO\tO\n",
                "line 3: unknown POS tag 'QQ'",
            ),
        ],
        ids=["convert-refusal", "segment-strict", "convert-strict"],
    )
    def test_the_old_output_is_left_alone(self, tmp_path, capsys, argv, text, err):
        source, out = tmp_path / "d.txt", tmp_path / "out.txt"
        source.write_text(text, encoding="utf-8")
        out.write_bytes(b"old output\n")
        assert main([*argv, str(source), "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", f"d.txt: {err}\n")
        assert out.read_bytes() == b"old output\n"


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
            report = lint_document(doc, extra=[_format_issue(e) for e in errors])
        else:  # inline issues are located by input sentence, as the records number them
            records = format_module.inline_records(text, errors)
            report = lint_records(records, map(_format_issue, errors))
        argv = ["validate", "--json", "--from", informat]
        assert main([*argv, str(empty)]) == 0
        assert capsys.readouterr().out == "[]\n"
        assert main([*argv, str(path), str(empty)]) == 1
        assert capsys.readouterr().out == self._dumps(report.issues, path.name) + "\n"


# Columnar validate lints each input sentence from its columns
# (format.columnar_records and validate.lint_records), with no Token.


class TestValidateFromColumns:
    def test_a_sentence_of_bad_lines_keeps_its_number(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("ก\tNN\tO\tO\n\nbroken\n\nข\tNN\tI_PER\tO\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[1] == (
            "d.txt:2:0: error NE_ORPHAN_I [NE] I-label with no open span"
        )
        assert main(["validate", "--json", str(path)]) == 1
        entries = json.loads(capsys.readouterr().out)
        assert [(e["code"], e["sentence"], e["token"]) for e in entries] == [
            ("FORMAT_LINE", None, None), ("NE_ORPHAN_I", 2, 0),
        ]

    def test_a_token_index_counts_the_parsed_tokens(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("a\tNN\tO\tO\nb\tQQ\tO\tO\nc\tNN\tI_PER\tO\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "d.txt:0:1: error NE_ORPHAN_I" in capsys.readouterr().out

    @pytest.mark.parametrize("name", _FIXTURE_NAMES)
    def test_fixture_report_is_lint_document(self, name):
        text = corpus_samples.fixture_text(name)
        report = lint_records(format_module.columnar_records(text))
        assert report == lint_document(read_columnar(text))


class TestInlineInputNumbers:
    """Inline issues and usages are located by input sentence, as columnar
    ones are: a malformed sentence keeps its number."""

    def test_validate(self, tmp_path, capsys):
        path = tmp_path / "d.inline"
        path.write_text("a/QQ ||\nb/NN/I_PER ||\n", encoding="utf-8")
        assert main(["validate", "--from", "inline", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[:2] == [
            "d.inline:0:0: error FORMAT_TOKEN [FORMAT] inconsistent or missing annotation layers",
            "d.inline:1:0: error NE_ORPHAN_I [NE] I-label with no open span",
        ]
        assert main(["validate", "--json", "--from", "inline", str(path)]) == 1
        entries = json.loads(capsys.readouterr().out)
        assert [(e["code"], e["sentence"], e["token"]) for e in entries] == [
            ("FORMAT_TOKEN", 0, 0), ("NE_ORPHAN_I", 1, 0),
        ]

    def test_frames_check(self, tmp_path, capsys):
        path = tmp_path / "d.inline"
        path.write_text("a/QQ ||\nข/NN ||\n", encoding="utf-8")
        assert main(["frames", "check", "--from", "inline", "--word", "ข", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("sentence 1, token 0: ")
        assert captured.err == (
            "d.inline: sentence 0, token 0: inconsistent or missing annotation layers\n"
        )


_DAMAGE = (
    "drop-field", "add-field", "unknown-pos", "unknown-ne", "bad-clause", "empty-word",
    "cr-in-word", "cr-end", "blanks-line", "blank-line", "bad-sentence",
    "orphan-ne", "orphan-clause", "url-head", "punct", "space-nn", "space-in-word",
)


@st.composite
def damaged_columnar_texts(draw):
    """A random document's columnar text with lines damaged as files come: a
    field dropped or added, an unknown tag or label, an empty word, a CR in a
    word or at a line's end, a line of blanks, a blank line, a sentence of
    bad lines, and good lines that the lint rules flag; then maybe a BOM."""
    rng = draw(st.randoms(use_true_random=False))
    doc = corpus_samples.random_document(rng, max_sentences=5, max_tokens=6)
    lines = write_columnar(doc).split("\n")
    for kind in draw(st.lists(st.sampled_from(_DAMAGE), max_size=6)):
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split("\t")
        edits = {
            "drop-field": fields[:-1],
            "add-field": fields + ["O"],
            "unknown-pos": fields[:1] + ["QQ"] + fields[2:],
            "unknown-ne": fields[:2] + ["B_XYZ"] + fields[3:],
            "bad-clause": fields[:3] + ["b_cls"],
            "empty-word": [""] + fields[1:],
            "cr-in-word": [fields[0] + "\r"] + fields[1:],
            "cr-end": fields[:-1] + [fields[-1] + "\r"],
            "orphan-ne": fields[:2] + ["I_PER"] + fields[3:],
            "orphan-clause": fields[:3] + ["E_CLS"],
            "url-head": ["http://x.th"] + fields[1:],
            "punct": ["!"] + fields[1:],
            "space-nn": ["_", "NN"] + fields[2:],
            "space-in-word": ["ก ข"] + fields[1:],
        }
        if kind in edits:
            lines[at] = "\t".join(edits[kind])
        else:
            lines[at:at] = {"blanks-line": [" \t "], "blank-line": [""],
                            "bad-sentence": ["", "broken", "a\tQQ\tO\tO", ""]}[kind]
    return draw(st.sampled_from(["", BOM])) + "\n".join(lines)


def _message(error: tuple) -> str:
    """An oracle reader's error as the readers' errors print: ``(line, reason)``
    as a LineError, ``(sentence, token, reason)`` as a TokenError."""
    if len(error) == 2:
        return f"line {error[0]}: {error[1]}"
    return f"sentence {error[0]}, token {error[1]}: {error[2]}"


def _oracle_report(text: str):
    """The oracles' FORMAT_LINE line numbers and lint triples of ``text``, each
    input sentence linted at its input number, and the first bad line's
    message, or None."""
    errors = []
    triples = lint_oracle(read_columnar_lines(text, errors))
    return [line_no for line_no, _ in errors], triples, (_message(errors[0]) if errors else None)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damaged_columnar_texts(), st.integers(0, 40))
def test_validate_columns_against_the_oracles(tmp_path, capsys, text, chunk_chars):
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    bad_lines, triples, first = _oracle_report(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        code = main(["validate", "--json", str(path)])
        entries = json.loads(capsys.readouterr().out)
        strict_code = main(["validate", "--strict", str(path)])
        strict = capsys.readouterr()
    lines = [int(e["message"].split(":")[0].removeprefix("line "))
             for e in entries if e["code"] == "FORMAT_LINE"]
    assert lines == bad_lines
    issues = tuple(
        LintIssue(Severity(e["severity"]), e["code"], e["message"], e["sentence"], e["token"], e["layer"])
        for e in entries if e["code"] != "FORMAT_LINE"
    )
    assert _oracle_view(LintReport(issues)) == triples
    assert code == (1 if any(e["severity"] == "error" for e in entries) else 0)
    if first is None:
        assert strict_code == code
    else:
        assert (strict_code, strict.out, strict.err) == (1, "", f"d.txt: {first}\n")


def test_workload_commands_never_call_read_columnar(tmp_path, monkeypatch, capsys):
    """``convert --to inline``, ``frames check``, ``segment`` and ``stats``
    read columnar input as records, clean or not: with ``read_columnar``
    refusing, each gives the bytes and exit code it gives without that."""
    lines = corpus_samples.fixture_text("glimpse.txt").split("\n")
    lines[2:2] = ["broken line", "ก\tQQ\tO\tO"]
    draft = tmp_path / "draft.txt"
    draft.write_text("\n".join(lines), encoding="utf-8")
    paths = [str(corpus_samples.FIXTURE_DIR / name) for name in _FIXTURE_NAMES] + [str(draft)]
    argvs = [
        argv
        for path in paths
        for argv in (
            ["convert", "--to", "inline", path],
            ["frames", "check", path, "--word", "ไม่"],
            ["segment", path],
            ["stats", "--json", path],
            ["stats", path],
        )
    ]
    expected = []
    for argv in argvs:
        expected.append((main(argv), *capsys.readouterr()))
    assert expected[-5][0] == 1 and "draft.txt: line 4: unknown POS tag 'QQ'" in expected[-5][2]

    def refuse(*args, **kwargs):
        raise AssertionError("read_columnar was called")

    monkeypatch.setattr(format_module, "read_columnar", refuse)
    for argv, reference in zip(argvs, expected):
        assert (main(argv), *capsys.readouterr()) == reference, argv


def test_no_command_builds_a_token(tmp_path, monkeypatch, capsys):
    """Every command reads and writes either format through records: with the
    Token readers and writers, ``sentence_records``, ``_relabelled`` and Token
    itself refusing, ``validate`` (text and ``--json``), ``stats
    --json``, ``frames check``, ``convert`` both ways and ``segment`` in all
    four format pairs give the bytes and exit codes they give without that,
    permissive and under ``--strict``. The columnar inputs are the fixtures
    and a draft with two bad lines; the inline ones are the fixtures at each
    layer count, a file of URL surfaces, which hold slashes, and a file whose
    sentences take the chunk-by-chunk path: a bare glyph, an unknown tag and
    a tab in a surface."""
    lines = corpus_samples.fixture_text("glimpse.txt").split("\n")
    lines[2:2] = ["broken line", "ก\tQQ\tO\tO"]
    draft = tmp_path / "draft.txt"
    draft.write_text("\n".join(lines), encoding="utf-8")
    urls = tmp_path / "urls.inline"
    urls.write_text(
        "https://www.x.co.th/news/1/2/NN/O/O | ␣/PU/O/O | ดู/VV/O/B_CLS ||\n"
        "ที่/PS/O/O | http://a.th/b/NN/B_ORG/O ||\n",
        encoding="utf-8",
    )
    doubtful = tmp_path / "doubtful.inline"
    doubtful.write_text(
        "ไม่/NG/O/B_CLS | ␣ | ดู/VV/O/E_CLS ||\nก/QQ/O/O ||\nไม่/NG/O/O | ข\tค/NN/O/O ||\n"
        "ไม่/VV | ␣ ||\n",
        encoding="utf-8",
    )
    columnar = [corpus_samples.FIXTURE_DIR / name for name in _FIXTURE_NAMES] + [draft]
    inline = [urls, doubtful]
    for path in columnar[:-1]:
        sentences = read_columnar(path.read_text(encoding="utf-8")).sentences
        for layers in (2, 3, 4):
            inline.append(tmp_path / f"{path.stem}.{layers}.inline")
            inline[-1].write_text(write_inline(sentences, layers), encoding="utf-8")
    argvs = [
        [*argv, "--from", informat, str(path), *strict]
        for strict in ([], ["--strict"])
        for informat, paths in (("columnar", columnar), ("inline", inline))
        for path in paths
        for argv in (
            ["validate"],
            ["validate", "--json"],
            ["stats", "--json"],
            ["frames", "check", "--word", "ไม่"],
            ["convert", "--to", "inline" if informat == "columnar" else "columnar"],
            ["segment", "--to", "columnar"],
            ["segment", "--to", "inline"],
        )
    ]
    expected = []
    for argv in argvs:
        expected.append((main(argv), *capsys.readouterr()))
    assert {code for code, _, _ in expected} == {0, 1}

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return refused

    # The stand-ins go in format's globals, where the Token layer and a
    # command's fmt.X lookup read them. segment_paragraphs needs no stand-in:
    # it takes Tokens.
    names = ("Token", "_relabelled", "sentence_records", "read_columnar", "read_inline",
             "write_columnar", "write_inline")
    for name in names:
        monkeypatch.setattr(format_module, name, refuse(name))
    for argv, reference in zip(argvs, expected):
        assert (main(argv), *capsys.readouterr()) == reference, argv


def test_each_command_reads_its_input_once(tmp_path, monkeypatch, capsys):
    """How many times each command opens its input, counted at
    ``cli._read_pieces``, permissive and under ``--strict``, on a fixture, its
    inline form and the fixture with a bad line. Every command reads its input
    once but two: inline-to-inline ``convert`` reads it first for its layer
    count, and ``stats`` reads a columnar file with a bad line again for its
    records after its line tally is declined."""
    text = corpus_samples.fixture_text("glimpse.txt")
    clean = tmp_path / "clean.txt"
    clean.write_text(text, encoding="utf-8")
    draft = tmp_path / "draft.txt"
    draft.write_text(text.replace("\n", "\nbroken line\n", 1), encoding="utf-8")
    inline = tmp_path / "clean.inline"
    inline.write_text(write_inline(read_columnar(text).sentences), encoding="utf-8")
    reads = []
    read_pieces = cli._read_pieces

    def counted(path):
        reads.append(path)
        return read_pieces(path)

    monkeypatch.setattr(cli, "_read_pieces", counted)

    def expected_reads(argv, informat, path):
        if argv[0] == "convert" and informat == argv[-1] == "inline":
            return 2  # first for the layer count
        if argv[0] == "stats" and path == draft:
            return 2  # the declined tally, then the records
        return 1

    commands = [
        ["validate"],
        ["validate", "--json"],
        ["stats", "--json"],
        ["frames", "check", "--word", "ไม่"],
        *(["convert", "--to", to] for to in ("columnar", "inline")),
        *(["segment", "--to", to] for to in ("columnar", "inline")),
    ]
    for strict in ([], ["--strict"]):
        for informat, path in (("columnar", clean), ("columnar", draft), ("inline", inline)):
            for argv in commands:
                reads.clear()
                status = main([*argv, "--from", informat, str(path), *strict, "-o", str(tmp_path / "out")])
                capsys.readouterr()
                assert status in (0, 1), argv
                assert reads == [path] * expected_reads(argv, informat, path), (argv, path.name, strict)


def _reported_lines(err: str, name: str = "d.txt") -> list[int]:
    """The line numbers of ``name: line N: reason`` lines on stderr; any
    other line fails."""
    numbers = []
    for line in err.splitlines():
        assert line.startswith(f"{name}: line "), line
        numbers.append(int(line.split(":")[1].removeprefix(" line ")))
    return numbers


def _usage_oracle(text: str, word: str) -> list[tuple[int, int]]:
    """Each usage of ``word`` as ``frames check`` locates it: the input
    sentence number and the index among that sentence's tokens that are not
    white space."""
    return _usages(read_columnar_lines(text, []), word)


def _usages(records, word: str) -> list[tuple[int, int]]:
    """Each usage of ``word`` in an oracle reader's records, at its sentence's
    input number and its index among the sentence's words that are not white space."""
    usages = []
    for number, words, _, spaces in records:
        content = [w for w, space in zip(words, spaces) if not space]
        usages += [(number, i) for i, w in enumerate(content) if w == word]
    return usages


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damaged_columnar_texts(), st.integers(0, 40), st.integers(0, 10**6))
def test_columnar_commands_account_for_every_line(tmp_path, capsys, text, chunk_chars, pick):
    """Every line of a damaged columnar file is a token that ``convert --to
    inline`` writes and ``stats`` counts, or a bad line that they report;
    ``segment`` writes every token that is not white space (it drops white
    space between sentences), and ``frames check`` finds every usage of a
    word at its input sentence. Each bad line is reported at its number, on
    stderr with exit 1, except by ``stats``, which only counts it in
    ``format_errors``; under ``--strict`` each names the first bad line. A
    word that starts with white space (a CR in an emptied word) cannot be
    written inline: ``convert`` then writes nothing, and its refusal follows
    the bad lines."""
    errors = []
    records = read_columnar_lines(text, errors)
    bad = [line_no for line_no, _ in errors]
    words = [w for _, sentence, _, _ in records for w in sentence]
    spaces = [f for _, _, _, flags in records for f in flags]
    word = words[pick % len(words)] if words else "ก"
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    argvs = {
        "convert": ["convert", "--to", "inline", str(path)],
        "segment": ["segment", str(path)],
        "stats": ["stats", "--json", str(path)],
        "frames": ["frames", "check", str(path), f"--word={word}"],
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(format_module, "_CHUNK_CHARS", chunk_chars)
        runs = {}
        for name, argv in argvs.items():
            runs[name] = (main(argv), *capsys.readouterr())
            strict = (main([*argv, "--strict"]), *capsys.readouterr())
            if errors:
                assert (strict[0], strict[2]) == (1, f"d.txt: {_message(errors[0])}\n"), name
    status = 1 if bad else 0
    code, out, err = runs["convert"]
    if any(w.lstrip() != w for w in words):
        *located, refusal = err.splitlines(keepends=True)
        assert (code, out, _reported_lines("".join(located))) == (1, "", bad)
        assert refusal.startswith("d.txt: surface ") and refusal.endswith("not representable inline\n")
    else:
        assert (code, _reported_lines(err)) == (status, bad)
        assert sum(line.count(" | ") + 1 for line in out.split("\n") if line) == len(words)
    code, out, err = runs["segment"]
    assert (code, _reported_lines(err)) == (status, bad)
    written = [line for line in out.split("\n") if line and not line.startswith("_\t")]
    assert len(written) == spaces.count(False)
    code, out, err = runs["stats"]
    payload = json.loads(out)
    assert (code, err, payload["format_errors"]) == (0, "", len(bad))
    assert payload["counts"]["tokens"] + payload["format_errors"] == len(words) + len(bad)
    code, out, err = runs["frames"]
    assert (code, _reported_lines(err)) == (status, bad)
    located = [tuple(map(int, line.split(":")[0].removeprefix("sentence ").split(", token ")))
               for line in out.splitlines()[:-1] if line.startswith("sentence ")]
    assert located == _usage_oracle(text, word)


def _inline_usage_oracle(text: str, word: str) -> list[tuple[int, int]]:
    """:func:`_usage_oracle` of inline text: each usage of ``word`` at its
    input sentence number and its index among the sentence's tokens that are
    not white space."""
    return _usages(read_inline_two_pass(text, []), word)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damaged_inline_texts(), st.integers(0, 10**6))
def test_inline_commands_account_for_every_sentence(tmp_path, capsys, text, pick):
    """Every input sentence of a damaged inline file is one whose tokens
    ``convert --to columnar`` writes and ``stats`` counts, or a bad one that
    they report; ``frames check`` finds every usage of a word, and
    ``validate --json`` every issue the oracles find, at its input sentence.
    Each bad sentence is reported, as the two-pass reference reads it, on
    stderr with exit 1, except by ``stats``, which only counts it in
    ``format_errors``; under ``--strict`` each names the first one. A first
    surface that starts with a BOM cannot be written: ``convert`` then
    writes nothing, and its refusal follows the bad sentences. ``convert
    --to inline`` writes each sentence read, and ``segment`` each token that
    is not white space, with its word, POS and NE as read."""
    errors = []
    records = read_inline_two_pass(text, errors)
    words = [w for _, sentence, _, _ in records for w in sentence]
    word = words[pick % len(words)] if words else "ก"
    path = tmp_path / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    argvs = {
        "convert": ["convert", "--from", "inline", "--to", "columnar", str(path)],
        "to-inline": ["convert", "--from", "inline", "--to", "inline", str(path)],
        "segment": ["segment", "--from", "inline", str(path)],
        "stats": ["stats", "--from", "inline", "--json", str(path)],
        "frames": ["frames", "check", "--from", "inline", str(path), f"--word={word}"],
        "validate": ["validate", "--from", "inline", "--json", str(path)],
    }
    runs = {}
    for name, argv in argvs.items():
        runs[name] = (main(argv), *capsys.readouterr())
        strict = (main([*argv, "--strict"]), *capsys.readouterr())
        if errors:
            assert (strict[0], strict[2]) == (1, f"d.txt: {_message(errors[0])}\n"), name
    status = 1 if errors else 0
    reported = "".join(f"d.txt: {_message(error)}\n" for error in errors)
    refusal = "d.txt: first surface starting with U+FEFF is not representable: readers strip it\n"
    code, out, err = runs["convert"]
    if words and words[0].startswith(BOM):
        assert (code, out, err) == (1, "", reported + refusal)
    else:
        assert (code, err) == (status, reported)
        assert len([line for line in out.split("\n") if line]) == len(words)
    # Each sentence read at its input number, in order, is one line of the
    # inline output, at the input's layer count.
    code, out, err = runs["to-inline"]
    if words and words[0].startswith(BOM):
        assert (code, out, err) == (1, "", reported + refusal)
    else:
        assert (code, err) == (status, reported)
        by_number = [(number, *record[1:]) for number, sentence in enumerate(inline_input_sentences(text))
                     for record in read_inline_two_pass(sentence, [])]
        assert by_number == records
        reread_errors = []
        reread = read_inline_two_pass(BOM + out, reread_errors)
        assert ([r[1:] for r in reread], reread_errors) == ([r[1:] for r in records], [])
        assert out.count("\n") == len(records)
    code, out, err = runs["segment"]
    content = [
        (w, labels[0], labels[1])
        for _, sentence, tags, spaces in records
        for w, labels, space in zip(sentence, tags, spaces)
        if not space
    ]
    if code == 1 and err.endswith(refusal):
        assert (out, err) == ("", reported + refusal)
        assert content[0][0].startswith(BOM)
    else:
        assert (code, err) == (status, reported)
        lines = [line.split("\t") for line in out.split("\n") if line]
        assert [tuple(fields[:3]) for fields in lines if fields[0] != "_"] == content
    code, out, err = runs["stats"]
    payload = json.loads(out)
    assert (code, err, payload["format_errors"]) == (0, "", len(errors))
    assert payload["counts"]["tokens"] == len(words)
    code, out, err = runs["frames"]
    assert (code, err) == (status, reported)
    located = [tuple(map(int, line.split(":")[0].removeprefix("sentence ").split(", token ")))
               for line in out.splitlines()[:-1] if line.startswith("sentence ")]
    assert located == _inline_usage_oracle(text, word)
    code, out, err = runs["validate"]
    entries = json.loads(out)
    assert [(e["sentence"], e["token"], e["message"]) for e in entries if e["code"] == "FORMAT_TOKEN"] == errors
    issues = tuple(
        LintIssue(Severity(e["severity"]), e["code"], e["message"], e["sentence"], e["token"], e["layer"])
        for e in entries if e["code"] != "FORMAT_TOKEN"
    )
    assert _oracle_view(LintReport(issues)) == lint_oracle(records)
    assert code == (1 if any(e["severity"] == "error" for e in entries) else 0)
