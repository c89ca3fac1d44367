"""Command-line front end: validate / convert / segment / stats / frames.

Exit codes: 0 success (and no lint errors), 1 lint errors, conversion
failures or an input file that cannot be read, 2 usage, IO or configuration
problems. Diagnostics go to stderr; data goes to stdout or the ``--output``
path.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import os
import stat
import sys
from collections import Counter, deque
from itertools import compress
from operator import not_
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import format as fmt
from .format import FORMAT_COLUMNAR, FORMAT_INLINE

# Every command reads through format; each other module is imported by the
# commands that run it, so a call loads only the code it uses.
if TYPE_CHECKING:
    from .frames import FrameSet
    from .segment import MarkerLexicon
    from .stats import CorpusCounts
    from .validate import LintReport

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_USAGE = 2
_READ_BYTES = 2048  # an input file is read and decoded this many bytes at a time
_JSON_BATCH = 256  # validate --json encodes this many issues at a time


def format_report(report: LintReport, filename: str = "") -> list[str]:
    """Render a lint report as human-readable text: its lines, each with its
    newline, to be written one after another."""
    prefix = f"{filename}:" if filename else ""
    lines = []
    for issue in report.issues:
        where = (
            f"{issue.sentence}:{issue.token}"
            if issue.sentence is not None
            else "-:-"
        )
        severity = issue.severity.value
        lines.append(f"{prefix}{where}: {severity} {issue.code} [{issue.layer}] {issue.message}\n")
    summary = f"{report.error_count} errors, {report.warning_count} warnings\n"
    lines.append(f"{filename}: {summary}" if filename else summary)
    return lines


def _json_entries(entries: list[dict]) -> str:
    """``json.dumps(entries, ensure_ascii=False, indent=2)[2:-2]`` of a
    non-empty list of flat dicts, the same text. json escapes a newline inside
    a string, so every newline of the encoded text is in a separator, and the
    separators after a "}" are those between two entries."""
    # Imported here, so that a call that writes no JSON does not pay for json.
    # json.dumps(indent=2) runs json's pure-Python encoder. With no indent the
    # C encoder runs, and with this item separator it writes a flat dict's
    # fields as indent=2 writes those of an entry of a list.
    from json import JSONEncoder

    encode = JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode
    body = encode(entries)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return f"  {{\n    {body}\n  }}"


def _expand_inputs(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        if path.is_dir():
            # Every entry is kept, so that reading one that is not a regular
            # file (a subdirectory, a dangling link, a FIFO) reports it:
            # inputs are not searched recursively.
            files.extend(sorted(path.iterdir()))
        elif path.exists():  # reading reports a FIFO or device unopened
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {name}")
    return files


class _BadInput(Exception):
    """An input file that cannot be read, is not UTF-8 or, under ``--strict``,
    does not parse, or an entry of a directory input that is not a regular file.

    Reported as ``name: reason`` with exit 1; validate and stats go on.
    """


def _read_pieces(path: Path) -> Iterator[str]:
    """An input file's text in pieces, decoded ``_READ_BYTES`` at a time: no
    command holds a whole file. A file that is not UTF-8 is named with the
    error of decoding it whole, at its position in the file. Only a regular
    file is opened: reading a FIFO or device may block. Line ends are left as
    they are, for the readers' own rules."""
    try:
        mode = path.stat().st_mode
        if stat.S_ISDIR(mode):
            raise _BadInput(f"{path.name}: is a directory; subdirectories are not read")
        if not stat.S_ISREG(mode):
            raise _BadInput(f"{path.name}: not a regular file")
        decode = codecs.getincrementaldecoder("utf-8")().decode
        with open(path, "rb", buffering=0) as file:
            while block := file.read(_READ_BYTES):
                yield decode(block)
        yield decode(b"", final=True)
    except UnicodeDecodeError as exc:
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:  # the error at its position in the file
            exc = whole
        raise _BadInput(f"{path.name}: {exc}") from None
    except OSError as exc:  # a dangling link, a link loop, no read permission
        raise _BadInput(f"{path.name}: {exc.strerror}") from None


def _load_config(name: str, parse):
    """Read and parse a --lexicon, --manifest or --frames file.

    A leading BOM is dropped, as the input readers drop it. A file that is
    not UTF-8 or does not parse is named, and is exit 2, not 1.
    """
    path = Path(name)
    try:
        return parse(path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def _one_input(args, name: str) -> Path:
    """The input of a command that takes one file; each entry of a directory
    input counts as a file."""
    inputs = _expand_inputs(args.inputs)
    if len(inputs) != 1:
        raise ValueError(f"{name} takes exactly one input file")
    return inputs[0]


@contextlib.contextmanager
def _reading(path: Path, args):
    """The input's records, read from its :func:`_read_pieces` by ``--from``'s reader,
    and the list of its bad lines or sentences: empty under ``--strict``, where the
    first one is raised. A reader's error or a writer's refusal is reported as ``name:
    reason`` once the rest of the input is decoded: a bad byte later in the file is
    reported instead. After a WriteError the rest of the records is read, and its bad
    lines are printed before the refusal; a bad byte is reported alone."""
    read = fmt.columnar_records if args.informat == FORMAT_COLUMNAR else fmt.inline_records
    errors: list = []
    pieces = _read_pieces(path)
    records = read(pieces, None if args.strict else errors)
    try:
        try:
            yield records, errors
        except fmt.WriteError:
            deque(records, maxlen=0)  # under --strict, a later bad line is reported instead
            _print_format_issues(path, errors)
            raise
    except fmt.FormatError as exc:
        deque(pieces, maxlen=0)
        raise _BadInput(f"{path.name}: {exc}") from None


def _print_format_issues(path: Path, errors: Sequence[fmt.FormatError]) -> int:
    """Report parse problems as ``name: {err}`` on stderr; exit 1 if any."""
    for err in errors:
        print(f"{path.name}: {err}", file=sys.stderr)
    return EXIT_ISSUES if errors else EXIT_OK


def _open_output(args, inputs: Sequence[Path], config: Optional[str] = None):
    """The ``--output`` file, or stdout, as a context manager; refuses a path
    that is one of the ``inputs`` or the ``config`` file the command read."""
    if args.output is None:
        return contextlib.nullcontext(sys.stdout)
    out = Path(args.output)
    try:
        target = out.stat()
    except FileNotFoundError:  # a path that does not exist is no input
        target = None
    read = [*inputs, Path(config)] if config else inputs
    if target is not None and any(_same_file(target, p) for p in read):
        raise ValueError(f"refusing to overwrite input path {out}")
    return open(out, "w", encoding="utf-8", newline="")


def _same_file(target: os.stat_result, path: Path) -> bool:
    try:
        return os.path.samestat(target, path.stat())
    except OSError:  # a dangling link is reported when it is read
        return False


def _write(output, pieces: Sequence[str]) -> None:
    """Write the pieces of an output built before ``output`` was opened, not joined."""
    with output as out:
        out.writelines(pieces)


def _cmd_validate(args) -> int:
    from . import validate as validate_mod

    inputs = _expand_inputs(args.inputs)
    had_errors = False
    sep = "[\n"  # what --json writes before the next file's entries

    def lint(path: Path) -> None:
        # One file's read, lint and write, so nothing of it is alive while
        # the next file is read.
        nonlocal had_errors, sep
        with _reading(path, args) as (records, errors):  # linted from its columns, with no Token
            report = validate_mod.lint_records(records, map(validate_mod._format_issue, errors))
        had_errors |= report.error_count > 0
        if not args.json:
            out.writelines(format_report(report, path.name))
        elif entries := report.to_dicts():
            for entry in entries:
                entry["file"] = path.name
            for start in range(0, len(entries), _JSON_BATCH):  # no whole-report text is built
                out.write(sep + _json_entries(entries[start : start + _JSON_BATCH]))
                sep = ",\n"

    with _open_output(args, inputs) as out:
        for path in inputs:
            try:
                lint(path)
            except _BadInput as exc:
                print(exc, file=sys.stderr)
                had_errors = True
        if args.json:
            out.write("[]\n" if sep == "[\n" else "\n]\n")
    return EXIT_ISSUES if had_errors else EXIT_OK


def _cmd_convert(args) -> int:
    """Both formats keep all four layers: inline input defaults missing ones
    to O. Inline to inline keeps the input's layer count. Either format is
    written from the input's records, with no Token."""
    path = _one_input(args, "convert")
    with _reading(path, args) as (records, errors):
        if args.outformat == FORMAT_COLUMNAR:
            blocks = fmt._columnar_blocks(records)
        elif args.informat == FORMAT_COLUMNAR:
            blocks = fmt._inline_blocks(records, 4)
        else:  # inline to inline reads the input twice: first for its layer count
            blocks = fmt._inline_blocks(records, fmt.inline_layer_count(_read_pieces(path)))
    status = _print_format_issues(path, errors)
    _write(_open_output(args, [path]), blocks)
    return status


def _load_lexicon(args) -> Optional[MarkerLexicon]:
    """The ``--lexicon`` file's lexicon, or None for the default one."""
    from . import segment as segment_mod

    if args.lexicon:
        return _load_config(args.lexicon, segment_mod.load_marker_lexicon)
    return None


def _cmd_segment(args) -> int:
    """Each input sentence block (columnar) or line (inline) is one paragraph,
    segmented from the input's records, with no Token. Columnar input written
    back as columnar keeps its lines, relabelled (``format._relabel_blocks``);
    any other pair writes ``segment.segment_records`` with the block writers."""
    from . import segment as segment_mod

    path = _one_input(args, "segment")
    lexicon = _load_lexicon(args)
    with _reading(path, args) as (records, errors):
        if args.informat == args.outformat == FORMAT_COLUMNAR:
            relabel = functools.partial(segment_mod._segment_columns, lexicon=lexicon)
            blocks = fmt._relabel_blocks(records, relabel)
        elif args.outformat == FORMAT_COLUMNAR:
            blocks = fmt._columnar_blocks(segment_mod.segment_records(records, lexicon))
        else:  # inline output carries all four layers
            blocks = fmt._inline_blocks(segment_mod.segment_records(records, lexicon), 4)
    status = _print_format_issues(path, errors)
    _write(_open_output(args, [path], args.lexicon), blocks)
    return status


def _count_file(path: Path, args) -> tuple[CorpusCounts, int]:
    """One file's counts and format-error count. A clean columnar file is
    counted from its lines, any other file from its records: a columnar file
    that is not clean is read a second time."""
    from . import stats as stats_mod

    if args.informat == FORMAT_COLUMNAR and (tally := fmt.tally_columnar(_read_pieces(path))):
        return stats_mod.tally_counts(tally, args.include_spaces), 0
    with _reading(path, args) as (records, errors):  # all read before the errors are counted
        return stats_mod.records_counts(records, args.include_spaces), len(errors)


def _cmd_stats(args) -> int:
    from . import stats as stats_mod

    inputs = _expand_inputs(args.inputs)
    genres = {}
    if args.manifest:
        genres = _load_config(args.manifest, stats_mod.load_manifest)
    totals = stats_mod.CorpusCounts()
    genre_hist: Counter = Counter()
    format_errors = 0
    skipped = False
    for path in inputs:
        try:
            counts, errors = _count_file(path, args)
        except _BadInput as exc:
            print(exc, file=sys.stderr)
            skipped = True
            continue
        totals += counts
        genre_hist[genres.get(path.name) or genres.get(path.stem) or "unknown"] += 1
        format_errors += errors
    if args.json:
        import json

        payload = {
            "counts": totals.to_dict(),
            "format_errors": format_errors,
            "genres": dict(sorted(genre_hist.items())),
            "pos": dict(sorted(totals.pos.items())),
            "ne": dict(sorted(totals.ne.items())),
        }
        output = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        lines = [f"{name}\t{value}" for name, value in totals.to_dict().items()]
        lines.append(f"format_errors\t{format_errors}")
        for title, hist in (("genre", genre_hist), ("pos", totals.pos), ("ne", totals.ne)):
            for key, count in sorted(hist.items()):
                lines.append(f"{title}:{key}\t{count}")
        output = "\n".join(lines) + "\n"
    _write(_open_output(args, inputs, args.manifest), [output])
    return EXIT_ISSUES if skipped else EXIT_OK


def _load_frameset(args) -> FrameSet:
    from . import frames as frames_mod

    if args.frames:
        return _load_config(args.frames, frames_mod.load_frameset)
    return frames_mod.default_frameset()


def _cmd_frames(args) -> int:
    from . import frames as frames_mod

    frameset = _load_frameset(args)
    if args.frames_command == "dump":
        _write(_open_output(args, [], args.frames), [frames_mod.dump_frameset(frameset)])
        return EXIT_OK
    # frames check: each usage is located by its input sentence number and
    # its index among the sentence's tokens that are not white space.
    path = _one_input(args, "frames check")
    matched_ids: set[str] = set()
    lines = []
    with _reading(path, args) as (records, errors):
        for number, words, labels, spaces in records:
            if args.word in words:  # a C-level test that most sentences fail
                kept = list(map(not_, spaces))
                content = list(compress(words, kept))
                tags = list(compress(map(fmt._FIRST, labels), kept))  # the POS column
                for index in [i for i, word in enumerate(content) if word == args.word]:
                    matched = frames_mod.classify_instance(tags, index, frameset)
                    matched_ids.update(matched)
                    ids = " ".join(sorted(matched)) or "-"
                    lines.append(f"sentence {number}, token {index}: {ids}")
    status = _print_format_issues(path, errors)
    classes = frames_mod.classify_lexeme(matched_ids)
    if not lines:
        lines.append(f"no occurrences of {args.word!r}")
    lines.append("classes: " + (" ".join(sorted(classes)) if classes else "-"))
    _write(_open_output(args, [path], args.frames), ["\n".join(lines), "\n"])
    return status


@functools.cache  # parsing leaves the parser as it was, so one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lst20",
        description="Validate, convert, segment and count LST20-style annotated Thai text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = (FORMAT_COLUMNAR, FORMAT_INLINE)

    def add_common(p, many_inputs=False):
        nargs = "+" if many_inputs else 1
        p.add_argument("inputs", nargs=nargs, metavar="PATH")
        p.add_argument("--from", dest="informat", choices=formats, default=FORMAT_COLUMNAR)
        p.add_argument("--strict", action="store_true", help="abort on the first parse error")
        p.add_argument("-o", "--output", default=None, help="write data here instead of stdout")

    p_validate = sub.add_parser("validate", help="lint annotation layers")
    add_common(p_validate, many_inputs=True)
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_convert = sub.add_parser("convert", help="convert between columnar and inline")
    add_common(p_convert)
    p_convert.add_argument("--to", dest="outformat", choices=formats, required=True)
    p_convert.set_defaults(func=_cmd_convert)

    p_segment = sub.add_parser(
        "segment",
        help="detect clause boundaries and sentence breaks "
        "(each input sentence block or line is treated as a paragraph)",
    )
    add_common(p_segment)
    p_segment.add_argument("--to", dest="outformat", choices=formats, default=FORMAT_COLUMNAR)
    p_segment.add_argument("--lexicon", default=None, help="marker lexicon config file")
    p_segment.set_defaults(func=_cmd_segment)

    p_stats = sub.add_parser("stats", help="corpus counts and tag histograms")
    add_common(p_stats, many_inputs=True)
    p_stats.add_argument("--manifest", default=None, help="document-id to genre map")
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument(
        "--include-spaces", action="store_true", help="count white-space tokens as words"
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_frames = sub.add_parser("frames", help="distributional test frames")
    frames_sub = p_frames.add_subparsers(dest="frames_command", required=True)
    p_dump = frames_sub.add_parser("dump", help="print the frame definitions")
    p_dump.add_argument("--frames", default=None, help="frame definition file")
    p_dump.add_argument("-o", "--output", default=None)
    p_dump.set_defaults(func=_cmd_frames)
    p_check = frames_sub.add_parser(
        "check", help="match a word's attested usages against the frames"
    )
    add_common(p_check)
    p_check.add_argument("--word", required=True, help="surface form to look up")
    p_check.add_argument("--frames", default=None, help="frame definition file")
    p_check.set_defaults(func=_cmd_frames)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as exc:
        print(exc, file=sys.stderr)
        return EXIT_ISSUES
    except (OSError, ValueError) as exc:
        print(f"lst20: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
