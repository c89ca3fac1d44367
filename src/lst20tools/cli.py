"""Command-line front end: validate / convert / segment / stats / frames.

Exit codes: 0 success (and no lint errors), 1 lint errors, conversion
failures or an input file that cannot be read, 2 usage, IO or configuration
problems. Diagnostics go to stderr; data goes to stdout or the ``--output``
path.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from . import format as fmt
from . import frames as frames_mod
from . import segment as segment_mod
from . import stats as stats_mod
from . import validate as validate_mod
from .format import FORMAT_COLUMNAR, FORMAT_INLINE, Document
from .validate import LintIssue, LintReport, Severity

EXIT_OK = 0
EXIT_ISSUES = 1
EXIT_USAGE = 2


def format_report(report: LintReport, filename: str = "") -> str:
    """Render a lint report as human-readable text."""
    prefix = f"{filename}:" if filename else ""
    lines = []
    for issue in report.issues:
        where = (
            f"{issue.sentence}:{issue.token}"
            if issue.sentence is not None
            else "-:-"
        )
        lines.append(
            f"{prefix}{where}: {issue.severity.value} {issue.code} [{issue.layer}] {issue.message}"
        )
    summary = f"{report.error_count} errors, {report.warning_count} warnings"
    lines.append(f"{filename}: {summary}" if filename else summary)
    return "\n".join(lines) + "\n"


# json.dumps(indent=2) runs json's pure-Python encoder. With no indent the C
# encoder runs, and with this item separator it writes a flat dict's fields as
# indent=2 writes those of an entry of a list.
_encode_fields = json.JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode


def _json_entries(entries: list[dict]) -> str:
    """``json.dumps(entries, ensure_ascii=False, indent=2)[2:-2]`` of a
    non-empty list of flat dicts, the same text. json escapes a newline inside
    a string, so every newline of the encoded text is in a separator, and the
    separators after a "}" are those between two entries."""
    body = _encode_fields(entries)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
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


def _read_text(path: Path) -> str:
    """Every input file is read here, so every command names one that is not
    UTF-8. Only a regular file is opened: reading a FIFO or device may block.
    Line ends are left as they are, for the readers' own rules: a CR is a
    line end only before LF."""
    try:
        mode = path.stat().st_mode
        if stat.S_ISDIR(mode):
            raise _BadInput(f"{path.name}: is a directory; subdirectories are not read")
        if not stat.S_ISREG(mode):
            raise _BadInput(f"{path.name}: not a regular file")
        with open(path, encoding="utf-8", newline="") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise _BadInput(f"{path.name}: {exc}") from None
    except OSError as exc:  # a dangling link, a link loop, no read permission
        raise _BadInput(f"{path.name}: {exc.strerror}") from None


def _load_config(name: str, parse):
    """Read and parse a --lexicon, --manifest or --frames file.

    A file that is not UTF-8 or does not parse is named, and is exit 2, not 1.
    """
    path = Path(name)
    try:
        return parse(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def _one_input(args, name: str) -> Path:
    """The input of a command that takes one file; each entry of a directory
    input counts as a file."""
    inputs = _expand_inputs(args.inputs)
    if len(inputs) != 1:
        raise ValueError(f"{name} takes exactly one input file")
    return inputs[0]


def _parse_document(text: str, path: Path, informat: str, strict: bool):
    """Parse one input file; returns (Document, the readers' LineError/TokenError list)."""
    errors: Optional[list] = None if strict else []
    try:
        if informat == FORMAT_COLUMNAR:
            doc = fmt.read_columnar(text, path.name, errors=errors)
        else:
            sentences = fmt.read_inline(text, errors=errors)
            doc = Document(path.name, tuple(sentences))
    except fmt.FormatError as exc:
        raise _BadInput(f"{path.name}: {exc}") from None
    return doc, errors or []


def _format_issue(err: fmt.FormatError) -> LintIssue:
    """A reader's LineError or TokenError as a FORMAT_LINE/FORMAT_TOKEN lint issue."""
    if isinstance(err, fmt.LineError):
        return LintIssue(
            Severity.ERROR, "FORMAT_LINE", str(err), None, None, validate_mod.LAYER_FORMAT
        )
    return LintIssue(
        Severity.ERROR,
        "FORMAT_TOKEN",
        err.reason,
        err.sentence,
        err.token,
        validate_mod.LAYER_FORMAT,
    )


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


def _serialize(path: Path, doc: Document, outformat: str, layers: int = 4) -> str:
    """``doc`` written in ``outformat``. What that format cannot represent is
    reported as ``name: reason``, with exit 1."""
    try:
        if outformat == FORMAT_COLUMNAR:
            return fmt.write_columnar(doc)
        return fmt.write_inline(doc.sentences, layers)
    except fmt.WriteError as exc:
        raise _BadInput(f"{path.name}: {exc}") from None


def _write(output, text: str) -> None:
    with output as out:
        out.write(text)


def _cmd_validate(args) -> int:
    inputs = _expand_inputs(args.inputs)
    had_errors = False
    sep = "[\n"  # what --json writes before the next file's entries

    def lint(path: Path) -> None:
        # One file's read, lint and write, so nothing of it is alive while
        # the next file is read.
        nonlocal had_errors, sep
        doc, errors = _parse_document(_read_text(path), path, args.informat, args.strict)
        report = validate_mod.lint_document(doc, extra=[_format_issue(e) for e in errors])
        had_errors |= report.error_count > 0
        if not args.json:
            out.write(format_report(report, path.name))
        elif entries := report.to_dicts():
            for entry in entries:
                entry["file"] = path.name
            out.write(sep + _json_entries(entries))
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
    to O. Inline to inline keeps the input's layer count."""
    path = _one_input(args, "convert")
    text = _read_text(path)
    doc, errors = _parse_document(text, path, args.informat, args.strict)
    status = _print_format_issues(path, errors)
    layers = 4
    if args.informat == args.outformat == FORMAT_INLINE:
        layers = fmt.inline_layer_count(text)
    output = _serialize(path, doc, args.outformat, layers)
    _write(_open_output(args, [path]), output)
    return status


def _load_lexicon(args) -> Optional[segment_mod.MarkerLexicon]:
    """The ``--lexicon`` file's lexicon, or None for the default one."""
    if args.lexicon:
        return _load_config(args.lexicon, segment_mod.load_marker_lexicon)
    return None


def _segment_file(path: Path, args) -> tuple[list, int]:
    """The segmented sentences of one input and its exit status so far. The
    input document and the lexicon are gone on return, so neither is alive
    while the output is written."""
    lexicon = _load_lexicon(args)
    doc, errors = _parse_document(_read_text(path), path, args.informat, args.strict)
    status = _print_format_issues(path, errors)
    # Each input sentence block (columnar) or line (inline) is one paragraph.
    sentences, _ = segment_mod.segment_paragraphs(
        [s.tokens for s in doc.sentences], lexicon, subject_shift=args.subject_shift
    )
    return sentences, status


def _cmd_segment(args) -> int:
    path = _one_input(args, "segment")
    sentences, status = _segment_file(path, args)
    output = _serialize(path, Document(path.stem, tuple(sentences)), args.outformat)
    _write(_open_output(args, [path], args.lexicon), output)
    return status


def _count_file(path: Path, args) -> tuple[stats_mod.CorpusCounts, int]:
    """One file's counts and format-error count. A clean columnar file is
    counted from its lines; any other is read into a Document, gone on return."""
    text = _read_text(path)
    if args.informat == FORMAT_COLUMNAR:
        tally = fmt.tally_columnar(text)
        if tally is not None:
            return stats_mod.tally_counts(tally, args.include_spaces), 0
    doc, errors = _parse_document(text, path, args.informat, args.strict)
    return stats_mod.document_counts(doc, args.include_spaces), len(errors)


def _cmd_stats(args) -> int:
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
    _write(_open_output(args, inputs, args.manifest), output)
    return EXIT_ISSUES if skipped else EXIT_OK


def _load_frameset(args) -> frames_mod.FrameSet:
    if args.frames:
        return _load_config(args.frames, frames_mod.load_frameset)
    return frames_mod.default_frameset()


def _cmd_frames(args) -> int:
    frameset = _load_frameset(args)
    if args.frames_command == "dump":
        _write(_open_output(args, [], args.frames), frames_mod.dump_frameset(frameset))
        return EXIT_OK
    # frames check
    path = _one_input(args, "frames check")
    doc, errors = _parse_document(_read_text(path), path, args.informat, args.strict)
    status = _print_format_issues(path, errors)
    matched_ids: set[str] = set()
    lines = []
    for s_idx, sentence in enumerate(doc.sentences):
        content = [t for t in sentence.tokens if not t.is_space]
        pos_sequence = [t.pos for t in content]
        for c_idx, token in enumerate(content):
            if token.surface != args.word:
                continue
            matched = frames_mod.classify_instance(pos_sequence, c_idx, frameset)
            matched_ids |= matched
            lines.append(
                f"sentence {s_idx}, token {c_idx}: "
                + (" ".join(sorted(matched)) if matched else "-")
            )
    classes = frames_mod.classify_lexeme(matched_ids)
    if not lines:
        lines.append(f"no occurrences of {args.word!r}")
    lines.append("classes: " + (" ".join(sorted(classes)) if classes else "-"))
    _write(_open_output(args, [path], args.frames), "\n".join(lines) + "\n")
    return status


@functools.cache  # parsing leaves the parser as it was, so one per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lst20",
        description="Validate, convert, segment and count LST20-style annotated Thai text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, many_inputs=False):
        nargs = "+" if many_inputs else 1
        p.add_argument("inputs", nargs=nargs, metavar="PATH")
        p.add_argument(
            "--from",
            dest="informat",
            choices=(FORMAT_COLUMNAR, FORMAT_INLINE),
            default=FORMAT_COLUMNAR,
        )
        p.add_argument("--strict", action="store_true", help="abort on the first parse error")
        p.add_argument("-o", "--output", default=None, help="write data here instead of stdout")

    p_validate = sub.add_parser("validate", help="lint annotation layers")
    add_common(p_validate, many_inputs=True)
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_convert = sub.add_parser("convert", help="convert between columnar and inline")
    add_common(p_convert)
    p_convert.add_argument(
        "--to",
        dest="outformat",
        choices=(FORMAT_COLUMNAR, FORMAT_INLINE),
        required=True,
    )
    p_convert.set_defaults(func=_cmd_convert)

    p_segment = sub.add_parser(
        "segment",
        help="detect clause boundaries and sentence breaks "
        "(each input sentence block or line is treated as a paragraph)",
    )
    add_common(p_segment)
    p_segment.add_argument(
        "--to",
        dest="outformat",
        choices=(FORMAT_COLUMNAR, FORMAT_INLINE),
        default=FORMAT_COLUMNAR,
    )
    p_segment.add_argument("--lexicon", default=None, help="marker lexicon config file")
    p_segment.add_argument(
        "--subject-shift",
        choices=segment_mod.SUBJECT_SHIFT_STRATEGIES,
        default="heuristic",
    )
    p_segment.set_defaults(func=_cmd_segment)

    p_stats = sub.add_parser("stats", help="corpus counts and tag histograms")
    add_common(p_stats, many_inputs=True)
    p_stats.add_argument("--manifest", default=None, help="document-id to genre map")
    p_stats.add_argument("--json", action="store_true")
    p_stats.add_argument(
        "--include-spaces",
        action="store_true",
        help="count white-space tokens as words",
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
