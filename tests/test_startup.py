"""What ``import lst20tools`` and each ``lst20`` command load.

The package resolves its exported names and its submodules on first use
(PEP 562), and ``cli`` imports each command's module inside the functions
that run it. The checks of what is loaded run in a fresh interpreter: this
test process has imported every module long since.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lst20tools

import corpus_samples

SRC = Path(lst20tools.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"

# The names the package exported when __init__.py imported every module, and
# relabel_columnar, exported once segment called only the blocks of its text.
PUBLIC = {
    "format": "FORMAT_COLUMNAR FORMAT_INLINE SPACE_GLYPH Document FormatError LineError "
    "Sentence Token TokenError WriteError read_columnar read_inline relabel_columnar "
    "space_token write_columnar write_inline",
    "frames": "FramePattern FrameSet FrameSpecError classify_instance classify_lexeme "
    "compile_frame default_frameset frame_matches",
    "schema": "NE_OUTSIDE BoundaryPrefix ClauseLabel MalformedLabel NeCategory NeLabel "
    "PosTag UnknownCategory UnknownTag clause_transition_valid ne_transition_valid "
    "parse_clause_label parse_ne_label parse_pos_tag",
    "segment": "ConfigError MarkerLexicon aggregate_sentences detect_clauses "
    "load_marker_lexicon segment_paragraphs",
    "stats": "CorpusCounts document_counts load_manifest tag_frequency",
    "validate": "LintIssue LintReport Severity lint_document validate_clause_sequence "
    "validate_ne_sequence validate_token_tags",
}
# What `from lst20tools import *` and dir(lst20tools) listed then, besides
# dunder names: the exported names and the modules that define them.
PUBLIC_NAMES = sorted({*" ".join(PUBLIC.values()).split(), *PUBLIC})


def _fresh(code: str, cwd=None, options=()):
    """Run ``code`` in a fresh interpreter, started with ``options``, that
    imports this lst20tools; returns what it printed to stdout, parsed as
    JSON. Anything on stderr fails the test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return json.loads(result.stdout) if result.stdout else None


_GLIMPSE = str(corpus_samples.FIXTURE_DIR / "glimpse.txt")
_LOADED_BY_CONVERT = ["lst20tools", "lst20tools.cli", "lst20tools.format", "lst20tools.schema"]


# Each command, its arguments and the module it loads beyond convert's.
_COMMANDS = {
    "validate": (["validate", _GLIMPSE], "validate"),
    "validate --json": (["validate", "--json", _GLIMPSE], "validate"),
    "convert": (["convert", _GLIMPSE, "--to", "inline"], None),
    "segment": (["segment", _GLIMPSE], "segment"),
    "stats": (["stats", _GLIMPSE], "stats"),
    "frames check": (["frames", "check", _GLIMPSE, "--word", "ไม่"], "frames"),
    "frames dump": (["frames", "dump"], "frames"),
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    argv, own_module = _COMMANDS[command]
    out = str(tmp_path / "out")
    loaded = _fresh(
        "import json, sys\n"
        "from lst20tools import cli\n"
        f"status = cli.main({[*argv, '-o', out]!r})\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('lst20tools'))]))"
    )
    expected = _LOADED_BY_CONVERT + [f"lst20tools.{own_module}"] * (own_module is not None)
    assert loaded == [0, sorted(expected)]


def test_the_writers_text_tables_are_built_on_first_use():
    """Importing ``format`` builds no writer table: only a writer's first
    call builds the one it uses."""
    sizes = _fresh(
        "import json\n"
        "from lst20tools import format as fmt\n"
        "before = fmt._entry_texts.cache_info().currsize\n"
        "fmt.write_columnar_records(fmt.columnar_records('ก\\tNN\\tO\\tO\\n'))\n"
        "print(json.dumps([before, fmt._entry_texts.cache_info().currsize]))"
    )
    assert sizes == [0, 1]


def test_package_import_loads_no_submodule_and_exports_the_same_objects():
    checks = _fresh(
        "import importlib, json, sys\n"
        "import lst20tools\n"
        "alone = sorted(m for m in sys.modules if m.startswith('lst20tools'))\n"
        f"public = {PUBLIC!r}\n"
        "differ = [f'{module}.{name}' for module, names in public.items() for name in names.split()\n"
        "          if getattr(lst20tools, name) is not getattr(importlib.import_module(f'lst20tools.{module}'), name)]\n"
        "print(json.dumps([alone, differ]))"
    )
    assert checks == [["lst20tools"], []]


def test_submodules_resolve_after_importing_only_the_cli():
    """perfbench's tracer and worker import ``lst20tools.cli`` and then read
    the other modules as attributes of the package."""
    names = ["segment", "frames", "stats", "validate", "schema", "format"]
    resolved = _fresh(
        "import json, sys\n"
        "import lst20tools.cli\n"
        f"print(json.dumps([getattr(lst20tools, n) is sys.modules[f'lst20tools.{{n}}'] for n in {names!r}]))"
    )
    assert resolved == [True] * len(names)


def test_star_import_and_dir_list_the_same_public_names():
    listed = _fresh(
        "import json\n"
        "namespace = {}\n"
        "exec('from lst20tools import *', namespace)\n"
        "import lst20tools\n"
        "public = lambda names: sorted(n for n in names if not n.startswith('_'))\n"
        "print(json.dumps([public(namespace), public(dir(lst20tools))]))"
    )
    assert listed == [PUBLIC_NAMES, PUBLIC_NAMES]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'read_everything'"):
        lst20tools.read_everything
    assert not hasattr(lst20tools, "cli_main")
    with pytest.raises(ImportError):
        from lst20tools import read_everything  # noqa: F401


def test_readme_library_snippet_runs(tmp_path):
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    shutil.copy(corpus_samples.FIXTURE_DIR / "glimpse.txt", tmp_path / "T00126.txt")
    # Development mode prints a ResourceWarning for a file left open, which
    # leaves the exit status 0: only the empty stderr catches it.
    _fresh(snippet.group(1), cwd=tmp_path, options=["-X", "dev"])
