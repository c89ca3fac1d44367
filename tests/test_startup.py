"""What ``import lst20tools`` and each ``lst20`` command load.

The package resolves its exported names and its submodules on first use
(PEP 562), and ``cli`` imports each command's module inside the functions
that run it. The checks of what is loaded run in a fresh interpreter: this
test process has imported every module long since.
"""

import json
import os
import pickle
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

# The names the package exports: the record functions, segment_records among
# them, and the Token layer's names that perfbench's tracer looks up.
PUBLIC = {
    "format": "FORMAT_COLUMNAR FORMAT_INLINE SPACE_GLYPH Document FormatError LineError "
    "Sentence Token TokenError WriteError columnar_records inline_records read_columnar "
    "read_inline sentence_records write_columnar write_columnar_records write_inline "
    "write_inline_records",
    "frames": "FramePattern FrameSet FrameSpecError classify_instance classify_lexeme "
    "compile_frame default_frameset frame_matches",
    "schema": "NE_OUTSIDE BoundaryPrefix ClauseLabel MalformedLabel NeCategory NeLabel "
    "PosTag UnknownCategory UnknownTag clause_transition_valid ne_transition_valid "
    "parse_clause_label parse_ne_label parse_pos_tag",
    "segment": "ConfigError MarkerLexicon aggregate_sentences load_marker_lexicon "
    "segment_paragraphs segment_records",
    "stats": "CorpusCounts document_counts load_manifest records_counts tag_frequency",
    "validate": "LintIssue LintReport Severity lint_document lint_records",
}
# What `from lst20tools import *` and dir(lst20tools) list, besides dunder
# names: the exported names and the modules that define them.
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


def test_version_is_the_one_pyproject_declares():
    # Read with a regular expression: tomllib is missing on Python 3.10.
    pyproject = README.with_name("pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert lst20tools.__version__ == declared


def test_readme_library_snippet_runs(tmp_path):
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    shutil.copy(corpus_samples.FIXTURE_DIR / "glimpse.txt", tmp_path / "T00126.txt")
    # Development mode prints a ResourceWarning for a file left open, which
    # leaves the exit status 0: only the empty stderr catches it.
    _fresh(snippet.group(1), cwd=tmp_path, options=["-X", "dev"])


@pytest.mark.parametrize("command", _COMMANDS)
def test_no_command_loads_the_token_layer(tmp_path, command):
    """No command loads ``dataclasses`` or ``inspect``. Only the modules
    loaded beyond those the interpreter had at start count, so a ``site``
    that preloads some of them does not fail the test."""
    argv = [*_COMMANDS[command][0], "-o", str(tmp_path / "out")]
    status, loaded = _fresh(
        "import json, sys\n"
        "start = set(sys.modules)\n"
        "from lst20tools import cli\n"
        f"status = cli.main({argv!r})\n"
        "print(json.dumps([status, sorted(set(sys.modules) - start)]))"
    )
    assert status == 0
    assert {"dataclasses", "inspect"}.isdisjoint(loaded), loaded


def _loaded_by_import(module: str) -> list[str]:
    """The modules a fresh ``import lst20tools.<module>`` loads."""
    return _fresh(
        "import json, sys\n"
        "start = set(sys.modules)\n"
        f"import lst20tools.{module}\n"
        "print(json.dumps(sorted(set(sys.modules) - start)))"
    )


def test_format_alone_loads_no_dataclasses():
    loaded = _loaded_by_import("format")
    assert {"dataclasses", "inspect"}.isdisjoint(loaded), loaded


@pytest.mark.parametrize("module", ["validate", "segment", "stats", "frames"])
def test_each_command_module_alone_loads_no_dataclasses(module):
    loaded = _loaded_by_import(module)
    assert {"dataclasses", "inspect"}.isdisjoint(loaded), loaded


# The names of the Token layer, which format defines.
TOKEN_LAYER = (
    "Token Sentence Document read_columnar read_inline write_columnar "
    "write_inline sentence_records _relabelled _sentences _entries_by_labels"
).split()


def test_the_token_layer_is_one_object_by_every_path():
    """After only ``import lst20tools.cli``, as perfbench's worker and tracer
    import the package, each Token-layer name gives one object through the
    package (for the names it exports), through ``format`` as an attribute
    and by ``from lst20tools.format import``, and ``dir`` of ``format``
    lists it."""
    checks = _fresh(
        "import json\n"
        "import lst20tools.cli\n"
        "import lst20tools\n"
        f"names = {TOKEN_LAYER!r}\n"
        "fmt = lst20tools.format\n"
        "differ = []\n"
        "for name in names:\n"
        "    namespace = {}\n"
        "    exec(f'from lst20tools.format import {name} as found', namespace)\n"
        "    same = namespace['found'] is getattr(fmt, name)\n"
        "    if name in lst20tools.__all__:\n"
        "        same = same and getattr(lst20tools, name) is getattr(fmt, name)\n"
        "    if not same:\n"
        "        differ.append(name)\n"
        "print(json.dumps([differ, sorted(set(names) - set(dir(fmt)))]))"
    )
    assert checks == [[], []]


# A Token, a Sentence and a Document as the pickle module wrote them when
# format defined the three classes (protocol 4): they name lst20tools.format.
_PICKLED = (
    b"\x80\x04\x95=\x01\x00\x00\x00\x00\x00\x00\x8c\x11lst20tools.format\x94\x8c\x05Token"
    b"\x94\x93\x94)\x81\x94]\x94(\x8c\x15\xe0\xb8\x81\xe0\xb8\xa3\xe0\xb8\xb8\xe0\xb8\x87"
    b"\xe0\xb9\x80\xe0\xb8\x97\xe0\xb8\x9e\x94\x8c\x11lst20tools.schema\x94\x8c\x06PosTag"
    b"\x94\x93\x94\x8c\x02NN\x94\x85\x94R\x94h\x06\x8c\x07NeLabel\x94\x93\x94\x8c\x05B_LOC"
    b"\x94\x85\x94R\x94h\x06\x8c\x0bClauseLabel\x94\x93\x94\x8c\x05B_CLS\x94\x85\x94R\x94"
    b"\x89ebh\x00\x8c\x08Sentence\x94\x93\x94)\x81\x94]\x94h\x03h\x02)\x81\x94]\x94(\x8c"
    b"\x03\xe2\x90\xa3\x94h\x08\x8c\x02PU\x94\x85\x94R\x94h\r\x8c\x01O\x94\x85\x94R\x94h"
    b"\x12h \x85\x94R\x94\x88ebh\x02)\x81\x94]\x94(\x8c\x06\xe0\xb8\x94\xe0\xb8\xb9\x94h"
    b'\x08\x8c\x02VV\x94\x85\x94R\x94h"h\x12\x8c\x05E_CLS\x94\x85\x94R\x94\x89eb\x87\x94'
    b"abh\x00\x8c\x08Document\x94\x93\x94)\x81\x94]\x94(\x8c\x06T00126\x94h\x18\x85\x94eb"
    b"\x87\x94."
)


def test_pickles_that_name_format_still_load():
    from corpus_samples import space_token
    from lst20tools import ClauseLabel, Document, PosTag, Sentence, Token, parse_ne_label

    token = Token("กรุงเทพ", PosTag.NN, parse_ne_label("B_LOC"), ClauseLabel.B_CLS)
    sentence = Sentence((token, space_token(), Token("ดู", PosTag.VV, clause=ClauseLabel.E_CLS)))
    assert pickle.loads(_PICKLED) == (token, sentence, Document("T00126", (sentence,)))
