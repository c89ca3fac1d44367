"""The names ``perfbench`` looks up in the package still exist.

``perfbench/spans.py`` wraps layer functions by name for traced runs
(``perfbench/run.py --trace 1``), and ``perfbench/setup_probe.py`` calls
the CLI's parser and config loaders. Deleting any of them would break
those runs, not the package's own tests, so it is checked here.
"""

import importlib.util
from pathlib import Path

import lst20tools
from lst20tools import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook():
    tracer = _load_spans().Tracer()
    try:
        tracer.install(lst20tools)
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_setup_probe_entry_points_exist():
    for name in ("build_parser", "_load_lexicon", "_load_frameset"):
        assert callable(getattr(cli, name)), name
