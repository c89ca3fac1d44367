"""Set-up probe: get one CLI call ready in a fresh process, then exit.

Usage: setup_probe.py ARGV...

Covers what every `lst20` invocation pays before it reads its input: the
interpreter, the package imports, the argument parser, and loading the
lexicon or frame file the call names, through the CLI's own loaders. Then
prints a CPU calibration (see calibrate.py), with enough repeats to warm the
task up.
"""

import sys

from calibrate import calibration_s
from lst20tools import cli

args = cli.build_parser().parse_args(sys.argv[1:])
if hasattr(args, "lexicon"):
    cli._load_lexicon(args)
if hasattr(args, "frames"):
    cli._load_frameset(args)
print(calibration_s(30))
