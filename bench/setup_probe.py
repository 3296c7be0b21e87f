"""Set-up probe: start, import lambda_forge, load a config, build its context.

Prints ``ready`` once the FormContext exists; ``run.py`` times a fresh
process from spawn to that line.  Usage: ``python3 setup_probe.py CONFIG``.
"""

import sys

from lambda_forge.config import build_context, load_config

build_context(load_config(sys.argv[1]))
sys.stdout.write("ready\n")
sys.stdout.flush()
