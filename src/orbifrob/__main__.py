"""python -m orbifrob: the command line of orbifrob.cli, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
