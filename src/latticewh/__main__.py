"""python -m latticewh: the command-line interface of latticewh.cli."""

import sys

from .cli import main

sys.exit(main())
