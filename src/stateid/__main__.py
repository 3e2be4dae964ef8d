"""``python -m stateid``: the stateid command line (see stateid.cli)."""

import sys

from .cli import main

sys.exit(main())
