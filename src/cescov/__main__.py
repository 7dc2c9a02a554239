"""``python -m cescov``: the ``cescov`` command line."""

import sys

from .cli import main

sys.exit(main())
