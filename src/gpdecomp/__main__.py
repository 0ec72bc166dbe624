"""``python -m gpdecomp``: the command-line interface of :mod:`gpdecomp.cli`."""

import sys

from .cli import main

sys.exit(main())
