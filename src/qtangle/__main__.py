"""``python -m qtangle``: the same command line as the ``qtangle`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
