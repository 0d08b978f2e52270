"""``python -m padiclift``: the command-line driver of :mod:`padiclift.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
