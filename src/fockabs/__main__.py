"""``python -m fockabs``: the ``fockabs`` command line, for a source checkout."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
