"""`python -m maxstop COMMAND ...` runs the command line without an install,
as the `maxstop` console script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
