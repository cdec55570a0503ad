"""`python -m nonrep ...`: the `nonrep` command, for a checkout that is on
PYTHONPATH but not installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
