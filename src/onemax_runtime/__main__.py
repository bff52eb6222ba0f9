"""Entry point for ``python -m onemax_runtime``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
