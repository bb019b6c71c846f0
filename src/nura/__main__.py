"""Entry point for ``python -m nura``; same commands as the ``nura`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
