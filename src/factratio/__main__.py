"""``python -m factratio``: the same commands as the ``factratio`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
