"""``python -m repro …``: the CLI without the console script."""

import sys

from repro.cli.main import main

if __name__ == "__main__":
    sys.exit(main())
