"""`python -m kp40 ...` runs the kp40 command line, installed entry point or not."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
