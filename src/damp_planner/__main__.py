"""`python -m damp_planner`: the damp-planner command line."""

import sys

from .cli_reporting import main

if __name__ == "__main__":
    sys.exit(main())
