"""``python -m kirchflow``: the command line of ``kirchflow.cli``."""
from kirchflow.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
