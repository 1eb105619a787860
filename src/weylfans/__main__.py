"""``python -m weylfans``: the `weylfans` command, without an installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
