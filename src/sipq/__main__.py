"""``python -m sipq``: the same command line as the ``sipq`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
