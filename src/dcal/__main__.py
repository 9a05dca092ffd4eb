"""``python -m dcal``: the ``dcal`` command line, for a fresh interpreter
without the installed entry point."""

from .cli import entry

if __name__ == "__main__":
    entry()
