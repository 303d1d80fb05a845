"""``python -m diffnet``: the command-line interface."""

from .cli import entrypoint

entrypoint()
