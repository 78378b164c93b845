"""Package version."""

__version__ = "2.2.1"
