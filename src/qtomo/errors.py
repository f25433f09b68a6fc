"""Shared exception types."""


class FormatError(ValueError):
    """A JSON document violates one of the file-format contracts.

    ``path`` locates the offending key, e.g. ``counts[3].outcome``; empty
    for document-level problems.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class ConfigError(ValueError):
    """Invalid run configuration (bad ranges, unknown names, missing flags)."""
