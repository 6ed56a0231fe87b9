"""Exception types shared across the package, and the checked read of input files."""


class DataError(Exception):
    """Malformed input files or inconsistent scene data."""


class TrackingError(Exception):
    """A tracker query could not be answered for this superpoint."""


class InvariantViolation(Exception):
    """An internal consistency check failed; indicates a bug."""


def read_text(path) -> str:
    """The whole of an ASCII input file; an unreadable one is a DataError."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
