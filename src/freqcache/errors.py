"""Exception types shared across the package."""


class DegenerateSpectrumError(ValueError):
    """An amplitude grid carries no energy, so spectral statistics are undefined."""


class InvariantError(RuntimeError):
    """A decision or cache update broke one of the pipeline's own invariants."""


class FrameParseError(ValueError):
    """A frame file could not be parsed.

    ``offset`` is the byte position at which parsing failed; for truncated
    payloads it is the position where the data ran out.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
