"""Exception types shared across the package.

The CLI maps these onto exit codes: DataFormatError -> 2 (data/parse),
SingularSystemError and MemoryError -> 3 (numerical or resource failure).
Plain ValueError is used for programming-contract violations (wrong
dimensions, empty input where the caller must guarantee non-empty).
"""

import contextlib


class PostscoreError(Exception):
    """Base class for package errors."""


class DataFormatError(PostscoreError):
    """A file does not match its declared format.

    Carries the path and (1-based) line number when one is known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = str(path)
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


class SingularSystemError(PostscoreError):
    """The normal equations are singular (or numerically indefinite).

    Raised with lambda == 0; the fix is to pass a positive ridge coefficient.
    """

    def __init__(self, message="normal equations are singular"):
        super().__init__(message + "; retry with a ridge coefficient lambda > 0")


@contextlib.contextmanager
def utf8_errors(path):
    """Turn a UnicodeDecodeError raised while reading ``path`` as UTF-8 text
    into a DataFormatError naming the line of the first undecodable byte.

    A text decoder reads ahead in chunks, so its error tells neither the
    file nor the line. The line is found on this error path only, by
    reading the file again in binary: no UTF-8 sequence spans a newline, so
    the first line that does not decode on its own holds that byte.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as f:
            for lineno, raw in enumerate(f, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    byte = raw[bad.start]
                    raise DataFormatError(
                        f"not UTF-8: byte 0x{byte:02x} at column {bad.start + 1}",
                        path=path,
                        line=lineno,
                    ) from None
        raise DataFormatError(f"not UTF-8: {exc.reason}", path=path) from None
