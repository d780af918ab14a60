"""A file whose first write stops halfway, as on a full disk."""

import errno


class CutOff:
    """Wraps an open file: takes half of the first write and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")
