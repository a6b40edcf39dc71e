"""Run the treeball CLI in this process with its output captured.

`invoke(main, args)` runs `main(args)` and returns its exit code, stdout,
stderr, and `output`: both streams interleaved in the order they were
written. An exception other than SystemExit is a bug and propagates.
"""

import contextlib
import io
import types


class _Tee(io.StringIO):
    """A captured stream that also appends what it is given to `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def invoke(main, args):
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    stdout = out.getvalue()
    return types.SimpleNamespace(
        exit_code=code, stdout=stdout, stdout_bytes=stdout.encode("utf-8"),
        stderr=err.getvalue(), output=both.getvalue())
