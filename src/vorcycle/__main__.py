import signal
import sys

from .cli import main


def run():
    """The command line: a run whose stdout closes early (`vorcycle
    perfect ... | head -1`) ends by the default SIGPIPE action, quietly,
    as any Unix filter does, not with a BrokenPipeError."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
