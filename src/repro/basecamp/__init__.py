"""basecamp — the single point of access to the EVEREST SDK (paper §IV).

"All tools within the SDK are wrapped under the ``basecamp`` command,
which provides a single point of access to the users of the SDK."
"""

__all__ = ["main"]


def main(argv=None):
    """The ``basecamp`` command.  The CLI is imported on call: ``python -m
    repro.basecamp.cli`` must find it not yet loaded (runpy warns), and
    ``repro.basecamp.serve``, the daemon's library API, needs no parser."""
    from repro.basecamp.cli import main as cli_main

    return cli_main(argv)
