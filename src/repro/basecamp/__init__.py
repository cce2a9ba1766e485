"""basecamp — the single point of access to the EVEREST SDK (paper §IV).

"All tools within the SDK are wrapped under the ``basecamp`` command,
which provides a single point of access to the users of the SDK."  The
command is :mod:`repro.basecamp.cli` (``python -m repro.basecamp.cli``);
this package imports nothing, so running it as a module finds it not yet
loaded, and :mod:`repro.basecamp.serve`, the daemon's library API, needs
no parser.
"""
