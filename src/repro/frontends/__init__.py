"""Language frontends of the EVEREST SDK.

* :mod:`repro.frontends.ekl` — the EVEREST Kernel Language (Einstein
  notation tensor kernels, paper §V-A1, Fig. 3);
* :mod:`repro.frontends.condrust` — the ConDRust coordination language
  (deterministic dataflow from a Rust subset, paper §V-A2, Fig. 4);
* :mod:`repro.frontends.cfdlang` — the legacy CFDlang tensor DSL.

All three tokenize with :mod:`repro.frontends.lexer`, and their parsers
subclass its token cursor: a program they refuse is a
:class:`~repro.errors.FrontendError` that starts with ``line:column``.
"""
