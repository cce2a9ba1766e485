"""repro — a reproduction of the EVEREST SDK (DATE 2024).

The EVEREST System Development Kit simplifies the creation of FPGA-accelerated
kernels for big data applications and manages their execution at runtime
through a virtualization environment.  This package reimplements the full SDK
in Python with simulated FPGA substrates:

* :mod:`repro.ir`, :mod:`repro.dialects` — MLIR-style compiler infrastructure
  with the EVEREST dialects (ekl, teil, esn, cfdlang, dfg, olympus, evp,
  base2, fsm, hw);
* :mod:`repro.frontends` — the EVEREST Kernel Language, the ConDRust
  coordination language, CFDlang and ONNX-like model ingestion;
* :mod:`repro.numerics` — custom data formats (fixed point, posit, bfloat16);
* :mod:`repro.hls` — a high-level synthesis engine (scheduling, pipelining,
  resource binding, FSM/RTL emission);
* :mod:`repro.platforms` — FPGA device, memory and network models plus an
  XRT-like host API;
* :mod:`repro.olympus`, :mod:`repro.dosa` — system-level architecture
  generation for PCIe- and network-attached FPGAs;
* :mod:`repro.runtime` — the virtualized runtime environment: Dask-like task
  API, scheduler, SR-IOV virtualization;
* :mod:`repro.autotuner` — the mARGOt dynamic autotuner;
* :mod:`repro.anomaly` — the AutoML anomaly-detection service (TPE);
* :mod:`repro.workflows` — LEXIS-like workflow deployment;
* :mod:`repro.apps` — the four driving use cases (weather, energy,
  air quality, traffic);
* :mod:`repro.pipeline` — the compile orchestrator (paper Fig. 2):
  stage registry, content-hash caching, parallel DSE sweeps;
* :mod:`repro.basecamp` — the single-entry ``basecamp`` command.
"""

__version__ = "1.0.0"

from repro import errors

__all__ = ["errors", "__version__"]
