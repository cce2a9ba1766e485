"""The four EVEREST use cases (paper §II):

* :mod:`repro.apps.wrf` — WRF-based weather simulation proxy (the common
  substrate of the first three use cases), whose radiation step runs the
  RRTMG kernel (Fig. 3, the FPGA acceleration target) as the SDK compiles it;
* :mod:`repro.apps.energy` — renewable-energy (wind-farm power) prediction
  with Kernel Ridge regression;
* :mod:`repro.apps.airquality` — air-quality monitoring: plume dispersion,
  ensemble forecasts, ML error correction, emission-reduction decisions;
* :mod:`repro.apps.traffic` — traffic modeling: HMM map matching (Fig. 4)
  and probabilistic time-dependent routing (PTDR).
"""
