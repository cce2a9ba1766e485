"""The repository's benchmark: four closed-loop workloads over the SDK.

Run ``python3 -m bench --help`` from the repository root; ``README.md``
in this directory says what every workload and metric means.  Nothing
here is imported by ``src/repro``; a change that claims a gain may not
edit this package.
"""
