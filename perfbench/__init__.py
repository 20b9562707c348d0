"""End-to-end HTTP benchmark of the ``repro serve`` session service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` launches a real ``python -m repro serve`` on loopback,
drives one traffic mix through the public ``/v1`` API and prints the
metrics named in ``BENCHMARK.json``.  Modules:

* :mod:`perfbench.workloads` — the traffic mixes and their seeded inputs;
* :mod:`perfbench.service` — launching, probing and stopping the server;
* :mod:`perfbench.loadgen` — the closed- and open-loop load generator and
  its correctness checks;
* :mod:`perfbench.tracing` — the traced launcher's span wrappers and the
  per-layer self-time analysis;
* :mod:`perfbench.stats` — percentiles under the "ten samples beyond"
  rule;
* :mod:`perfbench.fingerprint` — hardware and environment description.
"""
