"""Benchmark for the fluvinv inversion workbench.

Run one workload with ``python3 fluvbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. The last line of
standard output is a JSON object with the metrics named in BENCHMARK.json.
"""
