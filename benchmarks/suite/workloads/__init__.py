"""The five workloads, by name."""

from benchmarks.suite.workloads.adhoc_compile import AdhocCompile
from benchmarks.suite.workloads.analytic import AnalyticParallel, AnalyticScan
from benchmarks.suite.workloads.oltp_point import OltpPoint
from benchmarks.suite.workloads.serve_mixed import ServeMixed

WORKLOADS = {cls.name: cls for cls in (
    AdhocCompile, AnalyticScan, AnalyticParallel, OltpPoint, ServeMixed)}
