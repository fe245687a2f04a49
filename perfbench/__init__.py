"""Benchmark of the porthunt package: seeded workloads, per-layer tracing."""
