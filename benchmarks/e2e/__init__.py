"""The repo's end-to-end benchmark (see README.md in this directory).

Four seeded workloads over the default engine, driven through the PEP 249
surface; end-to-end metrics are measured with tracing off, per-layer metrics
by an outside-in tracer that wraps each module's functions from here.
"""
