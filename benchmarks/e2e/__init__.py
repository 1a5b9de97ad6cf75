"""End-to-end benchmark of the paper's workloads (see README.md)."""

__all__: list = []
