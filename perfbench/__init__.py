"""Benchmark of the femba deployment toolchain (see README.md)."""
