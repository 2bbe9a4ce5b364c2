"""Stochastic-simulation laboratory for a degenerate planar conservative
system under small friction and noise, its fast-slow rescaling, and its
damped radial Bessel limit."""

__version__ = "0.1.0"

# The array backend of every kernel; benchmarks/measure.py records it.
BACKEND = "numpy"

__all__ = ["BACKEND", "__version__"]
