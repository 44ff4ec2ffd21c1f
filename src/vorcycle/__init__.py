"""Exact computation of perfect quadratic forms, their cell complex,
and the stabilizer-weighted top cycle."""

__version__ = "0.1.0"
