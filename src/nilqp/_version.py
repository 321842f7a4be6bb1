"""The package's version string, below every module that reports it."""

__version__ = "0.1.0"
