"""minworld: ground instructions to the detectors they need, build a
minimal world model from simulated perception, and act on it.

The package root holds only ``__version__``; import from the modules
(``minworld.cli``, ``minworld.dcg``, ...)."""

__version__ = "0.1.0"
