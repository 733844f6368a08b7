"""Desk-scale laboratory for conditional and generalized difference coding.

The package couples an exact discrete information-theory workbench with a
small trainable codec family (difference coder, conditional-latent coder,
and generalized difference coders) built on a from-scratch rank-4 autodiff
engine, a bit-exact lane-interleaved rANS entropy coder, and quad-tree hybrid
evaluation tools.
"""

__version__ = "0.1.0"
