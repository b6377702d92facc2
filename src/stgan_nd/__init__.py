"""Stochastic-target GAN training and novelty-detection evaluation.

The package bundles a small dense-network engine with manual
backpropagation, the two-stage adversarial training loop, a data pipeline
for gesture-feature datasets, and the distance/threshold/ROC evaluation
harness, plus a CLI that drives the whole experiment matrix. Import each
name from its submodule (``stgan_nd.gan``, ``stgan_nd.nn`` and so on).
"""

__version__ = "0.1.0"
