"""Sparse boosting over multiple datasets with commonality detection.

The API lives in the submodules: ``cdboost.data`` (bundles, groups, file
formats), ``cdboost.boosting`` (the fitters), ``cdboost.tuning`` (HDBIC and
the lambda search), ``cdboost.simulate``, ``cdboost.metrics`` (scores, the
benchmark and stability harnesses) and ``cdboost.cli``.
"""

__version__ = "0.1.0"
