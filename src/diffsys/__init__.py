"""diffsys: rank criteria for canonical multiplication maps on curves, and
numerical monodromy / immersion experiments for rank-2 differential systems.

Layers, bottom up:

* :mod:`diffsys.field` -- exact Gaussian-rational matrices with one
  fraction-free integer elimination (Gaussian ones realified);
* :mod:`diffsys.curves` -- hyperelliptic and plane-quartic models and the
  index table of products of their monomial bases of differentials;
* :mod:`diffsys.multiplication` -- multiplication-map matrices and the
  surjectivity/injectivity criteria built from their exact ranks;
* :mod:`diffsys.systems` -- Lie-algebra tables, differential systems,
  dimension formulas;
* :mod:`diffsys.monodromy` -- fundamental-group loops, batched adaptive
  Runge-Kutta parallel transport with closed-form sheet checks, trace
  coordinates;
* :mod:`diffsys.immersion` -- finite-difference rank of the monodromy map on
  explicit coordinate slices;
* :mod:`diffsys.cli` -- batch subcommands writing one JSON report per run.
"""

__version__ = "0.1.0"
