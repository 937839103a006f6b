"""Coarse-to-fine architecture search over a toy adversarial supernet.

The package trains a weight-sharing super-generator with an exactly fair
schedule, then searches it in three narrowing stages: path, operator
assignment, and evolutionary channel shrinking driven by replacement
gains, with per-channel scale factors sparsified by proximal descent.
Tabular fitness landscapes with exhaustively known optima verify the
search machinery independently of training.

The package itself binds only ``__version__``; import what you use from
its modules, as in ``from cfsearch import cli`` or ``from
cfsearch.oracles import GanOracle``.  ``python -m cfsearch`` runs the
command line.
"""

__version__ = "0.1.0"
