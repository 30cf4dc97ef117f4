"""Well-being policy evaluation with pluralistic scope aggregation.

Value functions for well-being, weighted aggregation across nested WE
scopes, consensus checking between scopes, perturbative coupling of joint
facts into the agreed target, and three pipelines on top: a fact-value
parameter network, regression + simulation policy selection, and
logic-model impact evaluation.

Importing the package loads none of its modules: import each name from
its module (`from wepolicy.valuefn import AsymmetricSpec`).
"""

__version__ = "0.1.0"
