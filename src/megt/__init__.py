"""megt: evolutionary games on homophily-weighted multiplex networks,
behavioural reputation metrics, and crowdsensing incentive pipelines.
Import each name from its module: the package holds only ``__version__``.
"""

__version__ = "0.1.0"
