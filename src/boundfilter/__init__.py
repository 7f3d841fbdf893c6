"""Local filters L (x) M that move PPT entangled states into the detection
range of Choi-map witnesses, and the two-ancilla measurement that realizes
such a filter.

Every name has one home module, and importing the package loads none of
them: states, witness (the positive maps), filters, measure (the protocol),
mcsim and kernels (the Monte-Carlo simulator), catalog (the paper's states
and filters by label), acceptance (the reproduction checks), cli, and the
shared linalg, formats, errors and tolerances.
"""

__version__ = "0.1.0"
