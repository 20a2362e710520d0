"""Fixed-state token mixing: kernel attention compressed onto a learned
basis and carried by a diagonal state-space recurrence.

The package is organized bottom-up:

``config``      self-checking model configuration and seeding
``features``    feature maps, short conv, RoPE, norms
``oracle``      brute-force feature-attention reference
``basis``       explicit basis projection and readouts
``ssm``         diagonal recurrence, four scan backends, dual-form backward
``layer``       the assembled mixer: forward, backward, prefill, decode
``accounting``  state budgets, parameter counts
``bench``       op-counting decode simulator, CSV grid
``cli``         verification suites behind one entry point

Each name is imported from the module that defines it, for example
``from interdomain.layer import forward``; importing the package itself
loads no submodule.
"""

__version__ = "0.1.0"
