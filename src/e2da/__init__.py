"""Multi-user multi-channel mobile-edge offloading: simulator, neural
epsilon-greedy scheduler, oracle schedulers, and an experiment harness.

Importing the package loads none of its modules; import each name from the
module that defines it, such as e2da.netsim.Simulator."""

__version__ = "0.1.0"
