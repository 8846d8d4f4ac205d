from hypothesis import settings

from pfol import LossFunction

# The gate draws the same Hypothesis examples on every run, so a PASS is repeatable and no failing
# example saved from an earlier run can turn it red; `pytest --hypothesis-profile=default` draws new ones.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


class CallableLoss(LossFunction):
    """A loss from two callables, for tests of code that takes any LossFunction."""

    __slots__ = ("evaluate", "gradient", "smoothness", "center", "direction")

    def __init__(self, evaluate, gradient, grad_bound, smoothness=0.0, center=None, direction=None):
        super().__init__(grad_bound, evaluate=evaluate, gradient=gradient, smoothness=smoothness,
                         center=center, direction=direction)
