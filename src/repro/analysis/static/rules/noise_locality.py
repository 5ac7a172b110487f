"""DPA102: noise is sampled only inside ``src/repro/mechanisms/``.

The privacy ledger can only account for noise drawn behind a mechanism API
— a ``rng.laplace(...)`` in an algorithm module is a sample no ledger entry
ever charged, i.e. a silent privacy-budget leak.  This rule flags calls to
the noise-sampling generator methods anywhere outside ``mechanisms/``; code
elsewhere must call a mechanism (``laplace_mechanism``, ``exponential_mechanism``,
...) which samples and charges together.
"""

from __future__ import annotations

import ast

from ..registry import Rule, register_rule

#: Generator methods that draw calibrated-noise-shaped samples.
_NOISE_METHODS = {
    "laplace",
    "normal",
    "standard_normal",
    "gumbel",
    "exponential",
    "standard_exponential",
}


@register_rule
class NoiseLocalityRule(Rule):
    code = "DPA102"
    name = "noise-locality"
    summary = "noise-sampling calls are allowed only inside mechanisms/"
    node_types = (ast.Call,)

    def __init__(self, allowed_prefixes: tuple[str, ...] = ("mechanisms/",)):
        self._allowed_prefixes = allowed_prefixes

    def applies(self, ctx) -> bool:
        return not ctx.logical.startswith(self._allowed_prefixes)

    def check_node(self, node, ctx):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _NOISE_METHODS:
            yield ctx.finding(
                self.code,
                node.lineno,
                f".{func.attr}(...) samples noise outside src/repro/mechanisms/ "
                "— call a mechanism API so the draw is charged to a ledger",
            )
