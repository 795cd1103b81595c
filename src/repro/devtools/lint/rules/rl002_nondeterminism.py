"""RL002 -- hidden nondeterminism.

Everything random in this reproduction flows from one seeded
:class:`numpy.random.Generator` tree (``repro.util.rng.derive_rng``).
This rule flags the ways entropy sneaks in anyway:

* stdlib ``random`` module functions (process-global state, seeded or
  not, shared with any library that also touches it);
* the legacy ``numpy.random.*`` global-state API (``np.random.rand``);
* **unseeded** ``np.random.default_rng()`` / ``random.Random()`` /
  ``np.random.SeedSequence()`` (argless = OS entropy);
* ``uuid.uuid1/uuid4``, ``os.urandom``, ``secrets.*``;
* ``sorted(..., key=id)`` / ``.sort(key=id)`` -- address-ordered output;
* iterating a bare ``set`` into order-sensitive output
  (``list(set(..))``, ``for x in set(..)``) without ``sorted``;
* an ``itertools.count`` assigned at module scope: a process-global
  id counter, so the ids a run draws (and any output they reach, such
  as ICMP identifiers in pcap bytes) depend on what the process ran
  before.  Count on the world that owns the ids.

Set iteration *is* stable within one CPython process, which is exactly
why it passes tests and then breaks cross-run byte-identity once hash
randomization or content order differs; ``sorted`` costs one call.
"""

from __future__ import annotations

import ast

from repro.devtools.lint.rules.base import Rule, register

STDLIB_RANDOM_PREFIX = "random."
NUMPY_GLOBAL_PREFIX = "numpy.random."
# numpy.random names that are *constructors of seeded machinery*, not
# draws from the legacy global RandomState.
NUMPY_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
    "numpy.random.BitGenerator",
})
# Argless construction of these draws a seed from OS entropy.
SEED_REQUIRED = frozenset({
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "random.Random",
})
ENTROPY_CALLS = frozenset({
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
    "os.getrandom",
})
SECRETS_PREFIX = "secrets."
COUNTER = "itertools.count"

SET_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter", "map",
                          "filter"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class NondeterminismRule(Rule):
    id = "RL002"
    name = "hidden-nondeterminism"
    summary = ("hidden entropy: stdlib random, legacy np.random globals, "
               "unseeded default_rng(), uuid4/urandom/secrets, id()-keyed "
               "sorts, unsorted set iteration, module-scope id counters")

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                    or stmt.value is None:
                continue
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Call) \
                        and self.ctx.call_qualname(sub) == COUNTER:
                    self.report(sub, (
                        "module-scope `itertools.count` is a process-global "
                        "id counter -- keep it on the world (or object) "
                        "that owns the ids"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.ctx.call_qualname(node)
        if qual:
            self._check_qualname(node, qual)
        self._check_sort_key(node, qual)
        self._check_set_wrapper(node)
        self.generic_visit(node)

    def _check_qualname(self, node: ast.Call, qual: str) -> None:
        if qual in SEED_REQUIRED:
            if not node.args and not node.keywords:
                self.report(node, (
                    f"`{qual}()` with no seed draws OS entropy -- pass a "
                    "seed or use repro.util.rng.derive_rng"))
            return
        if qual in NUMPY_CONSTRUCTORS:
            return
        if qual.startswith(NUMPY_GLOBAL_PREFIX):
            self.report(node, (
                f"legacy numpy global-state RNG `{qual}` -- draw from a "
                "seeded Generator (repro.util.rng.derive_rng) instead"))
            return
        if qual.startswith(STDLIB_RANDOM_PREFIX) or qual == "random":
            self.report(node, (
                f"stdlib `{qual}` uses process-global RNG state -- draw "
                "from a seeded numpy Generator instead"))
            return
        if qual in ENTROPY_CALLS or qual.startswith(SECRETS_PREFIX):
            self.report(node, (
                f"`{qual}` is an OS entropy source; derive ids/tokens from "
                "the run seed so reruns are byte-identical"))

    def _check_sort_key(self, node: ast.Call, qual) -> None:
        is_sort = qual == "sorted" or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort")
        if not is_sort:
            return
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                    and kw.value.id == "id":
                self.report(node, (
                    "sorting by `id()` orders by memory address, which "
                    "differs across runs -- sort by a stable key"))

    def _check_set_wrapper(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name)
                and node.func.id in SET_WRAPPERS and node.args):
            return
        if any(_is_set_expr(arg) for arg in node.args):
            self.report(node, (
                "materializing a set in hash order -- wrap in sorted(...) "
                "before it can reach persisted or journaled output"))

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.report(node, (
                "iterating a bare set in hash order -- iterate "
                "sorted(...) so downstream output is order-stable"))
        self.generic_visit(node)
