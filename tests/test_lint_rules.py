"""Fixture-based coverage for every reprolint rule.

Each rule has a paired bad/good snippet under ``tests/lint_fixtures/``:
the bad file must produce at least one violation *of that rule* (the
checker catches the invariant break) and the good file must produce
none (no false positives on the sanctioned pattern).  Line-level
assertions pin the violations to the deliberate sins, not incidental
code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.devtools.lint.context import FileContext
from repro.devtools.lint.pragmas import suppresses
from repro.devtools.lint.project import ProjectIndex
from repro.devtools.lint.rules import PROJECT_RULES, RULES

FIXTURES = Path(__file__).parent / "lint_fixtures"
ALL_RULES = sorted(RULES)
ALL_PROJECT_RULES = sorted(PROJECT_RULES)


def violations(fixture: str, rule_id: str):
    """Run one rule over one fixture, honoring pragmas (as the engine
    does) so good fixtures can demonstrate the sanctioned escape hatch."""
    path = FIXTURES / fixture
    source = path.read_text()
    ctx = FileContext(path, fixture, source, ast.parse(source))
    return [
        v for v in RULES[rule_id](ctx, {}).run()
        if not suppresses(ctx.file_pragmas, rule_id)
        and not suppresses(ctx.line_pragmas.get(v.line, set()), rule_id)
    ]


def project_violations(fixture: str, rule_id: str, options=None):
    """Run one *project* rule over the whole-program index of one
    fixture (uncached -- fixtures are tiny)."""
    path = FIXTURES / fixture
    source = path.read_text()
    ctx = FileContext(path, fixture, source, ast.parse(source))
    index = ProjectIndex.build([ctx], cache_path=None)
    rule = PROJECT_RULES[rule_id](index, options or {})
    return [
        v for v in rule.run()
        if not suppresses(ctx.file_pragmas, rule_id)
        and not suppresses(ctx.line_pragmas.get(v.line, set()), rule_id)
    ]


def bad_lines(fixture: str, rule_id: str):
    return {v.line for v in violations(fixture, rule_id)}


def project_bad_lines(fixture: str, rule_id: str):
    return {v.line for v in project_violations(fixture, rule_id)}


# -- the generic contract: bad fires, good is silent ---------------------


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_bad_fixture_caught(rule_id):
    fixture = f"{rule_id.lower()}_bad.py"
    found = violations(fixture, rule_id)
    assert found, f"{rule_id} missed every violation in {fixture}"
    assert all(v.rule == rule_id for v in found)


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_good_fixture_clean(rule_id):
    fixture = f"{rule_id.lower()}_good.py"
    assert violations(fixture, rule_id) == [], \
        f"{rule_id} false-positives on {fixture}"


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rules_have_identity(rule_id):
    rule = RULES[rule_id]
    assert rule.name and rule.summary, f"{rule_id} lacks name/summary"


@pytest.mark.parametrize("rule_id", ALL_PROJECT_RULES)
def test_project_bad_fixture_caught(rule_id):
    fixture = f"{rule_id.lower()}_bad.py"
    found = project_violations(fixture, rule_id)
    assert found, f"{rule_id} missed every violation in {fixture}"
    assert all(v.rule == rule_id for v in found)


@pytest.mark.parametrize("rule_id", ALL_PROJECT_RULES)
def test_project_good_fixture_clean(rule_id):
    fixture = f"{rule_id.lower()}_good.py"
    assert project_violations(fixture, rule_id) == [], \
        f"{rule_id} false-positives on {fixture}"


@pytest.mark.parametrize("rule_id", ALL_PROJECT_RULES)
def test_project_rules_have_identity(rule_id):
    rule = PROJECT_RULES[rule_id]
    assert rule.name and rule.summary, f"{rule_id} lacks name/summary"


# -- per-rule pinpoint assertions ----------------------------------------


def test_rl001_flags_every_wall_read():
    assert bad_lines("rl001_bad.py", "RL001") >= {11, 15, 16, 17}


def test_rl001_allows_clock_boundary_by_default():
    rule = RULES["RL001"](None, {})  # ctx unused by applies_to
    assert not rule.applies_to("src/repro/obs/clock.py")
    assert rule.applies_to("src/repro/core/instance.py")


def test_rl002_catches_each_entropy_flavor():
    lines = bad_lines("rl002_bad.py", "RL002")
    # two module-scope itertools.count ids, stdlib random, unseeded
    # default_rng, legacy global, uuid4+urandom, id()-sort,
    # list(set(..)), bare-set for-loop.
    assert len(lines) >= 9


def test_rl003_catches_aliased_and_async_sleeps():
    assert len(bad_lines("rl003_bad.py", "RL003")) == 3


def test_rl004_catches_reintroduced_pr3_desync():
    """Acceptance gate: re-introducing the PR 3 template-cache bug --
    a shared seeded RNG drawn only on a cache miss -- must be caught."""
    found = violations("rl004_bad.py", "RL004")
    messages = " ".join(v.message for v in found)
    assert len(found) == 3  # miss-path draw x2 + in-guard draw
    assert "desync" in messages
    # The distilled FlowTemplate.build draw is the original incident.
    assert any("rng.integers" in v.snippet for v in found)


def test_rl004_accepts_the_shipped_fixes():
    # Derived-local-RNG and unconditional-draw variants stay silent.
    assert violations("rl004_good.py", "RL004") == []


def test_rl005_taints_derived_values_and_explicit_t():
    found = violations("rl005_bad.py", "RL005")
    fields = {v.message.split("`")[1] for v in found}
    assert fields == {"seconds=", "at=", "t="}


def test_rl006_flags_silent_broad_and_bare():
    assert len(bad_lines("rl006_bad.py", "RL006")) == 2


def test_rl007_names_the_taxonomy_in_the_message():
    found = violations("rl007_bad.py", "RL007")
    assert len(found) == 4
    assert all("mirror-egress" in v.message for v in found)


def test_rl007_fallback_matches_ledger():
    """The offline fallback vocabulary must track the live taxonomy."""
    from repro.devtools.lint.rules.rl007_drop_causes import (
        FALLBACK_TAXONOMY, taxonomy)
    assert taxonomy() == FALLBACK_TAXONOMY


def test_rl008_flags_each_clobber_flavor():
    # "w" open, .write_text, .write_bytes, keyword mode="xb".
    assert bad_lines("rl008_bad.py", "RL008") == {14, 20, 24, 28}


def test_rl008_scope_is_inclusive():
    """RL008 inverts the usual scope: it fires only inside the modules
    registered as durable-state writers, everywhere else is exempt."""
    rule = RULES["RL008"](None, {})  # ctx unused by applies_to
    assert rule.applies_to("src/repro/core/checkpoint.py")
    assert rule.applies_to("src/repro/core/campaign.py")
    assert rule.applies_to("src/repro/obs/journal.py")
    assert not rule.applies_to("src/repro/core/instance.py")
    assert not rule.applies_to("src/repro/util/atomio.py")


def test_rl008_fallback_matches_registry():
    """The offline fallback must track the live durable-module registry."""
    from repro.devtools.lint.rules.rl008_atomic_writes import (
        FALLBACK_DURABLE_MODULES, durable_modules)
    assert durable_modules() == FALLBACK_DURABLE_MODULES


def test_rl000_flags_missing_and_empty_reasons():
    # Reasonless file pragma, reasonless line pragma, empty `--` clause.
    assert bad_lines("rl000_bad.py", "RL000") == {9, 11, 12}


def test_rl000_is_not_self_suppressible():
    assert not RULES["RL000"].suppressible


def test_rl009_typo_gets_did_you_mean():
    found = project_violations("rl009_bad.py", "RL009")
    typo = [v for v in found
            if v.message.startswith("event kind `sheduled` is emitted")]
    assert typo and "did you mean `scheduled`" in typo[0].message


def test_rl009_flags_each_contract_break():
    found = project_violations("rl009_bad.py", "RL009")
    messages = " ".join(v.message for v in found)
    assert "emitted but never consumed" in messages
    assert "consumed but never emitted" in messages
    assert "drifts from the key set" in messages
    # The drift site names the missing/extra keys.
    drift = [v for v in found if "drifts" in v.message][0]
    assert "drops" in drift.message and "bytes" in drift.message


def test_rl009_observe_only_waives_unconsumed():
    found = project_violations(
        "rl009_bad.py", "RL009",
        options={"observe_only": ["report", "sheduled"]})
    assert all("never consumed" not in v.message for v in found)


def test_rl009_good_resolves_constants_and_defaults():
    """The good fixture only passes if kinds routed through a parameter
    default ("snapshot") and a module constant tuple (SPAN_KINDS) both
    resolve -- i.e. string propagation actually works."""
    assert project_violations("rl009_good.py", "RL009") == []


def test_rl010_flags_each_boundary_sin():
    found = project_violations("rl010_bad.py", "RL010")
    messages = " ".join(v.message for v in found)
    assert "lambda" in messages
    assert "nested function" in messages
    assert "`handle`" in messages       # open file as submit arg
    assert "`journals`" in messages     # RunJournals into iter_shard_results


def test_rl011_confines_and_traces():
    found = project_violations("rl011_bad.py", "RL011")
    messages = " ".join(v.message for v in found)
    assert "os.replace" in messages
    assert "CampaignLog" in messages
    # The reachability check names the worker entry and the call chain.
    reach = [v for v in found if "reaches durability call" in v.message]
    assert reach and "worker_entry -> _persist" in reach[0].message


def test_rl012_flags_each_provenance_break():
    found = project_violations("rl012_bad.py", "RL012")
    messages = " ".join(v.message for v in found)
    assert "raw integer seed" in messages
    assert "string domain" in messages          # numeric label
    assert "seed parameter `seed`" in messages  # int literal via call graph
    assert "crosses the `submit` process boundary" in messages


def test_rl012_accepts_hash_of_string_seeds():
    assert project_violations("rl012_good.py", "RL012") == []
