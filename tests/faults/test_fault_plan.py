"""Fault plan parsing, validation and the deterministic decision hash."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError, is_retryable
from repro.faults import FaultPlan, FaultRule, InjectedFault


class TestFaultRuleValidation:
    def test_needs_a_point(self):
        with pytest.raises(ConfigError, match="point"):
            FaultRule(point="")
        with pytest.raises(ConfigError, match="point"):
            FaultRule.from_dict({"mode": "error"})

    def test_rejects_unknown_mode_and_error_kind(self):
        with pytest.raises(ConfigError, match="mode"):
            FaultRule(point="store.put", mode="explode")
        with pytest.raises(ConfigError, match="error"):
            FaultRule(point="store.put", error="weird")

    def test_conditions_are_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="at most one"):
            FaultRule(point="store.put", probability=0.5, at=1)
        with pytest.raises(ConfigError, match="at most one"):
            FaultRule(point="store.put", at=1, every=2)

    def test_bounds(self):
        with pytest.raises(ConfigError, match="probability"):
            FaultRule(point="store.put", probability=1.5)
        with pytest.raises(ConfigError, match="'at'"):
            FaultRule(point="store.put", at=0)
        with pytest.raises(ConfigError, match="'every'"):
            FaultRule(point="store.put", every=0)
        with pytest.raises(ConfigError, match="delay"):
            FaultRule(point="store.put", mode="delay", delay=-1.0)

    def test_from_dict_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ConfigError, match="unknown fault rule keys"):
            FaultRule.from_dict({"point": "store.put", "porbability": 0.1})
        with pytest.raises(ConfigError, match="fault rule 'at'"):
            FaultRule.from_dict({"point": "store.put", "at": {}})
        with pytest.raises(ConfigError, match="mapping"):
            FaultRule.from_dict(["store.put"])

    @pytest.mark.parametrize("key, value", [
        ("once", "false"),
        ("at", 1.5),
        ("probability", True),
        ("delay", float("nan")),
    ])
    def test_from_dict_coerces_nothing(self, key, value):
        """Each used to load: ``"false"`` as ``once=True``, 1.5 as hit 1,
        ``true`` as probability 1.0, and a NaN delay as given."""
        with pytest.raises(ConfigError, match=f"fault rule '?{key}'? must be"):
            FaultRule.from_dict({"point": "store.put", key: value})

    def test_round_trips_through_to_dict(self):
        rule = FaultRule.from_dict({
            "point": "worker.execute", "mode": "crash", "at": 1,
            "fuse": "/tmp/f", "once": True, "exit_code": 7,
        })
        assert FaultRule.from_dict(rule.to_dict()) == rule


class TestFaultRuleMatching:
    def test_point_and_key(self):
        rule = FaultRule(point="store.put", match_key="cmd-a")
        assert rule.matches("store.put", "cmd-a")
        assert not rule.matches("store.put", "cmd-b")
        assert not rule.matches("store.get", "cmd-a")
        unkeyed = FaultRule(point="store.put")
        assert unkeyed.matches("store.put", None)
        assert unkeyed.matches("store.put", "anything")

    def test_decide_at_every_and_always(self):
        at = FaultRule(point="p", at=3)
        assert [at.decide(0, 0, None, h) for h in (1, 2, 3, 4)] == \
            [False, False, True, False]
        every = FaultRule(point="p", every=2)
        assert [every.decide(0, 0, None, h) for h in (1, 2, 3, 4)] == \
            [False, True, False, True]
        always = FaultRule(point="p")
        assert all(always.decide(0, 0, None, h) for h in (1, 2, 3))

    def test_probability_decisions_are_deterministic(self):
        rule = FaultRule(point="p", probability=0.2)
        draws = [rule.decide(7, 0, "k", hit) for hit in range(1, 2001)]
        assert draws == [rule.decide(7, 0, "k", hit) for hit in range(1, 2001)]
        # Statistically plausible for a uniform hash (wide tolerance;
        # the sequence is fixed by the seed, so this can never flake).
        rate = sum(draws) / len(draws)
        assert 0.1 < rate < 0.3

    def test_probability_depends_on_seed_and_rule_index(self):
        rule = FaultRule(point="p", probability=0.5)
        a = [rule.decide(1, 0, "k", hit) for hit in range(1, 101)]
        b = [rule.decide(2, 0, "k", hit) for hit in range(1, 101)]
        c = [rule.decide(1, 1, "k", hit) for hit in range(1, 101)]
        assert a != b and a != c

    def test_probability_edges(self):
        never = FaultRule(point="p", probability=0.0)
        always = FaultRule(point="p", probability=1.0)
        assert not any(never.decide(0, 0, None, h) for h in range(1, 50))
        assert all(always.decide(0, 0, None, h) for h in range(1, 50))


class TestFaultPlan:
    def test_from_dict_validation(self):
        with pytest.raises(ConfigError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"seeds": 1})
        with pytest.raises(ConfigError, match="'rules' must be a list"):
            FaultPlan.from_dict({"rules": {"point": "p"}})
        with pytest.raises(ConfigError, match="JSON object"):
            FaultPlan.from_dict([1])

    @pytest.mark.parametrize("seed", [2.7, "abc"])
    def test_seed_is_a_whole_number(self, seed):
        """2.7 used to load as seed 2 and ``"abc"`` to escape as a bare
        ``ValueError``."""
        with pytest.raises(ConfigError, match="fault plan seed must be a whole number"):
            FaultPlan.from_dict({"seed": seed})
        assert FaultPlan.from_dict({"seed": 3.0}).seed == 3

    def test_from_json_inline_and_file(self, tmp_path):
        inline = FaultPlan.from_json(
            '{"seed": 7, "rules": [{"point": "store.put", "at": 1}]}'
        )
        assert inline.seed == 7 and inline.name == "inline"
        assert inline.rules[0].point == "store.put"

        path = tmp_path / "chaos.json"
        path.write_text('{"seed": 3, "rules": []}', encoding="utf-8")
        from_file = FaultPlan.from_json(path)
        assert from_file.seed == 3 and from_file.name == "chaos.json"

    def test_from_json_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read fault plan"):
            FaultPlan.from_json(tmp_path / "missing.json")
        with pytest.raises(ConfigError, match="invalid fault plan JSON"):
            FaultPlan.from_json("{not json")

    def test_explicit_name_survives(self):
        plan = FaultPlan.from_json('{"name": "soak-a", "rules": []}')
        assert plan.name == "soak-a"

    def test_rules_for(self):
        plan = FaultPlan.from_dict({"rules": [
            {"point": "store.put"}, {"point": "store.get"},
            {"point": "store.put", "at": 2},
        ]})
        indexed = plan.rules_for("store.put")
        assert [index for index, _rule in indexed] == [0, 2]

    def test_injected_fault_is_retryable(self):
        # Chaos emulates transient trouble; the retry loop must re-roll
        # the (deterministic) dice instead of failing the request.
        assert is_retryable(InjectedFault("boom"))
