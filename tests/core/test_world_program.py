"""World registry, program definitions, effect constructors."""

from __future__ import annotations

import pytest

from repro import Execution, Program, World, sched_yield, spawn
from repro.core.effects import Effect, EffectKind
from repro.core.execution import ExecutionConfig, SchedulingPolicy
from repro.core.program import _normalize_threads
from repro.errors import ProgramDefinitionError


class TestWorld:
    def test_duplicate_names_rejected(self):
        w = World()
        w.var("x", 0)
        with pytest.raises(ProgramDefinitionError):
            w.var("x", 1)

    def test_find_by_name(self):
        w = World()
        v = w.var("x", 42)
        assert w.find("x") is v
        with pytest.raises(ProgramDefinitionError):
            w.find("missing")

    def test_objects_in_registration_order(self):
        w = World()
        names = ["a", "b", "c"]
        for name in names:
            w.atomic(name)
        assert [o.name for o in w.objects] == names

    def test_fingerprint_changes_with_values(self):
        # Shared state changes only through the engine, which marks
        # every object a step touches for re-digesting.
        def setup(w):
            v = w.var("x", 0)

            def writer():
                yield v.write(1)

            return {"writer": writer}

        config = ExecutionConfig(policy=SchedulingPolicy.EVERY_ACCESS)
        ex = Execution(Program("p", setup), config)
        (writer,) = ex.enabled_threads()
        ex.execute(writer)  # START
        before = ex.world.fingerprint()
        ex.execute(writer)  # the write
        assert ex.world.find("x").value == 1
        assert ex.world.fingerprint() != before

    def test_fingerprint_is_name_keyed(self):
        w1 = World()
        w1.var("a", 1)
        w1.var("b", 2)
        w2 = World()
        w2.var("b", 2)
        w2.var("a", 1)
        assert w1.fingerprint() == w2.fingerprint()

    def test_factories_cover_all_primitives(self):
        w = World()
        w.var("v")
        w.atomic("a")
        w.array("arr", [1, 2])
        w.mutex("m")
        w.critical_section("cs")
        w.event("e")
        w.semaphore("s")
        w.condvar("cv")
        w.rwlock("rw")
        w.barrier("bar", 2)
        w.alloc("obj", field=1)
        assert len(w.objects) > 10


class TestProgramDefinition:
    def test_mapping_and_tuple_forms(self):
        def body():
            yield sched_yield()

        assert _normalize_threads({"a": body}) == [("a", body, ())]
        assert _normalize_threads([("a", body)]) == [("a", body, ())]
        assert _normalize_threads([("a", body, (1, 2))]) == [("a", body, (1, 2))]

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramDefinitionError):
            _normalize_threads({})

    def test_duplicate_labels_rejected(self):
        def body():
            yield sched_yield()

        with pytest.raises(ProgramDefinitionError):
            _normalize_threads([("a", body), ("a", body)])

    def test_non_callable_body_rejected(self):
        with pytest.raises(ProgramDefinitionError):
            _normalize_threads({"a": 42})

    def test_bad_label_rejected(self):
        def body():
            yield sched_yield()

        with pytest.raises(ProgramDefinitionError):
            _normalize_threads([("", body)])

    def test_generator_setup_rejected(self):
        def setup(w):
            yield  # pragma: no cover

        with pytest.raises(ProgramDefinitionError):
            Program("p", setup).instantiate()

    def test_non_callable_setup_rejected(self):
        with pytest.raises(ProgramDefinitionError):
            Program("p", 42)

    def test_non_generator_body_reported_at_start(self):
        def setup(w):
            w.var("x")

            def not_a_generator():
                return 42

            return {"t": not_a_generator}

        ex = Execution(Program("p", setup))
        with pytest.raises(ProgramDefinitionError):
            ex.execute(ex.enabled_threads()[0])

    def test_yielding_non_effect_reported(self):
        def setup(w):
            def bad():
                yield "not an effect"

            return {"t": bad}

        ex = Execution(Program("p", setup))
        with pytest.raises(ProgramDefinitionError):
            ex.execute(ex.enabled_threads()[0])


class TestEffectConstructors:
    def test_spawn_effect_shape(self):
        def child():
            yield sched_yield()

        effect = spawn(child, 1, 2, name="kid")
        assert effect.kind is EffectKind.SPAWN
        assert effect.args == (child, (1, 2), "kid")

    def test_yield_effect(self):
        effect = sched_yield()
        assert effect.kind is EffectKind.YIELD
        assert effect.target is None
        assert not effect.may_block

    def test_blocking_classification(self):
        w = World()
        assert w.mutex("m").acquire().may_block
        assert not w.mutex("m2").release().may_block
        assert w.event("e").wait().may_block
        assert not w.event("e2").set().may_block
        assert w.semaphore("s").acquire().may_block

    def test_repr_is_informative(self):
        w = World()
        effect = w.atomic("a").cas(1, 2)
        assert "cas" in repr(effect)
        assert "a" in repr(effect)

    def test_effects_are_immutable(self):
        effect = Effect(EffectKind.YIELD)
        with pytest.raises(AttributeError):
            effect.kind = EffectKind.READ
