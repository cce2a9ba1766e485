"""Unit tests for operations, blocks, regions and def-use chains."""

import pytest

from repro.errors import IRError
from repro.ir import (
    Block,
    Builder,
    Module,
    Operation,
    Region,
    build_func,
    types as T,
    verify,
)
from repro.ir.dialect import REGISTRY, Dialect, DialectRegistry


def _const(builder, value=1.0):
    return builder.create("arith.constant", result_types=[T.f64],
                          attributes={"value": value}).result


class TestOperationBasics:
    def test_name_must_be_dotted(self):
        with pytest.raises(IRError):
            Operation.create("nodot")

    def test_dialect_and_opname(self):
        op = Operation.create("arith.addf", result_types=[T.f64])
        assert op.dialect == "arith"
        assert op.opname == "addf"

    def test_result_property_single(self):
        op = Operation.create("arith.constant", result_types=[T.f64])
        assert op.result.type == T.f64

    def test_result_property_rejects_multiple(self):
        op = Operation.create("d.pair", result_types=[T.f64, T.f64])
        with pytest.raises(IRError):
            _ = op.result

    def test_attr_coercion_and_unwrap(self):
        op = Operation.create("d.op", attributes={
            "i": 3, "f": 2.5, "s": "x", "b": True, "l": [1, 2],
            "d": {"k": 1},
        })
        assert op.attr("i") == 3
        assert op.attr("f") == 2.5
        assert op.attr("s") == "x"
        assert op.attr("b") is True
        assert op.attr("l") == [1, 2]
        assert op.attr("d") == {"k": 1}
        assert op.attr("missing", "def") == "def"


class TestDefUse:
    def test_uses_tracked(self):
        m = Module()
        b = Builder.at_end(m.body)
        c = _const(b)
        mul = b.create("arith.mulf", [c, c], [T.f64])
        assert len(c.uses) == 2
        assert all(op is mul for op, _ in c.uses)

    def test_replace_all_uses(self):
        m = Module()
        b = Builder.at_end(m.body)
        c1 = _const(b, 1.0)
        c2 = _const(b, 2.0)
        mul = b.create("arith.mulf", [c1, c1], [T.f64])
        c1.replace_all_uses_with(c2)
        assert mul.operands == (c2, c2)
        assert not c1.has_uses

    def test_erase_with_uses_rejected(self):
        m = Module()
        b = Builder.at_end(m.body)
        c = _const(b)
        b.create("arith.mulf", [c, c], [T.f64])
        with pytest.raises(IRError):
            c.op.erase()

    def test_erase_removes_from_block(self):
        m = Module()
        b = Builder.at_end(m.body)
        c = _const(b)
        assert len(m.body) == 1
        c.op.erase()
        assert len(m.body) == 0


class TestClone:
    def test_clone_remaps_internal_values(self):
        m = Module()
        b = Builder.at_end(m.body)
        c = _const(b)
        mul = b.create("arith.mulf", [c, c], [T.f64])
        func, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        inner = fb.create("arith.addf", [entry.args[0], entry.args[0]],
                          [T.f64])
        fb.create("func.return", [inner.result])
        clone = func.clone()
        cloned_entry = clone.regions[0].entry
        add = cloned_entry.operations[0]
        assert add.operands[0] is cloned_entry.args[0]
        assert add.operands[0] is not entry.args[0]

    def test_clone_preserves_attributes(self):
        op = Operation.create("d.op", attributes={"x": 42})
        assert op.clone().attr("x") == 42


class TestModule:
    def test_symbol_table(self):
        m = Module()
        build_func(m, "a", [], [])
        build_func(m, "b", [], [])
        assert set(m.symbols()) == {"a", "b"}
        assert m.lookup("a").attr("sym_name") == "a"

    def test_duplicate_symbols_rejected(self):
        m = Module()
        build_func(m, "a", [], [])
        build_func(m, "a", [], [])
        with pytest.raises(IRError):
            m.symbols()

    def test_unknown_symbol(self):
        with pytest.raises(IRError):
            Module().lookup("ghost")

    def test_walk_visits_nested(self):
        m = Module()
        _, entry, fb = build_func(m, "f", [], [])
        fb.create("func.return", [])
        names = [op.name for op in m.walk()]
        assert names == ["builtin.module", "func.func", "func.return"]


def _recursive_walk(op, pre_order=True):
    """The definition ``Operation.walk`` implements without recursion."""
    if pre_order:
        yield op
    for region in op.regions:
        for block in region.blocks:
            for child in list(block.operations):
                yield from _recursive_walk(child, pre_order)
    if not pre_order:
        yield op


def _leaf(tag):
    return Operation.create("test.leaf", attributes={"tag": tag})


def _nest(tag, depth):
    """An op with two regions (two blocks, one block) of leaves and, until
    ``depth`` runs out, one deeper nest in each block."""
    regions = []
    for r, blocks in enumerate((2, 1)):
        region = Region()
        for b in range(blocks):
            block = region.add_block(Block())
            block.append(_leaf(f"{tag}.{r}{b}a"))
            if depth > 1:
                block.append(_nest(f"{tag}.{r}{b}", depth - 1))
            block.append(_leaf(f"{tag}.{r}{b}z"))
        regions.append(region)
    return Operation.create("test.nest", attributes={"tag": tag},
                            regions=regions)


def _tags(ops):
    return [op.attr("tag") for op in ops]


class TestWalk:
    def test_matches_recursive_definition_on_a_deep_nest(self):
        root = _nest("n", 3)
        for pre_order in (True, False):
            got = list(root.walk(pre_order))
            assert got == list(_recursive_walk(root, pre_order))
            assert len(got) == len(set(map(id, got))) == 91
        assert _tags(root.walk())[:4] == ["n", "n.00a", "n.00", "n.00.00a"]
        assert _tags(root.walk(pre_order=False))[-1] == "n"
        assert _tags(root.walk(pre_order=False))[0] == "n.00a"

    def test_block_is_snapshotted_when_entered(self):
        root = _nest("n", 2)
        first, second = root.regions[0].blocks
        seen = []
        for op in root.walk():
            seen.append(op.attr("tag"))
            if op.attr("tag") == "n.00a":
                # The next sibling is already in the snapshot: it is still
                # visited, nested ops included, though it is detached now.
                first.operations[1].erase()
                # Appended to a block already entered: not visited.
                first.append(_leaf("late"))
                # Appended to a block not reached yet: visited.
                second.append(_leaf("early"))
        assert "late" not in seen
        assert seen[:4] == ["n", "n.00a", "n.00", "n.00.00a"]
        assert seen[seen.index("n.01z") + 1] == "early"
        assert _tags(first.operations) == ["n.00a", "n.00z", "late"]

    def test_list_then_erase(self):
        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        dead = fb.create("arith.mulf", [entry.args[0], entry.args[0]],
                         [T.f64])
        fb.create("func.return", [entry.args[0]])
        ops = list(m.walk())
        for op in ops:
            if op is dead:
                op.erase()
        assert [op.name for op in ops] == [
            "builtin.module", "func.func", "arith.mulf", "func.return"]
        assert [op.name for op in m.walk()] == [
            "builtin.module", "func.func", "func.return"]


class TestRegistry:
    def test_op_registered_after_a_failed_lookup_is_found(self):
        registry = DialectRegistry()
        late = registry.register(Dialect("late"))
        probe = Operation.create("late.op")
        assert registry.opdef_for(probe) is None
        opdef = late.op("op", num_operands=0)
        assert registry.opdef_for(probe) is opdef
        assert registry.opdefs["late.op"] is opdef

    def test_ops_defined_before_registration_are_found(self):
        early = Dialect("early")
        opdef = early.op("op")
        registry = DialectRegistry()
        registry.register(early)
        assert registry.opdef_for(Operation.create("early.op")) is opdef

    def test_private_registry_never_sees_global_ops(self):
        registry = DialectRegistry()
        constant = Operation.create("arith.constant", [], [T.f64],
                                    {"value": 1.0})
        assert REGISTRY.opdef_for(constant) is not None
        assert registry.opdef_for(constant) is None
        private = registry.register(Dialect("arith"))
        mine = private.op("constant")
        assert registry.opdef_for(constant) is mine
        assert REGISTRY.opdef_for(constant) is not mine

    def test_one_dialect_in_two_registries(self):
        shared = Dialect("shared")
        first, second = DialectRegistry(), DialectRegistry()
        first.register(shared)
        second.register(shared)
        opdef = shared.op("op")
        probe = Operation.create("shared.op")
        assert first.opdef_for(probe) is opdef
        assert second.opdef_for(probe) is opdef

    def test_duplicate_op_still_raises(self):
        dialect = DialectRegistry().register(Dialect("dup"))
        dialect.op("op")
        with pytest.raises(IRError, match="duplicate op definition: dup.op"):
            dialect.op("op")

    def test_unregistered_dialect_and_op(self):
        assert REGISTRY.opdef_for(Operation.create("ghost.op")) is None
        assert REGISTRY.opdef_for(Operation.create("arith.ghost")) is None


class TestVerifier:
    def test_valid_module_verifies(self):
        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        r = fb.create("arith.addf", [entry.args[0], entry.args[0]], [T.f64])
        fb.create("func.return", [r.result])
        verify(m)

    def test_use_before_def_rejected(self):
        m = Module()
        b = Builder.at_end(m.body)
        c = _const(b)
        mul = Operation.create("arith.mulf", [c, c], [T.f64])
        # Insert the multiply *before* the constant definition.
        m.body.insert(0, mul)
        with pytest.raises(IRError):
            verify(m)

    def test_registered_arity_enforced(self):
        m = Module()
        b = Builder.at_end(m.body)
        c = _const(b)
        b.create("arith.mulf", [c], [T.f64])  # needs two operands
        with pytest.raises(IRError):
            verify(m)

    def test_missing_required_attr_rejected(self):
        m = Module()
        b = Builder.at_end(m.body)
        b.create("arith.constant", [], [T.f64])  # no 'value'
        with pytest.raises(IRError):
            verify(m)

    def test_func_signature_mismatch_rejected(self):
        m = Module()
        entry = Block([T.f64])
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": "bad",
             "function_type": T.FunctionType((T.i32,), ())},
            [Region([entry])],
        )
        m.append(func)
        with pytest.raises(IRError):
            verify(m)


class TestBuilder:
    def test_insertion_before_and_after(self):
        m = Module()
        b = Builder.at_end(m.body)
        first = b.create("d.one", [], [])
        last = b.create("d.three", [], [])
        Builder.before(last).create("d.two", [], [])
        assert [op.name for op in m.body] == ["d.one", "d.two", "d.three"]

    def test_at_context_manager(self):
        m = Module()
        b = Builder.at_end(m.body)
        block = Block()
        with b.at(block):
            b.create("d.inner", [], [])
        b.create("d.outer", [], [])
        assert [op.name for op in block] == ["d.inner"]
        assert [op.name for op in m.body] == ["d.outer"]
