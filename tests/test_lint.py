"""Tests for ``repro-lint`` (the AST invariant checker itself).

Each rule gets at least one failing fixture and one passing fixture;
plus pragma suppression, the CLI exit-code contract, and the
self-check that ``src/repro`` lints clean.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.tools.lint as lint_package
from repro.tools.lint import (
    LintRunner,
    build_call_graph,
    check_api_surface,
    main,
    module_name_for,
)
from repro.tools.lint.rules import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "repro"


def lint_snippet(tmp_path, code, select=None):
    """Lint one fixture module; returns the diagnostics."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(code))
    rules = (
        [RULES[name] for name in select]
        if select
        else list(RULES.values())
    )
    runner = LintRunner(rules=rules)
    runner.add_path(path)
    return runner.run()


def rule_names(diagnostics):
    return sorted({diagnostic.rule for diagnostic in diagnostics})


class TestSeedDiscipline:
    """RL001: every RNG traces to a caller-provided seed."""

    def test_legacy_global_state_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def sample(n):
                np.random.seed(0)
                return np.random.rand(n)
            """,
            select=["RL001"],
        )
        assert rule_names(diagnostics) == ["RL001"]
        assert len(diagnostics) == 2

    def test_argless_default_rng_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def sample(n):
                return np.random.default_rng().normal(size=n)
            """,
            select=["RL001"],
        )
        assert len(diagnostics) == 1
        assert "OS entropy" in diagnostics[0].message

    def test_inline_literal_seed_in_function_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            from numpy.random import default_rng

            def sample(n):
                rng = default_rng(0xBEEF)
                return rng.normal(size=n)
            """,
            select=["RL001"],
        )
        assert len(diagnostics) == 1
        assert "inline numeric-literal seed" in diagnostics[0].message

    def test_legacy_import_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            "from numpy.random import rand\n",
            select=["RL001"],
        )
        assert len(diagnostics) == 1

    def test_disciplined_seeding_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            _STUDY_SEED = 0xBEEF

            def sample(n, seed=_STUDY_SEED, rng=None):
                rng = rng or np.random.default_rng(seed)
                generator: np.random.Generator = rng
                return generator.normal(size=n)
            """,
            select=["RL001"],
        )
        assert diagnostics == []

    def test_module_level_literal_seed_allowed(self, tmp_path):
        # A module-level constant *is* the named-provenance form.
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            _SHARED_RNG = np.random.default_rng(1234)
            """,
            select=["RL001"],
        )
        assert diagnostics == []


def write_api_package(root, init="", api=""):
    """Materialize a minimal package for RL002 fixtures."""
    package = root / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent(init))
    (package / "_api.py").write_text(textwrap.dedent(api))
    return package


GOOD_INIT = """
    __all__ = ["__version__"]
    __version__ = "1.0"

    def __getattr__(name):
        raise AttributeError(name)
    """


class TestApiSurface:
    """RL002: the three-way public-API contract, checked statically."""

    def test_consistent_surface_passes(self, tmp_path):
        package = write_api_package(
            tmp_path,
            init=GOOD_INIT,
            api="__all__ = ['run']\n\ndef run():\n    return 1\n",
        )
        assert check_api_surface(package) == []

    def test_dangling_api_name_flagged(self, tmp_path):
        package = write_api_package(
            tmp_path,
            init=GOOD_INIT,
            api="__all__ = ['run', 'ghost']\n\ndef run():\n    return 1\n",
        )
        diagnostics = check_api_surface(package)
        assert len(diagnostics) == 1
        assert "ghost" in diagnostics[0].message

    def test_duplicate_all_entries_flagged(self, tmp_path):
        package = write_api_package(
            tmp_path,
            init=GOOD_INIT,
            api="__all__ = ['run', 'run']\n\ndef run():\n    return 1\n",
        )
        diagnostics = check_api_surface(package)
        assert any("duplicate" in d.message for d in diagnostics)

    def test_static_lazy_overlap_flagged(self, tmp_path):
        package = write_api_package(
            tmp_path,
            init="""
                __all__ = ["run"]

                def __getattr__(name):
                    raise AttributeError(name)
                """,
            api="__all__ = ['run']\n\ndef run():\n    return 1\n",
        )
        diagnostics = check_api_surface(package)
        assert any("overlap" in d.message for d in diagnostics)

    def test_missing_getattr_flagged(self, tmp_path):
        package = write_api_package(
            tmp_path,
            init='__all__ = ["__version__"]\n__version__ = "1.0"\n',
            api="__all__ = ['run']\n\ndef run():\n    return 1\n",
        )
        diagnostics = check_api_surface(package)
        assert any("__getattr__" in d.message for d in diagnostics)

    def test_runner_discovers_package(self, tmp_path):
        # The project rule finds the package dir from the file set.
        package = write_api_package(
            tmp_path,
            init=GOOD_INIT,
            api="__all__ = ['ghost']\n",
        )
        runner = LintRunner(rules=[RULES["RL002"]])
        runner.add_path(package)
        assert rule_names(runner.run()) == ["RL002"]


class TestAsyncPurity:
    """RL003: no blocking calls directly inside async def bodies."""

    def test_blocking_calls_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import time

            async def handler(future, path):
                time.sleep(0.1)
                value = future.result()
                with open(path) as handle:
                    return handle.read(), value
            """,
            select=["RL003"],
        )
        assert len(diagnostics) == 3

    def test_sync_path_io_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            async def handler(path):
                return path.read_text()
            """,
            select=["RL003"],
        )
        assert len(diagnostics) == 1

    def test_awaited_and_executor_code_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import asyncio

            async def handler(loop, path, executor):
                await asyncio.sleep(0.1)

                def blocking():
                    with open(path) as handle:
                        return handle.read()

                return await loop.run_in_executor(executor, blocking)
            """,
            select=["RL003"],
        )
        assert diagnostics == []

    def test_anonymous_default_executor_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            async def handler(loop, fn, xs):
                return await loop.run_in_executor(None, fn, xs)
            """,
            select=["RL003"],
        )
        assert len(diagnostics) == 1
        assert "anonymous" in diagnostics[0].message

    def test_named_owned_executor_passes(self, tmp_path):
        # The server pattern: a named, server-owned, bounded executor
        # that stop() can drain — exactly what the rule steers toward.
        diagnostics = lint_snippet(
            tmp_path,
            """
            async def handler(loop, server, xs):
                return await loop.run_in_executor(
                    server._executor, server.evaluate, xs
                )
            """,
            select=["RL003"],
        )
        assert diagnostics == []

    def test_sync_function_exempt(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import time

            def warmup(future):
                time.sleep(0.1)
                return future.result()
            """,
            select=["RL003"],
        )
        assert diagnostics == []


class TestHygiene:
    """RL006: bare except and mutable default hygiene."""

    def test_bare_except_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def swallow(fn):
                try:
                    return fn()
                except:
                    return None
            """,
            select=["RL006"],
        )
        assert len(diagnostics) == 1

    def test_mutable_default_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def collect(item, bucket=[], table=dict()):
                bucket.append(item)
                return bucket, table
            """,
            select=["RL006"],
        )
        assert len(diagnostics) == 2

    def test_clean_function_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def collect(item, bucket=None):
                try:
                    bucket = list(bucket or ())
                except TypeError:
                    bucket = []
                bucket.append(item)
                return bucket
            """,
            select=["RL006"],
        )
        assert diagnostics == []


class TestPragmas:
    """``# repro-lint: disable=...`` suppression semantics."""

    def test_line_pragma_suppresses_named_rule(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def sample(n):
                rng = np.random.default_rng()  # repro-lint: disable=RL001
                return rng.normal(size=n)
            """,
            select=["RL001"],
        )
        assert diagnostics == []

    def test_line_pragma_is_rule_specific(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def sample(n):
                rng = np.random.default_rng()  # repro-lint: disable=RL006
                return rng.normal(size=n)
            """,
            select=["RL001"],
        )
        assert len(diagnostics) == 1

    def test_line_pragma_disable_all(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def swallow(fn, bucket=[]):  # repro-lint: disable=all
                return fn(bucket)
            """,
            select=["RL006"],
        )
        assert diagnostics == []

    def test_file_pragma_suppresses_whole_file(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            # repro-lint: disable-file=RL001
            import numpy as np

            def sample(n):
                return np.random.default_rng().normal(size=n)

            def resample(n):
                np.random.seed(0)
                return np.random.rand(n)
            """,
            select=["RL001"],
        )
        assert diagnostics == []


class TestCLI:
    """Exit-code contract of ``python -m repro.tools.lint``."""

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select", "RL999", "."]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("VALUE = 1\n")
        assert main([str(path)]) == 0

    def test_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x=[]):\n    return x\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "RL006" in out
        assert f"{path}:1:" in out

    def test_unparsable_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        assert main([str(path)]) == 1
        assert "RL000" in capsys.readouterr().out

    def test_disable_skips_rule(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x=[]):\n    return x\n")
        assert main(["--disable", "RL006", str(path)]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines()}
        assert listed == {
            "RL001", "RL002", "RL003", "RL006", "RL008", "RL009",
        }

    @pytest.mark.parametrize("rule", ["RL004", "RL005", "RL007"])
    def test_retired_rule_is_unknown(self, rule, capsys):
        # A stale --select or --disable of a retired rule fails loudly
        # instead of linting nothing (or everything) without a word.
        assert main(["--select", rule, "."]) == 2
        assert main(["--disable", rule, "."]) == 2
        assert f"unknown rule(s): {rule}" in capsys.readouterr().err

    def test_graph_cfg_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("VALUE = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["--graph", "cfg", str(path)])
        assert excinfo.value.code == 2

    def test_cfg_engine_is_gone(self):
        assert importlib.util.find_spec("repro.tools.lint.cfg") is None
        for name in ("CFG", "build_cfg", "forward_may"):
            assert not hasattr(lint_package, name)


class TestSelfCheck:
    """The shipped library must satisfy its own linter."""

    def test_src_repro_lints_clean(self, capsys):
        assert PACKAGE_DIR.is_dir()
        assert main([str(PACKAGE_DIR)]) == 0

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_each_rule_clean_individually(self, rule, capsys):
        assert main(["--select", rule, str(PACKAGE_DIR)]) == 0


# -- call-graph machinery -----------------------------------------------------


def graph_of(modules):
    """Call graph over ``{module_name: source}`` fixtures."""
    return build_call_graph(
        [
            (name, ast.parse(textwrap.dedent(source)))
            for name, source in modules.items()
        ]
    )


class TestCallGraph:
    """Module-qualified call resolution and dispatch entry points."""

    def test_aliased_import_resolves(self):
        graph = graph_of(
            {
                "pkg.worklib": """
                    def work():
                        return 1
                """,
                "pkg.driver": """
                    import pkg.worklib as lib

                    def run():
                        return lib.work()
                """,
            }
        )
        assert "pkg.worklib.work" in graph.edges.get("pkg.driver.run", set())

    def test_from_import_alias_resolves(self):
        graph = graph_of(
            {
                "pkg.worklib": """
                    def work():
                        return 1
                """,
                "pkg.driver": """
                    from pkg.worklib import work as do_work

                    def run():
                        return do_work()
                """,
            }
        )
        assert "pkg.worklib.work" in graph.edges.get("pkg.driver.run", set())

    def test_self_method_call_resolves(self):
        graph = graph_of(
            {
                "mod": """
                    class Engine:
                        def outer(self):
                            return self.inner()

                        def inner(self):
                            return 1
                """,
            }
        )
        assert "mod.Engine.inner" in graph.edges.get("mod.Engine.outer", set())

    def test_local_instance_method_resolves(self):
        graph = graph_of(
            {
                "mod": """
                    class Engine:
                        def inner(self):
                            return 1

                    def run():
                        engine = Engine()
                        return engine.inner()
                """,
            }
        )
        assert "mod.Engine.inner" in graph.edges.get("mod.run", set())

    def test_nested_def_gets_parent_edge(self):
        graph = graph_of(
            {
                "mod": """
                    def outer():
                        def helper():
                            return 1
                        return helper
                """,
            }
        )
        assert "mod.outer.helper" in graph.functions
        assert "mod.outer.helper" in graph.edges.get("mod.outer", set())

    def test_thread_target_is_entry(self):
        graph = graph_of(
            {
                "mod": """
                    import threading

                    def worker():
                        return 1

                    def launch():
                        threading.Thread(target=worker).start()
                """,
            }
        )
        assert "mod.worker" in graph.thread_entries

    def test_parallel_map_argument_is_entry(self):
        graph = graph_of(
            {
                "mod": """
                    from repro.simulation.runtime import parallel_map

                    def corner(payload):
                        return payload

                    def sweep(items):
                        return parallel_map(corner, items)
                """,
            }
        )
        assert "mod.corner" in graph.thread_entries

    def test_reachable_is_transitive(self):
        graph = graph_of(
            {
                "mod": """
                    def a():
                        return b()

                    def b():
                        return c()

                    def c():
                        return 1
                """,
            }
        )
        assert graph.reachable({"mod.a"}) == {"mod.a", "mod.b", "mod.c"}

    def test_module_name_for_walks_packages(self, tmp_path):
        package = tmp_path / "outer" / "inner"
        package.mkdir(parents=True)
        (tmp_path / "outer" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        target = package / "module.py"
        target.write_text("")
        assert module_name_for(target) == "outer.inner.module"
        assert module_name_for(package / "__init__.py") == "outer.inner"


class TestLockDiscipline:
    """RL008: thread-reachable shared-state mutation needs its lock."""

    def test_unguarded_mutation_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            _CACHE = {}
            _CACHE_LOCK = threading.Lock()

            def worker(key):
                _CACHE[key] = 1
                return _CACHE[key]

            def launch():
                threading.Thread(target=worker).start()
            """,
            select=["RL008"],
        )
        assert rule_names(diagnostics) == ["RL008"]

    def test_guarded_mutation_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            _CACHE = {}
            _CACHE_LOCK = threading.Lock()

            def worker(key):
                with _CACHE_LOCK:
                    _CACHE[key] = 1
                return 1

            def launch():
                threading.Thread(target=worker).start()
            """,
            select=["RL008"],
        )
        assert diagnostics == []

    def test_unreachable_function_not_flagged(self, tmp_path):
        # No thread entry point: single-threaded mutation is fine.
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            _CACHE = {}
            _CACHE_LOCK = threading.Lock()

            def worker(key):
                _CACHE[key] = 1
                return _CACHE[key]
            """,
            select=["RL008"],
        )
        assert diagnostics == []

    def test_unguarded_lazy_global_init_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            _TABLE = None
            _TABLE_LOCK = threading.Lock()

            def lookup(key):
                global _TABLE
                if _TABLE is None:
                    _TABLE = {}
                return _TABLE.get(key)

            def fan_out(executor):
                executor.submit(lookup)
            """,
            select=["RL008"],
        )
        assert rule_names(diagnostics) == ["RL008"]

    def test_double_checked_lazy_init_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            _TABLE = None
            _TABLE_LOCK = threading.Lock()

            def lookup(key):
                global _TABLE
                if _TABLE is None:
                    with _TABLE_LOCK:
                        if _TABLE is None:
                            _TABLE = {}
                return _TABLE.get(key)

            def fan_out(executor):
                executor.submit(lookup)
            """,
            select=["RL008"],
        )
        assert diagnostics == []

    def test_shared_instance_unguarded_method_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    self._items[key] = value

            REGISTRY = Registry()

            def worker(key):
                REGISTRY.put(key, 1)

            def launch():
                threading.Thread(target=worker).start()
            """,
            select=["RL008"],
        )
        assert rule_names(diagnostics) == ["RL008"]

    def test_shared_instance_guarded_method_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

            REGISTRY = Registry()

            def worker(key):
                REGISTRY.put(key, 1)

            def launch():
                threading.Thread(target=worker).start()
            """,
            select=["RL008"],
        )
        assert diagnostics == []


class TestHotPathAllocation:
    """RL009: no (B, L)-scale float materialization on packed paths."""

    def test_dense_float_allocation_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def packed_step(words):
                scratch = np.zeros((64, 1024))
                return scratch
            """,
            select=["RL009"],
        )
        assert rule_names(diagnostics) == ["RL009"]

    def test_integer_allocation_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def packed_step(words):
                scratch = np.zeros((64, 1024), dtype=np.uint64)
                return scratch
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_astype_float_on_unpacked_bits_flagged(self, tmp_path):
        # The violation sits in a helper only *reachable* from the
        # packed entry point — the call graph carries the taint.
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def _widen(words):
                bits = unpack_bits(words)
                return bits.astype(np.float64)

            def packed_run(words):
                return _widen(words)
            """,
            select=["RL009"],
        )
        assert rule_names(diagnostics) == ["RL009"]

    def test_per_clock_loop_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_scan(stream_length):
                total = 0
                for clock in range(stream_length):
                    total += clock
                return total
            """,
            select=["RL009"],
        )
        assert rule_names(diagnostics) == ["RL009"]

    def test_unreachable_function_not_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def dense_reference(words):
                return np.zeros((64, 1024))
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_pragma_suppresses_intentional_site(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def packed_step(words):
                scratch = np.zeros((64, 1024))  # repro-lint: disable=RL009
                return scratch
            """,
            select=["RL009"],
        )
        assert diagnostics == []


class TestHotPathRoundTrip:
    """RL009: no unpack_bits -> pack_bits round-trip on packed paths.

    Each fixture but the last is reached from a packed entry point: it
    is one itself, or a ``packed_*`` function or ``Packed*`` method
    calls it.
    """

    def test_direct_round_trip_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_reshard(words, length):
                return pack_bits(unpack_bits(words, length))
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1
        assert "round-trip" in diagnostics[0].message

    def test_tainted_name_round_trip_in_helper_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def _reshard(words, length):
                plane = unpack_bits(words, length)
                masked = plane & 1
                return pack_bits(masked)

            def packed_run(words, length):
                return _reshard(words, length)
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1
        assert "round-trip" in diagnostics[0].message
        assert diagnostics[0].line == 5

    def test_fresh_bits_pass(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_compare(thresholds, values, words, length):
                bits = values < thresholds
                plane = unpack_bits(words, length)
                total = plane.sum()
                return pack_bits(bits), total
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_rebinding_a_name_from_its_own_pack_passes(self, tmp_path):
        # pack_bits consumes the previous x; only the new x is tainted.
        diagnostics = lint_snippet(
            tmp_path,
            """
            def _apply(channel, x, length):
                x = unpack_bits(channel.apply_words(pack_bits(x)), length)
                return x.mean()

            def packed_run(channel, x, length):
                return _apply(channel, x, length)
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_augmented_rebinding_from_its_own_pack_passes(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_toggle(mask, x, length):
                x ^= unpack_bits(mask ^ pack_bits(x), length)
                return x.sum()
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_round_trip_inside_a_rebinding_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_reshard(words, length):
                words = pack_bits(unpack_bits(words, length))
                return words
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1

    def test_round_trip_through_a_second_name_still_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_apply(channel, x, length):
                y = unpack_bits(channel.apply_words(pack_bits(x)), length)
                return pack_bits(y)
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 4

    def test_rebound_name_feeding_a_later_pack_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def _apply(channel, x, length):
                x = unpack_bits(channel.apply_words(pack_bits(x)), length)
                return pack_bits(x)

            class PackedChannel:
                def run(self, channel, x, length):
                    return _apply(channel, x, length)
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 4

    def test_taint_is_function_scoped(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def _inspect(words, length):
                plane = unpack_bits(words, length)
                return plane.sum()

            def _generate(plane):
                return pack_bits(plane)

            def packed_run(words, length):
                return _generate(_inspect(words, length))
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_keyword_argument_round_trip_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_reshard(words, length):
                plane = unpack_bits(words, length=length)
                return pack_bits(bits=plane)
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 4

    def test_module_qualified_round_trip_flagged(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            from repro.simulation import kernels

            def packed_reshard(words, length):
                return kernels.pack_bits(kernels.unpack_bits(words, length))
            """,
            select=["RL009"],
        )
        assert len(diagnostics) == 1
        assert "round-trip" in diagnostics[0].message

    def test_round_trip_and_float_widening_both_reported(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def packed_mix(words, length):
                plane = unpack_bits(words, length)
                power = plane.astype(np.float64)
                return pack_bits(plane), power
            """,
            select=["RL009"],
        )
        assert [d.line for d in diagnostics] == [6, 7]
        assert "float" in diagnostics[0].message
        assert "round-trip" in diagnostics[1].message

    def test_pragma_suppresses_intentional_round_trip(self, tmp_path):
        diagnostics = lint_snippet(
            tmp_path,
            """
            def packed_reshard(words, length):
                plane = unpack_bits(words, length)
                return pack_bits(plane)  # repro-lint: disable=RL009
            """,
            select=["RL009"],
        )
        assert diagnostics == []

    def test_round_trip_off_the_packed_path_not_flagged(self, tmp_path):
        # The reach RL009 gives up against a lexical check: code no
        # packed_* entry point calls is not inspected.
        diagnostics = lint_snippet(
            tmp_path,
            """
            def reshard(words, length):
                return pack_bits(unpack_bits(words, length))
            """,
            select=["RL009"],
        )
        assert diagnostics == []


class TestCLIFormats:
    """``--format json`` and the ``--graph calls`` debug dump."""

    def test_json_report_on_violation(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(x=[]):\n    return x\n")
        assert main(["--format", "json", str(path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "repro-lint"
        assert document["clean"] is False
        assert document["files"] == 1
        assert document["issues"][0]["rule"] == "RL006"
        assert document["issues"][0]["path"] == str(path)
        assert "RL009" in document["rules"]

    def test_json_report_on_clean_file(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("VALUE = 1\n")
        assert main(["--format", "json", str(path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is True
        assert document["issues"] == []

    def test_graph_calls_dump(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def a():\n    return b()\n\ndef b():\n    return 1\n")
        assert main(["--graph", "calls", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mod.a" in out and "mod.b" in out


class TestClosedPipe:
    """``python -m repro.tools.lint`` when its reader stops early.

    Each case writes well over a pipe buffer (64 KiB), reads one line
    and closes the pipe, as ``| head -1`` would: the process must exit
    1 without a traceback.
    """

    @staticmethod
    def run_and_close_after_one_line(args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.lint", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            assert process.stdout.readline()
            process.stdout.close()
            stderr = process.stderr.read().decode()
            return process.wait(timeout=120), stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_graph_dump_to_closed_pipe(self):
        code, stderr = self.run_and_close_after_one_line(
            ["--graph", "calls", str(PACKAGE_DIR)]
        )
        assert code == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr

    def test_report_to_closed_pipe(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(
            "".join(
                f"def f{index}(x=[]):\n    return x\n\n"
                for index in range(2000)
            )
        )
        code, stderr = self.run_and_close_after_one_line([str(path)])
        assert code == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
