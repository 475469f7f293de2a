"""Fixture-driven tests for the phaselint rules and CLI.

Every rule gets at least one snippet it must fire on and one it must stay
silent on, so a rule regression shows up as a failing pair rather than a
quietly shrinking finding count.
"""

import json



from phaselint.baseline import Baseline
from phaselint.cli import main
from phaselint.config import LintConfig, load_config
from phaselint.engine import lint_file, lint_paths, lint_paths_detailed

def lint_snippet(tmp_path, source, config=None, *, select=(), name="snippet.py"):
    # Rule tests isolate their rule with ``select`` so an unrelated rule
    # (e.g. PL006 on a deliberately sloppy snippet) cannot pollute the
    # finding list under scrutiny.
    if config is None:
        config = LintConfig(select=tuple(select))
    path = tmp_path / name
    path.write_text(source)
    return lint_file(path, config)


def codes(findings):
    return [f.rule for f in findings]


class TestPL001Randomness:
    def test_fires_on_global_numpy_rng(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\nx = np.random.normal(size=3)\n",
            select=("PL001",),
        )
        assert codes(found) == ["PL001"]

    def test_fires_on_unseeded_default_rng(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng()\n",
            select=("PL001",),
        )
        assert codes(found) == ["PL001"]

    def test_fires_on_stdlib_random(self, tmp_path):
        found = lint_snippet(
            tmp_path, "import random\nx = random.random()\n", select=("PL001",)
        )
        assert codes(found) == ["PL001"]

    def test_fires_on_wall_clock(self, tmp_path):
        found = lint_snippet(
            tmp_path, "import time\nseed = int(time.time())\n", select=("PL001",)
        )
        assert codes(found) == ["PL001"]

    def test_silent_on_seeded_rng(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng(42)\n"
            "x = rng.normal(size=3)\n",
            select=("PL001",),
        )
        assert found == []

    def test_allowlisted_entry_point_exempt(self, tmp_path):
        config = LintConfig(allow_unseeded=("*cli.py",), select=("PL001",))
        found = lint_snippet(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng()\n",
            config,
            name="cli.py",
        )
        assert found == []


class TestPL001WallClockShim:
    """The `time` module ban inside wall-clock-scope, shim files excepted."""

    def _config(self, tmp_path, **overrides):
        settings = {
            "select": ("PL001",),
            "wall_clock_scope": (tmp_path.as_posix(),),
            "wall_clock_shims": ("*/clock.py",),
        }
        settings.update(overrides)
        return LintConfig(**settings)

    def test_denies_import_time_in_scope(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import time\n\nT0 = time.perf_counter()\n",
            self._config(tmp_path),
        )
        assert codes(found) == ["PL001"]
        assert "wall-clock shim" in found[0].message

    def test_denies_from_time_import_in_scope(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "from time import perf_counter\n\nT0 = perf_counter()\n",
            self._config(tmp_path),
        )
        assert codes(found) == ["PL001"]

    def test_from_time_import_time_yields_single_finding(self, tmp_path):
        # `from time import time` trips both the shim ban and the legacy
        # wall-clock check; the shim ban must supersede, not stack.
        found = lint_snippet(
            tmp_path,
            "from time import time\n\nseed = int(time())\n",
            self._config(tmp_path),
        )
        assert codes(found) == ["PL001"]

    def test_allows_sanctioned_shim_file(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import time\n\n\ndef now_s() -> float:\n"
            '    """Monotonic seconds."""\n'
            "    return time.perf_counter()\n",
            self._config(tmp_path),
            name="clock.py",
        )
        assert found == []

    def test_perf_counter_stays_legal_outside_scope(self, tmp_path):
        # Without a scope the historical behaviour holds: perf_counter is
        # a duration read, not a wall-clock read.
        found = lint_snippet(
            tmp_path,
            "import time\n\nT0 = time.perf_counter()\n",
            self._config(tmp_path, wall_clock_scope=()),
        )
        assert found == []

    def test_allow_unseeded_does_not_bypass_shim_ban(self, tmp_path):
        # An entry-point exemption covers entropy/wall-clock *reads*, not
        # the structural ban on importing `time` inside the scope.
        config = self._config(tmp_path, allow_unseeded=("*cli.py",))
        found = lint_snippet(
            tmp_path,
            "import time\nimport numpy as np\n\n"
            "rng = np.random.default_rng()\nT0 = time.perf_counter()\n",
            config,
            name="cli.py",
        )
        assert codes(found) == ["PL001"]
        assert found[0].line == 1

    def test_shim_config_loads_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.phaselint]\n"
            'wall-clock-scope = ["src"]\n'
            'wall-clock-shims = ["src/repro/obs/clock.py"]\n'
        )
        config = load_config(tmp_path)
        assert config.wall_clock_banned("src/repro/core/pipeline.py")
        assert not config.wall_clock_banned("src/repro/obs/clock.py")
        assert not config.wall_clock_banned("tests/test_cli.py")


class TestPL002Ndarray:
    def test_fires_on_bare_parameter_annotation(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n\n"
            "def f(x: np.ndarray) -> float:\n"
            '    """Doc."""\n'
            "    return float(x.sum())\n",
            select=("PL002",),
        )
        assert codes(found) == ["PL002"]

    def test_fires_on_bare_return_annotation(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n\n"
            "def f(n: int) -> np.ndarray:\n"
            '    """Doc."""\n'
            "    return np.zeros(n)\n",
            select=("PL002",),
        )
        assert codes(found) == ["PL002"]

    def test_silent_on_ndarray_alias(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\nfrom numpy.typing import NDArray\n\n\n"
            "def f(x: NDArray[np.float64]) -> NDArray[np.float64]:\n"
            '    """Doc."""\n'
            "    return x\n",
            select=("PL002",),
        )
        assert found == []

    def test_silent_on_private_function(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n\ndef _helper(x: np.ndarray):\n    return x\n",
            select=("PL002",),
        )
        assert found == []


class TestPL003Units:
    def test_fires_on_ambiguous_parameter(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def resample(series, sample_rate):\n"
            '    """Doc."""\n'
            "    return series\n",
            select=("PL003",),
        )
        assert "PL003" in codes(found)

    def test_fires_on_ambiguous_dataclass_field(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\nclass Config:\n"
            '    """Doc."""\n\n'
            "    rate: float = 1.0\n",
            select=("PL003",),
        )
        assert "PL003" in codes(found)

    def test_silent_with_unit_suffix(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def resample(series, sample_rate_hz, window_duration_s):\n"
            '    """Doc."""\n'
            "    return series\n",
            select=("PL003",),
        )
        assert found == []


class TestPL004FloatEquality:
    def test_fires_on_float_equality(self, tmp_path):
        found = lint_snippet(tmp_path, "ok = 0.1 + 0.2 == 0.3\n", select=("PL004",))
        assert codes(found) == ["PL004"]

    def test_fires_on_float_inequality(self, tmp_path):
        found = lint_snippet(
            tmp_path, "def f(x):\n    return x != 1.5\n", select=("PL004",)
        )
        assert codes(found) == ["PL004"]

    def test_silent_on_isclose(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import math\nok = math.isclose(0.1 + 0.2, 0.3)\n",
            select=("PL004",),
        )
        assert found == []

    def test_silent_on_integer_comparison(self, tmp_path):
        found = lint_snippet(
            tmp_path, "def f(n):\n    return n == 0\n", select=("PL004",)
        )
        assert found == []


class TestPL006PublicApi:
    def test_fires_on_missing_annotations(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def estimate(series, sample_rate_hz):\n"
            '    """Doc."""\n'
            "    return 0.0\n",
            select=("PL006",),
        )
        assert "PL006" in codes(found)

    def test_fires_on_missing_docstring(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def estimate(series: list, sample_rate_hz: float) -> float:\n"
            "    return 0.0\n",
            select=("PL006",),
        )
        assert "PL006" in codes(found)

    def test_silent_on_complete_public_function(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def estimate(series: list, sample_rate_hz: float) -> float:\n"
            '    """Estimate the rate."""\n'
            "    return 0.0\n",
            select=("PL006",),
        )
        assert found == []


class TestSuppression:
    def test_line_disable(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "ok = 0.1 == 0.2  # phaselint: disable=PL004 -- deliberate\n",
            select=("PL004",),
        )
        assert found == []

    def test_line_disable_other_rule_still_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "ok = 0.1 == 0.2  # phaselint: disable=PL001\n",
            select=("PL004",),
        )
        assert codes(found) == ["PL004"]

    def test_file_disable(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "# phaselint: disable-file=PL004\nok = 0.1 == 0.2\nbad = 0.3 == 0.4\n",
            select=("PL004",),
        )
        assert found == []


class TestEngine:
    def test_syntax_error_becomes_pl000(self, tmp_path):
        found = lint_snippet(tmp_path, "def broken(:\n")
        assert codes(found) == ["PL000"]

    def test_rule_paths_scope(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "tests").mkdir()
        bad = "import numpy as np\n\n\ndef f(x: np.ndarray):\n    return x\n"
        (tmp_path / "src" / "mod.py").write_text(bad)
        (tmp_path / "tests" / "test_mod.py").write_text(bad)
        config = LintConfig(
            rule_paths={"PL002": (str(tmp_path / "src"),)}, select=("PL002",)
        )
        found = lint_paths([tmp_path], config)
        assert [f.path for f in found] == [str(tmp_path / "src" / "mod.py")]

    def test_findings_sorted_and_located(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "a = 0.1 == 0.2\nimport random\nb = random.random()\n",
            select=("PL001", "PL004"),
        )
        assert [(f.rule, f.line) for f in found] == [
            ("PL001", 3),
            ("PL004", 1),
        ] or [(f.rule, f.line) for f in found] == [("PL004", 1), ("PL001", 3)]
        for f in found:
            assert f.line >= 1 and f.col >= 0 and f.path


class TestConfigLoading:
    def test_load_config_reads_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.phaselint]\n"
            'allow-unseeded = ["scripts/*"]\n'
            "[tool.phaselint.rule-paths]\n"
            'PL006 = ["src/repro"]\n'
        )
        config = load_config(tmp_path)
        assert config.allow_unseeded == ("scripts/*",)
        assert config.rule_paths["PL006"] == ("src/repro",)

    def test_missing_pyproject_gives_defaults(self, tmp_path):
        assert load_config(tmp_path) == LintConfig()


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path / "ok.py"), "--config-root", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_summary(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("ok = 0.1 == 0.2\n")
        assert main([str(tmp_path / "bad.py"), "--config-root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "PL004" in out and "1 finding(s)" in out

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("ok = 0.1 == 0.2\n")
        code = main(
            [
                str(tmp_path / "bad.py"),
                "--config-root",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "PL004"
        assert set(payload[0]) == {"path", "line", "col", "rule", "message"}

    def test_select_filters_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\na = random.random()\nb = 0.1 == 0.2\n"
        )
        code = main(
            [
                str(tmp_path / "bad.py"),
                "--config-root",
                str(tmp_path),
                "--select",
                "PL001",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PL001" in out and "PL004" not in out

    def test_unknown_rule_code_is_usage_error(self, tmp_path):
        assert main(["--select", "PL999", str(tmp_path)]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "missing_dir")]) == 2

    def test_list_rules_covers_all_shipped(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "PL001", "PL002", "PL003", "PL004", "PL006", "PL007",
            "PL008", "PL009", "PL010", "PL011",
        ):
            assert code in out


class TestPL007BroadExcept:
    def test_fires_on_bare_except(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\nexcept:\n    pass\n",
            select=("PL007",),
        )
        assert codes(found) == ["PL007"]

    def test_fires_on_silent_except_exception(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\nexcept Exception:\n    x = 2\n",
            select=("PL007",),
        )
        assert codes(found) == ["PL007"]

    def test_fires_on_broad_tuple(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\nexcept (ValueError, Exception):\n    pass\n",
            select=("PL007",),
        )
        assert codes(found) == ["PL007"]

    def test_silent_on_narrow_type(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\nexcept ValueError:\n    pass\n",
            select=("PL007",),
        )
        assert found == []

    def test_silent_when_reraising_typed_error(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\n"
            "except Exception as exc:\n"
            "    raise RuntimeError('boom') from exc\n",
            select=("PL007",),
        )
        assert found == []

    def test_silent_when_logging(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import warnings\n"
            "try:\n    x = 1\n"
            "except Exception:\n"
            "    warnings.warn('degraded')\n",
            select=("PL007",),
        )
        assert found == []

    def test_raise_in_nested_function_does_not_count(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\n"
            "except Exception:\n"
            "    def fail():\n"
            "        raise RuntimeError('later')\n",
            select=("PL007",),
        )
        assert codes(found) == ["PL007"]

    def test_disable_comment_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "try:\n    x = 1\n"
            "except Exception:  # phaselint: disable=PL007\n"
            "    pass\n",
            select=("PL007",),
        )
        assert found == []


class TestPL008UnorderedIteration:
    def test_fires_on_dict_view_loop_with_append(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def collect(table):\n"
            "    out = []\n"
            "    for value in table.values():\n"
            "        out.append(value)\n"
            "    return out\n",
            select=("PL008",),
        )
        assert codes(found) == ["PL008"]
        assert found[0].line == 3
        assert ".values()" in found[0].message

    def test_fires_on_set_loop_with_accumulation(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def total(names):\n"
            "    items = set(names)\n"
            "    acc = ''\n"
            "    for item in items:\n"
            "        acc += item\n"
            "    return acc\n",
            select=("PL008",),
        )
        assert codes(found) == ["PL008"]
        assert "hash-dependent" in found[0].message

    def test_fires_transitively_through_local_helper(self, tmp_path):
        # The loop body has no sink of its own; the helper it calls does.
        found = lint_snippet(
            tmp_path,
            "log = []\n\n\n"
            "def emit(x):\n"
            "    log.append(x)\n\n\n"
            "def run(table):\n"
            "    for key in table.keys():\n"
            "        emit(key)\n",
            select=("PL008",),
        )
        assert codes(found) == ["PL008"]
        assert "transitive" in found[0].message

    def test_fires_transitively_across_modules(self, tmp_path):
        (tmp_path / "sink_mod.py").write_text(
            "log = []\n\n\ndef emit(x):\n    log.append(x)\n"
        )
        (tmp_path / "loop_mod.py").write_text(
            "from sink_mod import emit\n\n\n"
            "def run(table):\n"
            "    for key in table.values():\n"
            "        emit(key)\n"
        )
        found = lint_paths([tmp_path], LintConfig(select=("PL008",)))
        assert [(f.rule, f.path.endswith("loop_mod.py")) for f in found] == [
            ("PL008", True)
        ]

    def test_fires_on_set_in_list_comprehension(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def freeze(names):\n"
            "    tags = {n.strip() for n in names}\n"
            "    return [t.upper() for t in tags]\n",
            select=("PL008",),
        )
        assert codes(found) == ["PL008"]

    def test_fires_on_set_into_list_call(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def freeze(tags: set) -> list:\n"
            '    """Doc."""\n'
            "    return list(tags)\n",
            select=("PL008",),
        )
        assert codes(found) == ["PL008"]

    def test_silent_on_sorted_iteration(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def collect(table):\n"
            "    out = []\n"
            "    for value in sorted(table.values()):\n"
            "        out.append(value)\n"
            "    return out\n",
            select=("PL008",),
        )
        assert found == []

    def test_silent_on_order_insensitive_consumption(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def stats(table, tags: set):\n"
            "    n = len(tags)\n"
            "    alive = any(v.ok for v in table.values())\n"
            "    return n, alive, sorted(tags)\n",
            select=("PL008",),
        )
        assert found == []

    def test_silent_on_loop_without_sink(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def validate(table):\n"
            "    for value in table.values():\n"
            "        value.check()\n",
            select=("PL008",),
        )
        assert found == []

    def test_insertion_order_directive_with_reason_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def collect(table):\n"
            "    out = []\n"
            "    for v in table.values():  "
            "# phaselint: insertion-order -- admission order is the contract\n"
            "        out.append(v)\n"
            "    return out\n",
            select=("PL008",),
        )
        assert found == []

    def test_insertion_order_directive_without_reason_is_inert(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def collect(table):\n"
            "    out = []\n"
            "    for v in table.values():  # phaselint: insertion-order\n"
            "        out.append(v)\n"
            "    return out\n",
            select=("PL008",),
        )
        assert codes(found) == ["PL008"]


class TestPL009RngFlow:
    def test_fires_on_legacy_global_call(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n\n"
            "def jitter(n):\n"
            "    return np.random.rand(n)\n",
            select=("PL009",),
        )
        assert codes(found) == ["PL009"]
        assert "numpy.random.rand" in found[0].message

    def test_fires_on_legacy_seed_call(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\nnp.random.seed(0)\n",
            select=("PL009",),
        )
        assert codes(found) == ["PL009"]

    def test_fires_on_module_level_generator(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n_rng = np.random.default_rng(42)\n",
            select=("PL009",),
        )
        assert codes(found) == ["PL009"]
        assert "module-level Generator" in found[0].message

    def test_fires_on_class_level_generator(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n\n"
            "class Source:\n"
            '    """Doc."""\n\n'
            "    rng = np.random.default_rng(7)\n",
            select=("PL009",),
        )
        assert codes(found) == ["PL009"]

    def test_fires_on_cross_module_generator_import(self, tmp_path):
        (tmp_path / "rng_owner.py").write_text(
            "import numpy as np\n\nshared_rng = np.random.default_rng(1)\n"
        )
        (tmp_path / "rng_user.py").write_text(
            "from rng_owner import shared_rng\n\n\n"
            "def draw():\n    return shared_rng.normal()\n"
        )
        found = lint_paths([tmp_path], LintConfig(select=("PL009",)))
        by_file = sorted(
            (f.path.rpartition("/")[2], f.rule) for f in found
        )
        assert by_file == [
            ("rng_owner.py", "PL009"),
            ("rng_user.py", "PL009"),
        ]

    def test_silent_on_scoped_seeded_generator(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import numpy as np\n\n\n"
            "def sample(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal(size=3)\n",
            select=("PL009",),
        )
        assert found == []


class TestPL010SharedState:
    def test_fires_on_module_level_dict(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "_cache = {}\n\n\n"
            "def lookup(key):\n    return _cache.get(key)\n",
            select=("PL010",),
        )
        assert codes(found) == ["PL010"]
        assert "module-level mutable dict" in found[0].message

    def test_fires_on_class_level_list(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "class Session:\n"
            '    """Doc."""\n\n'
            "    history = []\n",
            select=("PL010",),
        )
        assert codes(found) == ["PL010"]
        assert "class-level mutable list" in found[0].message

    def test_silent_on_constant_convention_names(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "SCENARIOS = {'a': 1}\n_DEFAULTS = [1, 2]\n",
            select=("PL010",),
        )
        assert found == []

    def test_silent_on_dataclass_fields(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "from dataclasses import dataclass, field\n\n\n"
            "@dataclass\nclass Report:\n"
            '    """Doc."""\n\n'
            "    items: list = field(default_factory=list)\n",
            select=("PL010",),
        )
        assert found == []

    def test_justify_directive_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "_registry = {}  "
            "# phaselint: justify=PL010 -- populated only at import time\n",
            select=("PL010",),
        )
        assert found == []

    def test_justify_without_reason_is_inert(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "_registry = {}  # phaselint: justify=PL010\n",
            select=("PL010",),
        )
        assert codes(found) == ["PL010"]

    def test_shared_state_roots_scope_the_closure(self, tmp_path):
        # root_mod imports helper_mod; loner_mod is unreachable from the
        # configured root, so its cache is out of scope.
        (tmp_path / "root_mod.py").write_text(
            "import helper_mod\n\n\ndef run():\n    return helper_mod.cache\n"
        )
        (tmp_path / "helper_mod.py").write_text("cache = {}\n")
        (tmp_path / "loner_mod.py").write_text("stash = {}\n")
        config = LintConfig(
            select=("PL010",), shared_state_roots=("root_mod",)
        )
        found = lint_paths([tmp_path], config)
        assert [f.path.rpartition("/")[2] for f in found] == ["helper_mod.py"]


class TestPL011FloatReduction:
    def test_fires_on_sum_over_set(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def total(weights: set) -> float:\n"
            '    """Doc."""\n'
            "    return sum(weights)\n",
            select=("PL011",),
        )
        assert codes(found) == ["PL011"]
        assert "hash order" in found[0].message

    def test_fires_on_sum_genexp_over_dict_view(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def total(sessions):\n"
            "    return sum(s.weight for s in sessions.values())\n",
            select=("PL011",),
        )
        assert codes(found) == ["PL011"]
        assert ".values()" in found[0].message

    def test_fires_on_fsum_over_set(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import math\n\n\n"
            "def total(weights: set) -> float:\n"
            '    """Doc."""\n'
            "    return math.fsum(weights)\n",
            select=("PL011",),
        )
        assert codes(found) == ["PL011"]

    def test_silent_on_fsum_over_dict_view(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "import math\n\n\n"
            "def total(table):\n"
            "    return math.fsum(table.values())\n",
            select=("PL011",),
        )
        assert found == []

    def test_silent_on_sum_over_sorted(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def total(weights: set) -> float:\n"
            '    """Doc."""\n'
            "    return sum(sorted(weights))\n",
            select=("PL011",),
        )
        assert found == []

    def test_silent_on_sum_over_ordered_sequence(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def total(values: list) -> float:\n"
            '    """Doc."""\n'
            "    return sum(values)\n",
            select=("PL011",),
        )
        assert found == []

    def test_insertion_order_directive_suppresses(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "def count(table):\n"
            "    return sum(len(v) for v in table.values())  "
            "# phaselint: insertion-order -- integer sum, order-independent\n",
            select=("PL011",),
        )
        assert found == []


class TestBaseline:
    _BAD = (
        "def collect(table):\n"
        "    out = []\n"
        "    for value in table.values():\n"
        "        out.append(value)\n"
        "    return out\n"
    )

    def _write_tree(self, tmp_path, source=None):
        (tmp_path / "mod.py").write_text(source or self._BAD)

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        self._write_tree(tmp_path)
        args = [str(tmp_path / "mod.py"), "--config-root", str(tmp_path)]
        assert main([*args, "--select", "PL008"]) == 1
        assert main([*args, "--select", "PL008", "--update-baseline"]) == 0
        assert (tmp_path / "phaselint-baseline.json").is_file()
        capsys.readouterr()
        assert main([*args, "--select", "PL008"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_baseline_survives_line_drift(self, tmp_path):
        self._write_tree(tmp_path)
        args = [str(tmp_path / "mod.py"), "--config-root", str(tmp_path),
                "--select", "PL008"]
        assert main([*args, "--update-baseline"]) == 0
        # Insert lines above the finding: the content hash still matches.
        self._write_tree(tmp_path, "X = 1\nY = 2\n" + self._BAD)
        assert main(args) == 0

    def test_editing_flagged_line_invalidates_entry(self, tmp_path):
        self._write_tree(tmp_path)
        args = [str(tmp_path / "mod.py"), "--config-root", str(tmp_path),
                "--select", "PL008"]
        assert main([*args, "--update-baseline"]) == 0
        edited = self._BAD.replace(
            "for value in table.values():", "for val in table.values():"
        )
        self._write_tree(tmp_path, edited)
        assert main(args) == 1

    def test_new_duplicate_of_grandfathered_line_still_fires(self, tmp_path):
        self._write_tree(tmp_path)
        args = [str(tmp_path / "mod.py"), "--config-root", str(tmp_path),
                "--select", "PL008"]
        assert main([*args, "--update-baseline"]) == 0
        self._write_tree(
            tmp_path, self._BAD + "\n\n" + self._BAD.replace("collect", "gather")
        )
        assert main(args) == 1

    def test_no_baseline_flag_reports_everything(self, tmp_path, capsys):
        self._write_tree(tmp_path)
        args = [str(tmp_path / "mod.py"), "--config-root", str(tmp_path),
                "--select", "PL008"]
        assert main([*args, "--update-baseline"]) == 0
        capsys.readouterr()
        assert main([*args, "--no-baseline"]) == 1
        assert "PL008" in capsys.readouterr().out

    def test_roundtrip_via_api(self, tmp_path):
        self._write_tree(tmp_path)
        run = lint_paths_detailed(
            [tmp_path], LintConfig(select=("PL008",))
        )
        assert run.findings
        baseline = Baseline.from_findings(run.findings, run.line_text)
        baseline.save(tmp_path / "baseline.json")
        reloaded = Baseline.load(tmp_path / "baseline.json")
        assert reloaded.filter(run.findings, run.line_text) == []


class TestSarif:
    def test_sarif_output_shape(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(TestBaseline._BAD)
        code = main(
            [str(tmp_path / "mod.py"), "--config-root", str(tmp_path),
             "--select", "PL008", "--format", "sarif"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "phaselint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"PL001", "PL008", "PL009", "PL010", "PL011"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "PL008"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("mod.py")
        assert location["region"]["startLine"] == 3

    def test_output_alias_and_clean_run(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = main(
            [str(tmp_path / "ok.py"), "--config-root", str(tmp_path),
             "--output", "sarif"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []


class TestRepoIsClean:
    def test_shipping_tree_has_no_findings(self, monkeypatch):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        # Relative paths, as CI invokes it: [tool.phaselint] scoping and
        # allowlists are expressed relative to the repo root.
        monkeypatch.chdir(root)
        run = lint_paths_detailed(
            ["src", "tests", "benchmarks"], load_config(root)
        )
        assert run.findings == [], "\n".join(
            f.format_text() for f in run.findings
        )

    def test_baseline_is_small_and_audited(self):
        # No finding is grandfathered: every site is fixed or annotated,
        # so the repo commits no baseline for the linter to auto-load.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        assert not (root / "phaselint-baseline.json").exists()
