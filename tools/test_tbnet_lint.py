#!/usr/bin/env python3
"""Fixture tests for tools/tbnet_lint.py: every rule must fire on a
deliberate violation and stay quiet on the compliant twin. Runs as the
`lint_selftest` ctest entry, so a rule that silently stops matching (regex
rot, path rename) fails CI rather than linting nothing.

Each test assembles a throwaway mini-repo in a temp dir with only the files
the rule under test reads — tbnet_lint skips rules whose anchor files are
absent, which is exactly what keeps these fixtures small.
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tbnet_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def put(self, relpath, content):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(content))

    def rules_fired(self):
        return [f.rule for f in tbnet_lint.run(self.root)]


class HotPathHeapTest(LintFixture):
    def test_bare_new_in_kernel_file_fires(self):
        self.put("src/tensor/simd.cpp", """\
            void grow() {
              float* p = new float[64];
              (void)p;
            }
            """)
        self.assertEqual(self.rules_fired(), ["hot-path-heap"])

    def test_allow_heap_marker_waives(self):
        self.put("src/tensor/simd.cpp", """\
            void grow() {
              // lint: allow-heap(prepare-time fallback, fixture)
              float* p = new float[64];
              (void)p;
            }
            """)
        self.assertEqual(self.rules_fired(), [])

    def test_empty_justification_does_not_waive(self):
        self.put("src/tensor/simd.cpp", """\
            void grow() {
              // lint: allow-heap()
              float* p = new float[64];
              (void)p;
            }
            """)
        self.assertEqual(self.rules_fired(), ["hot-path-heap"])

    def test_new_inside_string_or_comment_is_ignored(self):
        self.put("src/tensor/simd.cpp", """\
            #include <new>
            // a new comment about new things
            const char* kMsg = "try the new kernels";
            """)
        self.assertEqual(self.rules_fired(), [])

    def test_container_growth_fires(self):
        self.put("src/tensor/pack.cpp", """\
            void grow(std::vector<float>& v) { v.push_back(1.0f); }
            """)
        self.assertEqual(self.rules_fired(), ["hot-path-heap"])

    def test_panel_producer_file_is_hot(self):
        self.put("src/tensor/im2col.cpp", """\
            void plan(std::vector<int>& segs) { segs.resize(16); }
            """)
        self.assertEqual(self.rules_fired(), ["hot-path-heap"])


class EnumSwitchTest(LintFixture):
    ENUM_HEADER = """\
        enum class WorkerHealth {
          kHealthy = 0,
          kQuarantined,
          kRecovering,
          kDead,
        };
        """

    def test_missing_enumerator_without_default_fires(self):
        self.put("src/runtime/measurements.h", self.ENUM_HEADER)
        self.put("src/runtime/server.cpp", """\
            const char* f(WorkerHealth h) {
              switch (h) {
                case WorkerHealth::kHealthy: return "healthy";
                case WorkerHealth::kDead: return "dead";
              }
              return "?";
            }
            """)
        fired = self.rules_fired()
        self.assertEqual(fired, ["enum-switch"])
        finding = tbnet_lint.run(self.root)[0]
        self.assertIn("kQuarantined", finding.message)
        self.assertIn("kRecovering", finding.message)

    def test_exhaustive_switch_is_clean(self):
        self.put("src/runtime/measurements.h", self.ENUM_HEADER)
        self.put("src/runtime/server.cpp", """\
            const char* f(WorkerHealth h) {
              switch (h) {
                case WorkerHealth::kHealthy: return "healthy";
                case WorkerHealth::kQuarantined: return "quarantined";
                case WorkerHealth::kRecovering: return "recovering";
                case WorkerHealth::kDead: return "dead";
              }
              return "?";
            }
            """)
        self.assertEqual(self.rules_fired(), [])

    def test_default_label_is_clean(self):
        self.put("src/runtime/measurements.h", self.ENUM_HEADER)
        self.put("src/runtime/server.cpp", """\
            bool g(WorkerHealth h) {
              switch (h) {
                case WorkerHealth::kDead: return false;
                default: return true;
              }
            }
            """)
        self.assertEqual(self.rules_fired(), [])

    def test_switch_over_untracked_enum_is_ignored(self):
        self.put("src/runtime/measurements.h", self.ENUM_HEADER)
        self.put("src/runtime/server.cpp", """\
            int h(Color c) {
              switch (c) {
                case Color::kRed: return 1;
              }
              return 0;
            }
            """)
        self.assertEqual(self.rules_fired(), [])


class EnvDocTest(LintFixture):
    def test_undocumented_env_var_fires(self):
        self.put("src/runtime/server.cpp",
                 'const char* v = std::getenv("TBNET_MYSTERY");\n')
        self.put("README.md", "No knobs documented here.\n")
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["env-doc"])
        self.assertIn("TBNET_MYSTERY", fired[0].message)

    def test_documented_env_var_is_clean(self):
        self.put("src/runtime/server.cpp",
                 'const char* v = std::getenv("TBNET_MYSTERY");\n')
        self.put("README.md", "`TBNET_MYSTERY=1` enables mystery mode.\n")
        self.assertEqual(self.rules_fired(), [])

    def test_tests_directory_is_not_scanned(self):
        self.put("tests/test_env.cpp",
                 'setenv("TBNET_TEST_ONLY", "1", 1);\n')
        self.put("README.md", "Nothing.\n")
        self.assertEqual(self.rules_fired(), [])

    def test_docs_operations_counts_as_documentation(self):
        # Since PR 10 the consolidated env table lives in docs/OPERATIONS.md;
        # a var documented there but absent from README.md is fine.
        self.put("src/runtime/server.cpp",
                 'const char* v = std::getenv("TBNET_MYSTERY");\n')
        self.put("README.md", "No knobs documented here.\n")
        self.put("docs/OPERATIONS.md",
                 "`TBNET_MYSTERY=1` enables mystery mode.\n")
        self.assertEqual(self.rules_fired(), [])


class DocsCoverageTest(LintFixture):
    SERVER_H = """\
        struct Config {
          int64_t max_batch = 16;
          std::chrono::microseconds max_queue_delay{2000};
          double scale_down_utilization = 0.3;
          bool helper() const { return max_batch > 0; }
        };
        """
    MEASUREMENTS_H = """\
        struct ServingStats {
          int64_t requests = 0;
          int64_t scale_ups = 0;
          double mean_batch_size() const { return 1.0; }
        };
        """
    DOCS_ALL = """\
        `max_batch`, `max_queue_delay`, `scale_down_utilization` are knobs.
        Counters: `requests`, `scale_ups`.
        """

    def test_missing_config_field_fires(self):
        self.put("src/runtime/server.h", self.SERVER_H)
        self.put("docs/OPERATIONS.md",
                 "`max_batch` and `max_queue_delay` are documented.\n")
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["docs-coverage"])
        self.assertIn("scale_down_utilization", fired[0].message)

    def test_missing_stats_counter_fires(self):
        self.put("src/runtime/measurements.h", self.MEASUREMENTS_H)
        self.put("docs/OPERATIONS.md", "Counters: `requests`.\n")
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["docs-coverage"])
        self.assertIn("scale_ups", fired[0].message)

    def test_fully_documented_is_clean(self):
        self.put("src/runtime/server.h", self.SERVER_H)
        self.put("src/runtime/measurements.h", self.MEASUREMENTS_H)
        self.put("docs/OPERATIONS.md", self.DOCS_ALL)
        self.assertEqual(self.rules_fired(), [])

    def test_member_functions_are_not_required(self):
        # helper()/mean_batch_size() are API, not knobs/counters — the docs
        # above never mention them and the rule stays quiet.
        self.put("src/runtime/server.h", self.SERVER_H)
        self.put("src/runtime/measurements.h", self.MEASUREMENTS_H)
        self.put("docs/OPERATIONS.md", self.DOCS_ALL)
        findings = [f for f in tbnet_lint.run(self.root)
                    if "helper" in f.message or "mean_batch_size" in f.message]
        self.assertEqual(findings, [])

    def test_structs_without_docs_file_fire(self):
        self.put("src/runtime/server.h", self.SERVER_H)
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["docs-coverage"])
        self.assertIn("docs/OPERATIONS.md is missing", fired[0].message)

    def test_tree_without_serving_stack_is_skipped(self):
        self.put("src/tensor/simd.cpp", "int x = 0;\n")
        self.assertEqual(self.rules_fired(), [])


class BenchKeysTest(LintFixture):
    def test_unknown_top_level_key_fires(self):
        self.put("BENCH_kernels.json", '{"gemm": [], "novel_section": 1}\n')
        self.put("tools/check_bench_regression.py",
                 'METADATA_KEYS = {"quick"}\ncompare(b, c, "gemm")\n')
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["bench-keys"])
        self.assertIn("novel_section", fired[0].message)

    def test_gated_and_metadata_keys_are_clean(self):
        self.put("BENCH_kernels.json", '{"gemm": [], "quick": true}\n')
        self.put("tools/check_bench_regression.py",
                 'METADATA_KEYS = {"quick"}\ncompare(b, c, "gemm")\n')
        self.assertEqual(self.rules_fired(), [])


class SeededRngTest(LintFixture):
    def test_std_rand_fires(self):
        self.put("src/runtime/server.cpp",
                 "int r() { return std::rand(); }\n")
        self.assertEqual(self.rules_fired(), ["seeded-rng"])

    def test_random_device_fires(self):
        self.put("bench/common.cpp",
                 "#include <random>\nstd::random_device rd;\n")
        self.assertEqual(self.rules_fired(), ["seeded-rng"])

    def test_tests_directory_exempt(self):
        self.put("tests/test_rng.cpp",
                 "int r() { return std::rand(); }\n")
        self.assertEqual(self.rules_fired(), [])


class KernelPinTest(LintFixture):
    def test_layer_asking_for_the_mode_fires(self):
        self.put("src/nn/conv2d.cpp", """\
            void prepare() {
              if (!simd::fast_kernels_enabled()) return;
            }
            """)
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["kernel-pin"])
        self.assertEqual(fired[0].path, "src/nn/conv2d.cpp")

    def test_simd_files_may_name_it(self):
        self.put("src/tensor/simd.h", "bool fast_kernels_enabled();\n")
        self.put("src/tensor/simd.cpp",
                 "bool fast_kernels_enabled() { return true; }\n")
        self.assertEqual(self.rules_fired(), [])

    def test_comment_and_callers_outside_src_are_ignored(self):
        self.put("src/nn/dense.cpp",
                 "// no fast_kernels_enabled() branch here\nint x = 0;\n")
        self.put("bench/bench_kernels.cpp",
                 "bool f = simd::fast_kernels_enabled();\n")
        self.assertEqual(self.rules_fired(), [])


class OneTaTest(LintFixture):
    def test_second_trusted_app_in_src_fires(self):
        self.put("src/runtime/deployed.cpp", """\
            class TbnetTA : public tee::TrustedApp {};
            class FullTeeTA final
                : public tee::TrustedApp {};
            """)
        fired = tbnet_lint.run(self.root)
        self.assertEqual([f.rule for f in fired], ["one-ta"])
        self.assertEqual((fired[0].path, fired[0].line),
                         ("src/runtime/deployed.cpp", 2))

    def test_tbnet_ta_elsewhere_fires(self):
        self.put("src/tee/echo.cpp",
                 "struct TbnetTA : TrustedApp {};\n")
        self.assertEqual(self.rules_fired(), ["one-ta"])

    def test_base_class_and_echo_tas_outside_src_are_ignored(self):
        self.put("src/tee/optee_api.h", """\
            class TrustedApp {
             public:
              virtual ~TrustedApp() = default;
            };
            std::unique_ptr<TrustedApp> ta_;  // class X : TrustedApp
            """)
        self.put("src/runtime/deployed.cpp",
                 "class TbnetTA : public tee::TrustedApp {};\n")
        self.put("tests/test_tee.cpp",
                 "class EchoTA : public TrustedApp {};\n")
        self.put("perfbench/src/serving.cpp",
                 "class EchoTA : public tee::TrustedApp {};\n")
        self.assertEqual(self.rules_fired(), [])


class RetiredNameTest(LintFixture):
    def test_retired_names_outside_their_homes_fire(self):
        self.put("bench/bench_serving.cpp",
                 "scfg.max_queue_delay = std::chrono::microseconds(2000);\n")
        self.put("src/runtime/deployed.cpp", """\
            void replay() {
              session.invoke(kCmdPushStage, payload, &out);
            }
            """)
        fired = tbnet_lint.run(self.root)
        self.assertEqual(sorted((f.rule, f.path, f.line) for f in fired),
                         [("retired-name", "bench/bench_serving.cpp", 1),
                          ("retired-name", "src/runtime/deployed.cpp", 2)])

    def test_homes_comments_and_unscanned_dirs_are_ignored(self):
        self.put("src/runtime/server.h",
                 "std::chrono::microseconds max_queue_delay{0};\n")
        self.put("src/runtime/deployed.h",
                 "inline constexpr uint32_t kCmdPushStage = 2;\n")
        self.put("src/runtime/server.cpp",
                 "// max_queue_delay is retired; no kCmdPushStage here\n")
        self.put("tests/test_serving.cpp",
                 "scfg.max_queue_delay = std::chrono::hours(1);\n")
        self.put("perfbench/src/serving.cpp",
                 "session.invoke(runtime::kCmdPushStage, payload, &out);\n")
        self.assertEqual(self.rules_fired(), [])


class RealRepoTest(unittest.TestCase):
    """The committed tree must lint clean — same invocation CI blocks on."""

    def test_repo_is_clean(self):
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(tbnet_lint.__file__)))
        findings = tbnet_lint.run(root)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
