"""Self-tests of the benchmark runner: metric naming, failure counting and
the profiler category roll-up.

    python3 -m unittest discover -s wavbench/tests
"""

import copy
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import report  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def rep(traced=False, attempted=10, failed=0, digest="d1", wall_s=2.0, variant=0,
        setup_s=0.03):
    return {
        "variant": variant, "traced": traced, "build_s": setup_s / 3, "deploy_s": setup_s * 2 / 3,
        "wall_s": wall_s, "events": 1000, "pending_max": 7, "pool_acquired": 100,
        "pool_reused": 90, "peak_rss_kb": 51200, "phase_wall_s": {"ramp": wall_s},
        "rss_slices": [[0, 1000], [100, 1100], [200, 1200], [300, 1300]],
        "digest": digest, "attempted": attempted, "failed": failed, "checks": {"ok": True},
        "modelled": {"req_p50_ms": 40.0, "req_p99_ms": 170.0},
    }


def churn_registry(attempted, ok, failed):
    return {"counters": [
        {"name": "churn.connects_attempted", "instance": "fleet", "value": attempted},
        {"name": "churn.connects_ok", "instance": "fleet", "value": ok},
        {"name": "churn.connects_failed", "instance": "fleet", "value": failed},
    ]}


def result(reps=None, categories=None):
    categories = categories if categories is not None else [
        {"name": "sim/event", "calls": 10, "self_ns": 100, "total_ns": 100},
        {"name": "link/deliver", "calls": 40, "self_ns": 300, "total_ns": 500},
        {"name": "nat/translate_inbound", "calls": 20, "self_ns": 200, "total_ns": 200},
        {"name": "switch/egress", "calls": 30, "self_ns": 250, "total_ns": 300},
        {"name": "overlay/send_frame", "calls": 30, "self_ns": 50, "total_ns": 50},
        {"name": "can/query", "calls": 4, "self_ns": 100, "total_ns": 100},
    ]
    return {
        "reps": reps if reps is not None else [rep(), rep(traced=True, wall_s=2.2),
                                               rep(setup_s=0.05)],
        "profile": {"sample_period": 16, "events_measured": 50, "event_ns": 1000,
                    "categories": categories},
        "registries": [{"counters": [
            {"name": "overlay.links_established", "instance": "a", "value": 6},
            {"name": "overlay.links_established", "instance": "b", "value": 6},
            {"name": "overlay.connects_failed", "instance": "a", "value": 0},
            {"name": "switch.frames_flooded", "instance": "a", "value": 1},
            {"name": "switch.frames_tunneled", "instance": "a", "value": 99},
        ]}],
    }


class MetricNaming(unittest.TestCase):
    def setUp(self):
        self.spec = report.load_spec()

    def test_names_and_units_follow_the_contract(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_end_to_end_bounds(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        for m in e2e.values():
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            self.assertLessEqual(m["bound"], e2e["setup_s"]["bound"], m["name"])

    def test_reports_name_exactly_the_spec_metrics(self):
        r = result()
        e2e = report.end_to_end(r, self.spec)
        self.assertEqual(list(e2e), [m["name"] for m in self.spec["end_to_end"]])
        layer = report.per_layer(r, self.spec)
        self.assertEqual(list(layer), [m["name"] for m in self.spec["per_layer"]])
        for metrics, entries in ((e2e, self.spec["end_to_end"]), (layer, self.spec["per_layer"])):
            for m in entries:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end_uses_untraced_repetitions(self):
        e2e = report.end_to_end(result(), self.spec)
        self.assertEqual(e2e["wall_s"]["value"], 2.0)  # the profiled 2.2 s is excluded
        self.assertAlmostEqual(e2e["setup_s"]["value"], 0.03)  # every process's set-up
        self.assertEqual(e2e["peak_rss_mb"]["value"], 50.0)
        self.assertEqual(e2e["connect_success"]["value"], 1.0)

    def test_variants_weigh_the_same(self):
        r = result(reps=[rep(variant=0, wall_s=10.0), rep(variant=1, wall_s=20.0),
                         rep(variant=0, wall_s=12.0), rep(variant=1, wall_s=22.0),
                         rep(variant=0, wall_s=11.0), rep(traced=True)])
        # Medians 11 and 21 per variant, whatever the repetition counts.
        self.assertEqual(report.end_to_end(r, self.spec)["wall_s"]["value"], 16.0)
        layer = report.per_layer(r, self.spec)
        self.assertEqual(layer["sim.events"]["value"], 2000)
        self.assertAlmostEqual(layer["sim.ns_per_event"]["value"], 32e9 / 2000)
        self.assertEqual(layer["churn.phase_wall_s.ramp"]["value"], 16.0)

    def test_unresolved_dials_count_against_connect_success(self):
        r = result()
        r["registries"] = [churn_registry(100, 90, 5), churn_registry(100, 95, 5)]
        e2e = report.end_to_end(r, self.spec)
        self.assertAlmostEqual(e2e["connect_success"]["value"], 185 / 200)
        self.assertEqual(report.per_layer(r, self.spec)["churn.dials_unresolved"]["value"], 5)

    def test_layer_ratios(self):
        layer = report.per_layer(result(), self.spec)
        self.assertAlmostEqual(layer["obs.trace_overhead"]["value"], 0.1)
        self.assertAlmostEqual(layer["wavnet.flood_share"]["value"], 0.01)
        self.assertAlmostEqual(layer["wavnet.self_share"]["value"], 0.3)
        self.assertAlmostEqual(layer["can.query_ns"]["value"], 25.0)
        self.assertAlmostEqual(layer["rss.kb_per_request"]["value"], 1.0)
        self.assertEqual(layer["vm.migration_s"]["value"], 0)  # no migration ran


class FailureCounting(unittest.TestCase):
    def test_counts_sum_over_repetitions(self):
        r = result(reps=[rep(attempted=10, failed=1), rep(attempted=10, failed=2),
                         rep(variant=1, attempted=7)])
        self.assertEqual(report.operations(r), (27, 3))

    def test_all_checks_hold_on_a_clean_run(self):
        self.assertTrue(all(report.checks(result()).values()))

    def test_failed_driver_check_fails_the_run(self):
        r = result()
        r["reps"][1]["checks"]["ok"] = False
        self.assertFalse(report.checks(r)["ok"])

    def test_digest_must_repeat(self):
        r = result(reps=[rep(digest="a"), rep(traced=True, digest="b")])
        self.assertFalse(report.checks(r)["digest_repeats"])

    def test_digest_repeats_per_variant(self):
        r = result(reps=[rep(digest="a"), rep(variant=1, digest="b"), rep(digest="a"),
                         rep(variant=1, digest="b")])
        self.assertTrue(report.checks(r)["digest_repeats"])
        self.assertEqual(report.digest(r), "a+b")
        r["reps"][3]["digest"] = "c"
        self.assertFalse(report.checks(r)["digest_repeats"])

    def test_modelled_outputs_must_repeat(self):
        r = result()
        r["reps"][1] = copy.deepcopy(r["reps"][1])
        r["reps"][1]["modelled"]["req_p99_ms"] = 171.0
        self.assertFalse(report.checks(r)["modelled_repeats"])

    def test_no_repetition_is_a_failure(self):
        self.assertFalse(all(report.checks(result(reps=[])).values()))


class Merge(unittest.TestCase):
    @staticmethod
    def run(traced, variant=0, registry=None):
        """One driver process's output."""
        r = result()
        return {"workload": "http-mesh", "seed": 1, "build_type": "RelWithDebInfo",
                "compiler": "GNU", "variant": variant, "variants": 2, "trace": traced,
                "rep": rep(traced=traced), "registry": registry or r["registries"][0],
                "profile": r["profile"] if traced else None}

    def test_processes_merge_into_one_result(self):
        merged = report.merge([self.run(False), self.run(True), self.run(True)])
        self.assertEqual(len(merged["reps"]), 3)
        self.assertEqual(report.operations(merged), (30, 0))
        self.assertEqual(merged["profile"]["event_ns"], 2000)
        calls = {c["name"]: c["calls"] for c in merged["profile"]["categories"]}
        self.assertEqual(calls["switch/egress"], 60)
        self.assertAlmostEqual(report.rollup(merged["profile"])["wavnet"]["share"], 0.3)

    def test_untraced_run_has_no_profile(self):
        self.assertIsNone(report.merge([self.run(False), self.run(False)])["profile"])

    def test_one_registry_per_variant(self):
        a, b = churn_registry(10, 9, 1), churn_registry(20, 18, 2)
        merged = report.merge([self.run(False, 0, a), self.run(False, 1, b),
                               self.run(False, 0, churn_registry(99, 0, 0))])
        self.assertEqual(merged["registries"], [a, b])
        self.assertEqual([r["variant"] for r in merged["reps"]], [0, 1, 0])


class CategoryRollup(unittest.TestCase):
    def test_exact_name_wins_over_subsystem(self):
        self.assertEqual(report.layer_of("overlay/send_frame"), "wavnet")
        self.assertEqual(report.layer_of("overlay/punch_round"), "overlay")
        self.assertEqual(report.layer_of("link/deliver_burst"), "fabric")

    def test_unmapped_category_is_an_error(self):
        with self.assertRaises(report.UnmappedCategory):
            report.layer_of("stack/udp_demux")
        with self.assertRaises(report.UnmappedCategory):
            report.per_layer(result(categories=[
                {"name": "mystery/op", "calls": 1, "self_ns": 1, "total_ns": 1}]),
                report.load_spec())

    def test_rollup_sums_self_time_per_layer(self):
        layers = report.rollup(result()["profile"])
        self.assertEqual(layers["wavnet"]["self_ns"], 300)
        self.assertEqual(layers["wavnet"]["calls"], 60)
        self.assertAlmostEqual(sum(l["share"] for l in layers.values()), 1.0)

    def test_largest_unattributed_bucket(self):
        self.assertEqual(report.unattributed(result()), ("link/deliver", 0.3))

    def test_every_probe_in_the_sources_is_mapped(self):
        probe = re.compile(r'WAV_PROF_(?:SCOPE|CATEGORY)\("([a-z_]+)", *"([a-z_]+)"\)')
        seen = set()
        for path in (ROOT / "src").rglob("*.[ch]pp"):
            for subsystem, op in probe.findall(path.read_text()):
                if (subsystem, op) != ("subsystem", "op"):  # the macro's own usage note
                    seen.add(f"{subsystem}/{op}")
        self.assertTrue(seen)
        for category in sorted(seen):
            report.layer_of(category)


class RunnerCli(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                              capture_output=True, text=True, timeout=60)

    def test_unknown_flag_is_rejected_before_any_build(self):
        p = self.run_cli("--workload", "http-mesh", "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--help-me")
        self.assertEqual(p.returncode, 2)
        self.assertEqual(p.stdout, "")

    def test_unknown_workload_and_missing_flags_are_rejected(self):
        self.assertEqual(self.run_cli("--workload", "nope", "--seed", "1", "--seconds", "1",
                                      "--trace", "0").returncode, 2)
        self.assertEqual(self.run_cli("--workload", "http-mesh").returncode, 2)


if __name__ == "__main__":
    unittest.main()
