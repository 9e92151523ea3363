"""Turns one wavbench_driver result into the benchmark's metrics.

Kept apart from run.py (which builds and runs) so the self-tests in
tests/ can check metric naming, failure counting and the profiler
category roll-up on canned driver output.
"""

import json
import statistics
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path=SPEC_PATH):
    """BENCHMARK.json: the one list of workloads and metric names/units."""
    return json.loads(Path(path).read_text())


# Profiler category -> layer. Layers are the src/ modules, except that
# rendezvous (src/overlay/rendezvous.cpp) is its own layer. An exact
# "subsystem/op" entry wins over its subsystem's entry. A category seen
# in a run and missing here is an error, so a new probe cannot silently
# fall out of the report.
CATEGORY_LAYER = {
    "sim/event": "sim",                # events scheduled without a tag
    "overlay/send_frame": "wavnet",    # tunnel send of a switched frame
    "link": "fabric",                  # link/deliver also holds the unprobed IP/UDP stack
    "internet": "fabric",
    "nat": "nat",
    "switch": "wavnet",
    "bridge": "wavnet",
    "tcp": "tcp",
    "overlay": "overlay",
    "rendezvous": "rendezvous",
    "can": "can",
    "relay": "relay",
    "churn": "churn",
    "vpg": "vpg",
}

# Buckets whose self time is work no probe names: untagged events, and
# link delivery, whose event also runs the unprobed IP/UDP stack.
UNATTRIBUTED = ("sim/event", "link/deliver")


class UnmappedCategory(ValueError):
    pass


def layer_of(category):
    if category in CATEGORY_LAYER:
        return CATEGORY_LAYER[category]
    subsystem = category.split("/", 1)[0]
    if subsystem in CATEGORY_LAYER:
        return CATEGORY_LAYER[subsystem]
    raise UnmappedCategory(f"profiler category {category!r} maps to no layer")


def rollup(profile):
    """Per-layer {self_ns, calls, share} from the driver's profile block."""
    event_ns = profile["event_ns"]
    layers = {}
    for row in profile["categories"]:
        layer = layers.setdefault(layer_of(row["name"]), {"self_ns": 0, "calls": 0})
        layer["self_ns"] += row["self_ns"]
        layer["calls"] += row["calls"]
    for layer in layers.values():
        layer["share"] = layer["self_ns"] / event_ns if event_ns else 0.0
    return layers


def merge(runs):
    """One result from the driver processes of a run: one repetition per
    process, in order and tagged with its variant; the registry dump of
    the first process of each variant, in variant order; profiles summed."""
    merged = {k: runs[0][k] for k in ("workload", "seed", "build_type", "compiler")}
    merged["reps"] = [dict(run["rep"], variant=run["variant"]) for run in runs]
    registries = {}
    for run in runs:
        registries.setdefault(run["variant"], run["registry"])
    merged["registries"] = [registries[v] for v in sorted(registries)]
    profiles = [run["profile"] for run in runs if run["profile"]]
    merged["profile"] = None
    if profiles:
        cats = {}
        for p in profiles:
            for row in p["categories"]:
                acc = cats.setdefault(row["name"], {"name": row["name"], "calls": 0,
                                                    "self_ns": 0, "total_ns": 0})
                for k in ("calls", "self_ns", "total_ns"):
                    acc[k] += row[k]
        merged["profile"] = {
            "sample_period": profiles[0]["sample_period"],
            "events_measured": sum(p["events_measured"] for p in profiles),
            "event_ns": sum(p["event_ns"] for p in profiles),
            "categories": [cats[n] for n in sorted(cats)],
        }
    return merged


def counter_totals(result):
    """Registry counters summed over instances and variants, by name."""
    totals = {}
    for registry in result["registries"]:
        for c in (registry or {}).get("counters", []):
            totals[c["name"]] = totals.get(c["name"], 0) + c["value"]
    return totals


def select(result, traced=None):
    """The repetitions, all of them or only the profiled/unprofiled ones."""
    return [r for r in result["reps"] if traced is None or r["traced"] == traced]


def firsts(result):
    """The first repetition of each variant, in variant order: the source
    of counts that every repetition of a variant repeats."""
    seen = {}
    for r in result["reps"]:
        seen.setdefault(r["variant"], r)
    return [seen[v] for v in sorted(seen)]


def variant_mean(reps, value):
    """Mean over variants of the per-variant median of value(rep), so that
    each variant weighs the same however many repetitions it had."""
    groups = {}
    for r in reps:
        groups.setdefault(r["variant"], []).append(value(r))
    return statistics.fmean(statistics.median(g) for g in groups.values())


def digest(result):
    """The modelled-output digest of a run: each variant's registry
    digest, in variant order."""
    return "+".join(r["digest"] for r in firsts(result))


def operations(result):
    """(attempted, failed) summed over the repetitions."""
    return (sum(int(r["attempted"]) for r in result["reps"]),
            sum(int(r["failed"]) for r in result["reps"]))


def _ratio(num, den):
    return num / den if den else 0.0


def connect_success(counters):
    """Share of overlay dials that linked: the churn engine's dials where
    it ran (a dial that never resolved counts against it), otherwise the
    deployment's mesh dials."""
    attempted = counters.get("churn.connects_attempted", 0)
    if attempted:
        return _ratio(counters.get("churn.connects_ok", 0), attempted)
    ok = counters.get("overlay.links_established", 0)
    return _ratio(ok, ok + counters.get("overlay.connects_failed", 0))


def dials_unresolved(counters):
    """Churn dials that neither linked nor failed."""
    return (counters.get("churn.connects_attempted", 0) - counters.get("churn.connects_ok", 0)
            - counters.get("churn.connects_failed", 0))


def _named(values, entries):
    """{name: {value, unit}} for every metric the spec lists, in its order."""
    return {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}


def end_to_end(result, spec):
    """End-to-end metrics, measured on the untraced repetitions."""
    untraced = select(result, traced=False)
    counters = counter_totals(result)
    values = {
        # Host seconds of the simulated span: every workload runs a fixed
        # amount of simulated work, so this is its time to solution.
        "wall_s": variant_mean(untraced, lambda r: r["wall_s"]),
        # Each process sets up once, cold, before its span.
        "setup_s": statistics.median(r["build_s"] + r["deploy_s"] for r in result["reps"]),
        # Each repetition is its own process, so its high-water mark is
        # the workload's alone.
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in untraced) / 1024.0,
        "connect_success": connect_success(counters),
    }
    return _named(values, spec["end_to_end"])


def rss_slope_kb(slices):
    """Least-squares KB of peak RSS per served request over the slices."""
    pts = slices[1:]  # the first slice holds the start-up burst
    if len(pts) < 2:
        return 0.0
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return _ratio(sum((x - mx) * (y - my) for x, y in zip(xs, ys)), var)


def per_layer(result, spec):
    """Per-layer metrics: profiler shares and ns/call from the profiled
    repetitions, work counters from the registry, host time from the
    untraced ones. A layer the workload does not load reads 0."""
    untraced = select(result, traced=False)
    traced = select(result, traced=True)
    variants = firsts(result)
    c = counter_totals(result)
    modelled = variants[0]["modelled"]
    layers = rollup(result["profile"])
    cats = {row["name"]: row for row in result["profile"]["categories"]}

    def share(layer):
        return layers.get(layer, {}).get("share", 0.0)

    def self_ns(layer):
        return layers.get(layer, {}).get("self_ns", 0)

    def calls(*names):
        return sum(cats[n]["calls"] for n in names if n in cats)

    def cat_share(name):
        return _ratio(cats[name]["self_ns"], result["profile"]["event_ns"]) if name in cats else 0.0

    def total(key):
        return sum(r[key] for r in variants)

    wall_untraced = variant_mean(untraced, lambda r: r["wall_s"])
    wall_traced = variant_mean(traced, lambda r: r["wall_s"])
    v = {
        "sim.events": total("events"),
        "sim.ns_per_event": _ratio(wall_untraced * len(variants) * 1e9, total("events")),
        "sim.untagged_share": cat_share("sim/event"),
        "sim.pending_max": max(r["pending_max"] for r in variants),
        "fabric.self_share": share("fabric"),
        "fabric.ns_per_delivery": _ratio(self_ns("fabric"),
                                         calls("link/deliver", "link/deliver_burst")),
        "fabric.unattributed_share": cat_share("link/deliver"),
        "nat.translated": c.get("nat.translated_inbound", 0) + c.get("nat.translated_outbound", 0),
        "nat.blocked_inbound": c.get("nat.blocked_inbound", 0),
        "nat.bindings_created": c.get("nat.bindings_created", 0),
        "nat.self_share": share("nat"),
        "net.pool_reuse_share": _ratio(total("pool_reused"), total("pool_acquired")),
        "wavnet.frames_tunneled": c.get("switch.frames_tunneled", 0),
        "wavnet.flood_share": _ratio(c.get("switch.frames_flooded", 0),
                                     c.get("switch.frames_flooded", 0)
                                     + c.get("switch.frames_tunneled", 0)),
        "wavnet.frames_dropped": c.get("switch.frames_dropped_backlog", 0)
                                 + c.get("switch.frames_dropped_no_peer", 0),
        "wavnet.self_share": share("wavnet"),
        "wavnet.ns_per_frame": _ratio(self_ns("wavnet"), calls("switch/egress", "switch/ingress")),
        "tcp.retransmits": c.get("tcp.retransmits", 0),
        "tcp.fast_retransmits": c.get("tcp.fast_retransmits", 0),
        "tcp.rto_events": c.get("tcp.rto_events", 0),
        "tcp.self_share": share("tcp"),
        "tcp.ns_per_segment": _ratio(self_ns("tcp"), calls("tcp/handle_segment")),
        "vm.rounds": modelled.get("rounds", 0),
        "vm.resend_ratio": modelled.get("resend_ratio", 0),
        "vm.migration_s": modelled.get("migration_s", 0),
        "vm.downtime_ms": modelled.get("downtime_ms", 0),
        "apps.req_p50_ms": modelled.get("req_p50_ms", 0),
        "apps.req_p99_ms": modelled.get("req_p99_ms", 0),
        "apps.req_per_s": modelled.get("req_per_s", 0),
        "overlay.heartbeats": c.get("overlay.heartbeats_sent", 0),
        "overlay.pulses_sent": c.get("overlay.connect_pulse_sent", 0),
        "overlay.punch_yield": _ratio(c.get("overlay.links_established", 0),
                                      c.get("overlay.punches_sent", 0)),
        "overlay.relay_fallbacks": c.get("overlay.relay_fallbacks", 0),
        "overlay.connects_failed": c.get("overlay.connects_failed", 0),
        "overlay.self_share": share("overlay"),
        "rendezvous.queries": c.get("rendezvous.queries", 0),
        "rendezvous.registrations": c.get("rendezvous.registrations", 0),
        "rendezvous.heartbeats": c.get("rendezvous.heartbeats", 0),
        "rendezvous.self_share": share("rendezvous"),
        "can.query_ns": _ratio(cats["can/query"]["self_ns"], cats["can/query"]["calls"])
                        if "can/query" in cats else 0.0,
        "can.self_share": share("can"),
        "can.messages": c.get("can.messages_sent", 0),
        "can.queries_timed_out": c.get("can.queries_timed_out", 0),
        "can.forward_per_delivery": _ratio(c.get("can.routed_forwarded", 0),
                                           c.get("can.routed_delivered", 0)),
        "can.zone_share_max": max(max(r["modelled"].get("boot_zone_share", 0),
                                      r["modelled"].get("rejoin_zone_share", 0))
                                  for r in variants),
        "relay.allocations": c.get("relay.allocations", 0),
        "relay.alloc_failures": c.get("relay.alloc_failures", 0),
        "relay.frames_relayed": c.get("relay.frames_relayed", 0),
        "relay.self_share": share("relay"),
        "churn.arrivals": c.get("churn.arrivals", 0),
        "churn.departures": c.get("churn.departures_graceful", 0) + c.get("churn.crashes", 0),
        "churn.rehomes": c.get("churn.rehomes", 0),
        "churn.dials_failed": c.get("churn.connects_failed", 0),
        "churn.dials_unresolved": dials_unresolved(c),
        "setup.build_s": statistics.median(r["build_s"] for r in result["reps"]),
        "setup.deploy_s": statistics.median(r["deploy_s"] for r in result["reps"]),
        "rss.kb_per_request": rss_slope_kb(variants[0]["rss_slices"]),
        "obs.trace_overhead": _ratio(wall_traced, wall_untraced) - 1.0,
    }
    for phase in ("ramp", "outage", "recovery", "quiesce"):
        v[f"churn.phase_wall_s.{phase}"] = variant_mean(
            untraced, lambda r: r["phase_wall_s"].get(phase, 0.0))
    return _named(v, spec["per_layer"])


def checks(result):
    """Named correctness checks over every repetition."""
    reps = result["reps"]
    out = {"repetition_ran": bool(reps)}
    if not reps:
        return out
    for name in sorted({k for r in reps for k in r["checks"]}):
        out[name] = all(r["checks"].get(name, False) for r in reps)
    # Every repetition of a variant simulates the same thing: its registry
    # digest and modelled outputs must repeat, profiled or not.
    first = {r["variant"]: r for r in reversed(reps)}
    out["digest_repeats"] = all(r["digest"] == first[r["variant"]]["digest"] for r in reps)
    out["modelled_repeats"] = all(r["modelled"] == first[r["variant"]]["modelled"] for r in reps)
    return out


def unattributed(result):
    """The largest bucket of event time no probe names: (category, share)."""
    event_ns = result["profile"]["event_ns"]
    rows = {row["name"]: row for row in result["profile"]["categories"]}
    shares = {n: _ratio(rows[n]["self_ns"], event_ns) for n in UNATTRIBUTED if n in rows}
    if not shares:
        return ("-", 0.0)
    name = max(shares, key=shares.get)
    return (name, shares[name])
