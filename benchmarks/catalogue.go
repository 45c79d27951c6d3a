package main

// metricDef names one reported metric. BENCHMARK.json repeats this
// table for the driver; TestCatalogueMatchesBenchmarkJSON keeps the
// two from drifting apart.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which have none.
	bound float64
}

// endToEnd lists what a user of either runtime sees. Every workload
// reports every one of them, from the untraced run. All times are on
// the reference host (see calib.go).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "op_p50_us", unit: "us", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.10},
	{name: "alloc_bytes_per_op", unit: "B", bound: 0.10},
}

// perLayer lists the traced run's metrics, grouped by the layer they
// time or count. A metric that does not apply to a workload (a
// simulator figure on a networked workload and the reverse) reads 0.
var perLayer = []metricDef{
	// harness
	{name: "host.calib_us", unit: "us"},
	{name: "raw.ops_per_s", unit: "1/s", higher: true},
	{name: "raw.op_p50_us", unit: "us"},
	{name: "raw.setup_s", unit: "s"},
	{name: "proc.cpu_us_per_op", unit: "us"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "client.op_p90_us", unit: "us"},
	{name: "client.op_p99_us", unit: "us"},
	{name: "trace.overhead_frac", unit: "fraction"},
	// sim
	{name: "sim.build_p50_us", unit: "us"},
	{name: "sim.build_allocs_per_op", unit: "count"},
	{name: "sim.run_p50_us", unit: "us"},
	{name: "sim.tick_us", unit: "us"},
	{name: "sim.run_allocs_per_op", unit: "count"},
	{name: "sim.trial_p50_us.none", unit: "us"},
	{name: "sim.trial_p50_us.churn", unit: "us"},
	{name: "sim.trial_p50_us.random", unit: "us"},
	{name: "sim.trial_p50_us.neighbor", unit: "us"},
	{name: "sim.trial_p50_us.invitation", unit: "us"},
	{name: "sim.ticks_per_op", unit: "count"},
	{name: "sim.strategy_msgs_per_op", unit: "count"},
	{name: "sim.runtime_factor_mean", unit: "ratio"},
	// keys / ring / ids drills
	{name: "keys.taskkeys_ns_per_key", unit: "ns"},
	{name: "ring.seed_ns_per_key", unit: "ns"},
	{name: "ring.build_ns_per_node", unit: "ns"},
	{name: "ring.insert_ns", unit: "ns"},
	{name: "ring.remove_ns", unit: "ns"},
	{name: "ring.owner_ns", unit: "ns"},
	{name: "ids.less_ns", unit: "ns"},
	// netchord
	{name: "netchord.idle_cpu_cores", unit: "cores"},
	{name: "netchord.rpcs_per_op", unit: "count"},
	{name: "netchord.find_successor_per_op", unit: "count"},
	{name: "netchord.replicate_per_op", unit: "count"},
	{name: "netchord.served_per_op", unit: "count"},
	{name: "netchord.sync_digest_per_s", unit: "1/s"},
	{name: "netchord.stabilize_per_s", unit: "1/s"},
	{name: "netchord.antientropy_bytes_per_s", unit: "B/s"},
	{name: "netchord.retries", unit: "count"},
	{name: "netchord.timeouts", unit: "count"},
	{name: "netchord.reconnects", unit: "count"},
	{name: "netchord.replica_errs", unit: "count"},
	{name: "netchord.boot_s", unit: "s"},
	{name: "netchord.preload_s", unit: "s"},
	{name: "netchord.lookup_p50_us", unit: "us"},
	{name: "netchord.hops_p50", unit: "count"},
	{name: "netchord.getfrom_p50_us", unit: "us"},
	// store
	{name: "store.appends_per_op", unit: "count"},
	{name: "store.write_amp", unit: "ratio"},
	{name: "store.syncs_per_op", unit: "count"},
	{name: "store.sync_elided_frac", unit: "fraction"},
	{name: "store.gets_per_op", unit: "count"},
	{name: "store.compactions", unit: "count"},
	{name: "store.dead_frac_end", unit: "fraction"},
	{name: "store.put_us", unit: "us"},
	{name: "store.get_us", unit: "us"},
	{name: "store.digest_us_per_key", unit: "us"},
	// wire drills
	{name: "wire.append_ns.put64", unit: "ns"},
	{name: "wire.decode_ns.put64", unit: "ns"},
	{name: "wire.append_ns.found8", unit: "ns"},
	{name: "wire.decode_ns.found8", unit: "ns"},
	{name: "wire.allocs_per_decode", unit: "count"},
}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	name, why string
}

// workloads lists the four workloads in the order -repeat runs them.
var workloads = []workloadDef{
	{name: "sim-paper-1k", why: "the paper's 1000-host network, five configurations a round: sim.New dominates (build-bound)"},
	{name: "sim-scale-100k", why: "100k hosts, 2M tasks, random injection under churn: the serial tick loop dominates (run-bound)"},
	{name: "net-put-r3", why: "replicated R=3 writes to a 12-host loopback ring over a fixed key pool: store and replication path"},
	{name: "net-read-zipf", why: "Zipf reads of the same ring and pool: routing, connection pool and codec path, store idle"},
}
