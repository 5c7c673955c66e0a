package main

// metricDef is one metric the benchmark reports. BENCHMARK.json names
// the same metrics with the same units; the smoke test keeps the two in
// step.
type metricDef struct {
	name, unit string
	endToEnd   bool
}

// metricDefs lists every metric: the end-to-end ones an untraced run
// reports, then the per-layer ones a traced run reports. Only metrics
// that repeat within a tenth from run to run are gated end to end;
// setup_s is required whatever its spread. The first eleven per-layer
// ones are end-to-end by nature but do not repeat well enough to gate
// (README.md has the measured spreads): the closed loops follow the
// host's CPU speed, which drifts by a quarter and more, the open loop's
// p99 is set by GC pauses, a durable restart's time by how far each
// node's log had got since its last snapshot, and a correct run's error
// rate is 0, which no relative bound can judge. The traced run measures
// them on the ops it sends with spans off.
var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"heap_mb", "MB", true},

	{"throughput_ops_s", "ops/s", false},
	{"cpu_us_per_op", "us", false},
	{"read_p50_us", "us", false},
	{"read_p90_us", "us", false},
	{"write_p50_us", "us", false},
	{"write_p90_us", "us", false},
	{"read_p99_us", "us", false},
	{"write_p99_us", "us", false},
	{"recovery_s", "s", false},
	{"rebuild_s", "s", false},
	{"error_rate", "ratio", false},
	{"cluster.get_p50_us", "us", false},
	{"cluster.get_p99_us", "us", false},
	{"cluster.put_p50_us", "us", false},
	{"cluster.put_p99_us", "us", false},
	{"cluster.overhead_get_us", "us", false},
	{"cluster.overhead_put_us", "us", false},
	{"cluster.readrepair_per_kop", "count/kop", false},
	{"cluster.quorum_failures", "count", false},
	{"pool.attempts_per_request", "ratio", false},
	{"sockets.get_p50_us", "us", false},
	{"sockets.get_p99_us", "us", false},
	{"sockets.setv_p50_us", "us", false},
	{"sockets.setv_p99_us", "us", false},
	{"sockets.ops_s", "ops/s", false},
	{"sockets.cpu_us_per_op", "us", false},
	{"sockets.allocs_per_op", "count", false},
	{"sockets.server_mean_us", "us", false},
	{"sockets.shed", "count", false},
	{"wire.req_encode_ns", "ns", false},
	{"wire.req_decode_ns", "ns", false},
	{"wire.resp_encode_ns", "ns", false},
	{"wire.resp_decode_ns", "ns", false},
	{"wire.allocs_per_roundtrip", "count", false},
	{"version.encode_ns", "ns", false},
	{"version.decode_ns", "ns", false},
	{"version.newer_ns", "ns", false},
	{"version.decode_allocs", "count", false},
	{"wal.commit_p50_us", "us", false},
	{"wal.commit_p99_us", "us", false},
	{"wal.records_per_sync", "ratio", false},
	{"wal.replay_records_s", "records/s", false},
	{"wal.bytes_per_user_byte", "ratio", false},
	{"merkle.apply_ns", "ns", false},
	{"merkle.diff_ms", "ms", false},
	{"db.nodesfor_ns", "ns", false},
	{"db.put_ns", "ns", false},
	{"metrics.observe_ns", "ns", false},
	{"runtime.allocs_per_op", "count", false},
	{"runtime.alloc_bytes_per_op", "B", false},
	{"runtime.gc_per_kop", "count/kop", false},
	{"loadgen.late_p50_us", "us", false},
	{"loadgen.late_p99_us", "us", false},
	{"loadgen.dropped", "count", false},
	{"trace.overhead_pct", "%", false},
}
