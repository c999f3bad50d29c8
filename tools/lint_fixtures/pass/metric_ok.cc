// analyze-fixture-as: src/net/metric_ok.cc
// Correctly prefixed instrument for its layer; mentions of other layers'
// instruments in comments (e.g. avdb_sched_stream_misses_total) are prose,
// not definitions, and must not fire.
struct Registry;
Counter* Register(Registry* registry) {
  return registry->GetCounter("avdb_net_transfers_total");  // avdb_storage_reads_total is only a comment
}
