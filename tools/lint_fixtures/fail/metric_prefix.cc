// analyze-fixture-as: src/sched/metric_prefix.cc
// analyze-expect: metric-prefix
// A sched-layer file defining an instrument that claims the net layer:
// the name's layer segment must match the defining file's layer.
struct Registry;
Counter* Register(Registry* registry) {
  return registry->GetCounter("avdb_net_transfers_total");
}
