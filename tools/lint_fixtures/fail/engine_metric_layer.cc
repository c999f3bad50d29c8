// analyze-fixture-as: src/activity/engine_metric_layer.cc
// analyze-expect: metric-prefix
// An activity-layer file must not define the engine's sched-layer
// instruments — the layer segment of the metric name has to match the
// defining file's layer, so scrapes stay attributable.
struct Registry;
Counter* Register(Registry* registry) {
  return registry->GetCounter("avdb_sched_engine_cancelled_total");
}
